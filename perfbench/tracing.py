"""In-process tracer for the traced run.

The tracer only wraps names from the outside; nothing in the package is
edited.  Each wrapped call becomes a span (name, layer, start, end, parent
span, solve index) kept in memory; ``Sequence.__init__`` is counted and
summed instead, because the decision route builds tens of thousands of
them.  Self time of a span is its duration minus its child spans and the
``Sequence`` constructions that ran directly inside it.

Hook points, all resolved by name at call time inside the package:

* the entries of ``core.KERNELS`` (every route resolves its kernel there);
* ``core.Sequence.__init__``;
* ``decision.detect_violations`` and ``decision.detect_single``, plus the
  oracle each ``detect_single`` call is handed (counted per call);
* ``colorcoding.color_coding`` and ``colorcoding.color_coding_layer``;
* the reduction, oracle, method and serialize names imported into
  ``maxconv.cli``.

A hook point that no longer exists fails the count gates, so that its
metrics cannot read 0 unnoticed.
"""

from __future__ import annotations

import functools
import json
import math
from time import perf_counter

REDUCTIONS = (
    "reduce_lowerbound_to_necklace",
    "reduce_mcsp_to_maxconv",
    "reduce_superadditivity_to_mcsp",
    "reduce_superadditivity_to_unbounded",
    "reduce_unbounded_to_01",
    "reduce_upperbound_to_3sumconv",
    "reduce_upperbound_to_superadditivity",
    "tree_sparsity_via_maxconv",
)
# Solvers the routes hand their target instances to.
ORACLES = (
    "is_superadditive",
    "knapsack01_dp",
    "max_conv",
    "mcsp_brute",
    "necklace_linf_brute",
    "three_sum_conv_brute",
    "unbounded_knapsack_dp",
)
SMALL_CELLS = 2048

# name -> unit, in reporting order; BENCHMARK.json lists the same names.
PER_LAYER = {
    "core.kernel.calls": "count",
    "core.kernel.cells": "count",
    "core.kernel.s": "s",
    "core.kernel.ns_per_cell": "ns",
    "core.kernel.small_calls": "count",
    "core.sequence.count": "count",
    "core.sequence.values": "count",
    "core.sequence.s": "s",
    "decision.rounds": "count",
    "decision.detect_calls": "count",
    "decision.oracle_calls": "count",
    "decision.max_oracle_calls_per_detect": "count",
    "decision.hit_ratio": "ratio",
    "decision.self_s": "s",
    "colorcoding.layer_calls": "count",
    "colorcoding.trial_calls": "count",
    "colorcoding.join.calls": "count",
    "colorcoding.join.cells": "count",
    "colorcoding.join.s": "s",
    "colorcoding.self_s": "s",
    **{
        f"reductions.{fn}.{key}": unit
        for fn in REDUCTIONS
        for key, unit in (
            ("calls", "count"),
            ("s", "s"),
            ("instances", "count"),
            ("max_len", "count"),
            ("max_abs_bits", "bits"),
        )
    },
    "reductions.refused": "count",
    **{f"oracles.{fn}.{key}": unit for fn in ORACLES for key, unit in (("calls", "count"), ("s", "s"))},
    "serialize.parse_s": "s",
    "serialize.objects_s": "s",
    "serialize.input_bytes": "bytes",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "fail_ratio": "ratio",
    "exact_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}
# Metrics that depend on the clock; every other one must repeat exactly for
# a seed.  Run reports carry their own wall time, so their size varies too.
TIMED = {name for name, unit in PER_LAYER.items() if unit in ("s", "ns")} | {
    "trace.overhead_ratio",
    "cli.report_bytes",
}


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "solve", "child_s", "info")

    def __init__(self, id, name, layer, parent, solve):
        self.id, self.name, self.layer, self.parent, self.solve = id, name, layer, parent, solve
        self.child_s = 0.0
        self.info: dict = {}
        self.start = self.end = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.solve = -1
        self.seq = {"count": 0, "values": 0, "s": 0.0}
        self.missing: list[str] = []
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str, layer: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), name, layer, parent, self.solve)
        self.spans.append(span)
        self.stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.dur

    def _charge(self, seconds: float) -> None:
        # Work the tracer did outside any span it measured (inspecting a
        # result) is taken out of the enclosing span's self time.
        if self.stack:
            self.stack[-1].child_s += seconds

    def wrap(self, fn, name: str, layer: str, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, layer)
            if before is not None:
                args, kwargs = before(span, args, kwargs)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.info["raised"] = True
                raise
            finally:
                tracer.close(span)
            if after is not None:
                t0 = perf_counter()
                after(span, out)
                tracer._charge(perf_counter() - t0)
            return out

        return traced

    def patch(self, owner, attr: str, name: str, layer: str, before=None, after=None):
        if not hasattr(owner, attr):
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        orig = getattr(owner, attr)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(orig, name, layer, before, after))

    def dump(self, path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id,
                    "parent": s.parent.id if s.parent is not None else None,
                    "solve": s.solve,
                    "layer": s.layer,
                    "name": s.name,
                    "start_s": s.start - t0,
                    "end_s": s.end - t0,
                    "self_s": s.dur - s.child_s,
                    **s.info,
                }) + "\n")

    # -- installation --------------------------------------------------------

    def install(self, cli, core, decision, colorcoding) -> None:
        kernels = getattr(core, "KERNELS", {})
        if not kernels:
            self.missing.append("core.KERNELS")
        for kname in list(kernels):
            orig = kernels[kname]
            self._undo.append((kernels, kname, orig))
            kernels[kname] = self.wrap(orig, kname, "kernel", before=_kernel_cells)
        self._patch_sequence(core)
        self.patch(cli, "max_conv_via_upperbound", "max_conv_via_upperbound", "decision")
        self.patch(decision, "detect_violations", "detect_violations", "decision",
                   after=_report_calls)
        self.patch(decision, "detect_single", "detect_single", "decision",
                   before=self._count_oracle, after=_hit)
        self.patch(cli, "knapsack_rand", "knapsack_rand", "colorcoding")
        self.patch(colorcoding, "color_coding_layer", "color_coding_layer", "colorcoding")
        self.patch(colorcoding, "color_coding", "color_coding", "colorcoding")
        for fn in REDUCTIONS:
            self.patch(cli, fn, fn, "reductions", after=_blowup)
        for fn in ORACLES:
            self.patch(cli, fn, fn, "oracles")
        self.patch(cli, "parse_instance", "parse_instance", "serialize", before=_input_bytes)
        self.patch(cli, "payload_objects", "payload_objects", "serialize")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    def _patch_sequence(self, core) -> None:
        cls = getattr(core, "Sequence", None)
        if cls is None:
            self.missing.append("core.Sequence")
            return
        orig = cls.__init__
        seq, tracer = self.seq, self

        @functools.wraps(orig)
        def init(obj, *args, **kwargs):
            t0 = perf_counter()
            try:
                orig(obj, *args, **kwargs)
            finally:
                dt = perf_counter() - t0
                seq["count"] += 1
                seq["s"] += dt
                tracer._charge(dt)
            seq["values"] += len(obj.values)

        self._undo.append((cls, "__init__", orig))
        cls.__init__ = init

    def _count_oracle(self, span: Span, args, kwargs):
        # The oracle is an argument (a default bound at definition time), so
        # it is counted by wrapping whatever this call was handed.
        span.info["m"] = len(args[0]) if args else None
        if len(args) < 4:
            return args, kwargs
        oracle = args[3]

        def counted(*a, **k):
            span.info["oracle_calls"] = span.info.get("oracle_calls", 0) + 1
            return oracle(*a, **k)

        span.info["oracle_calls"] = 0
        return (*args[:3], counted, *args[4:]), kwargs


# ---------------------------------------------------------------------------
# result inspectors


def _kernel_cells(span: Span, args, kwargs):
    a, b, limit = args[:3]
    span.info["cells"] = min(len(a), len(b)) * (limit + 1)
    return args, kwargs


def _report_calls(span: Span, report) -> None:
    span.info["oracle_calls"] = getattr(report, "oracle_calls", 0)


def _hit(span: Span, found) -> None:
    span.info["hit"] = found is not None


def _input_bytes(span: Span, args, kwargs):
    span.info["bytes"] = len(args[0].encode()) if args and isinstance(args[0], str) else 0
    return args, kwargs


def _walk(obj, acc: dict) -> None:
    if isinstance(obj, bool):
        return
    if isinstance(obj, int):
        acc["bits"] = max(acc["bits"], abs(obj).bit_length())
    elif isinstance(obj, (list, tuple)):
        acc["len"] = max(acc["len"], len(obj))
        for item in obj:
            _walk(item, acc)
    elif hasattr(obj, "__dataclass_fields__"):
        for fname in obj.__dataclass_fields__:
            _walk(getattr(obj, fname), acc)
    elif hasattr(obj, "values") and not callable(obj.values):
        _walk(obj.values, acc)


def _blowup(span: Span, out) -> None:
    # Reductions return an outcome whose instances are read; tree sparsity
    # returns its vector, which counts as the one instance it builds.
    instances = getattr(out, "instances", None)
    if instances is None:
        instances = (out,)
    acc = {"len": 0, "bits": 0}
    for inst in instances:
        sub = {"len": 0, "bits": 0}
        _walk(inst, sub)
        acc["len"] = max(acc["len"], sub["len"])
        acc["bits"] = max(acc["bits"], sub["bits"])
    span.info.update(instances=len(instances), max_len=acc["len"], max_abs_bits=acc["bits"])


# ---------------------------------------------------------------------------
# aggregation


def _self_s(span: Span) -> float:
    return span.dur - span.child_s


def _under(span: Span, layer: str) -> bool:
    p = span.parent
    while p is not None:
        if p.layer == layer:
            return True
        p = p.parent
    return False


def layer_metrics(tracer: Tracer, outcomes: dict) -> dict:
    """Per-layer numbers from the recorded spans.  ``outcomes`` maps a solve
    index to its exit code (0 = report printed)."""
    spans = tracer.spans
    by_layer: dict[str, list[Span]] = {}
    for s in spans:
        by_layer.setdefault(s.layer, []).append(s)
    kern = by_layer.get("kernel", [])
    dec = by_layer.get("decision", [])
    cc = by_layer.get("colorcoding", [])
    m: dict[str, float] = {}

    cells = sum(s.info["cells"] for s in kern)
    kern_s = sum(s.dur for s in kern)
    m["core.kernel.calls"] = len(kern)
    m["core.kernel.cells"] = cells
    m["core.kernel.s"] = kern_s
    m["core.kernel.ns_per_cell"] = kern_s / cells * 1e9 if cells else 0.0
    m["core.kernel.small_calls"] = sum(s.info["cells"] <= SMALL_CELLS for s in kern)
    m["core.sequence.count"] = tracer.seq["count"]
    m["core.sequence.values"] = tracer.seq["values"]
    m["core.sequence.s"] = tracer.seq["s"]

    detects = [s for s in dec if s.name == "detect_single"]
    counted = [s.info["oracle_calls"] for s in detects if "oracle_calls" in s.info]
    m["decision.rounds"] = sum(s.name == "detect_violations" for s in dec)
    m["decision.detect_calls"] = len(detects)
    m["decision.oracle_calls"] = sum(
        s.info.get("oracle_calls", 0) for s in dec if s.name == "detect_violations"
    )
    m["decision.max_oracle_calls_per_detect"] = max(counted, default=0)
    hits = sum(bool(s.info.get("hit")) for s in detects)
    m["decision.hit_ratio"] = hits / len(detects) if detects else 0.0
    m["decision.self_s"] = sum(_self_s(s) for s in dec)

    joins = [s for s in kern if _under(s, "colorcoding")]
    m["colorcoding.layer_calls"] = sum(s.name == "color_coding_layer" for s in cc)
    m["colorcoding.trial_calls"] = sum(s.name == "color_coding" for s in cc)
    m["colorcoding.join.calls"] = len(joins)
    m["colorcoding.join.cells"] = sum(s.info["cells"] for s in joins)
    m["colorcoding.join.s"] = sum(s.dur for s in joins)
    m["colorcoding.self_s"] = sum(_self_s(s) for s in cc)

    reds = by_layer.get("reductions", [])
    for fn in REDUCTIONS:
        mine = [s for s in reds if s.name == fn]
        done = [s for s in mine if "instances" in s.info]
        m[f"reductions.{fn}.calls"] = len(mine)
        m[f"reductions.{fn}.s"] = sum(s.dur for s in mine)
        m[f"reductions.{fn}.instances"] = sum(s.info["instances"] for s in done)
        m[f"reductions.{fn}.max_len"] = max((s.info["max_len"] for s in done), default=0)
        m[f"reductions.{fn}.max_abs_bits"] = max(
            (s.info["max_abs_bits"] for s in done), default=0
        )
    routed = {s.solve for s in reds}
    m["reductions.refused"] = sum(outcomes.get(i, 0) != 0 for i in routed)

    orc = by_layer.get("oracles", [])
    for fn in ORACLES:
        mine = [s for s in orc if s.name == fn]
        m[f"oracles.{fn}.calls"] = len(mine)
        m[f"oracles.{fn}.s"] = sum(s.dur for s in mine)

    ser = by_layer.get("serialize", [])
    m["serialize.parse_s"] = sum(s.dur for s in ser if s.name == "parse_instance")
    m["serialize.objects_s"] = sum(s.dur for s in ser if s.name == "payload_objects")
    m["serialize.input_bytes"] = sum(s.info.get("bytes", 0) for s in ser)

    clis = by_layer.get("cli", [])
    m["cli.self_s"] = sum(_self_s(s) for s in clis)
    m["cli.report_bytes"] = sum(s.info.get("report_bytes", 0) for s in clis)
    return m


def gate_failures(tracer: Tracer, instances: dict) -> list[str]:
    """Count gates on the recorded spans; ``instances`` maps a solve index
    to (problem, method, operand lengths)."""
    problems = [f"hook point {name} is missing" for name in tracer.missing]
    cells: dict[int, int] = {}
    for s in tracer.spans:
        if s.layer == "kernel":
            cells[s.solve] = cells.get(s.solve, 0) + s.info["cells"]
    for i, (problem, method, lens) in instances.items():
        if problem == "maxconv" and method in ("naive", "python"):
            want = lens[0] * lens[1]
            if cells.get(i, 0) != want:
                problems.append(f"solve {i}: kernel cells {cells.get(i, 0)} != n^2 = {want}")
    detects = [s for s in tracer.spans if s.name == "detect_single"]
    for s in detects:
        m, calls = s.info.get("m"), s.info.get("oracle_calls")
        if m and calls is not None and calls > math.ceil(math.log2(m)) + 1:
            problems.append(f"detect_single on length {m} made {calls} oracle calls")
    reported = sum(s.info.get("oracle_calls", 0) for s in tracer.spans if s.name == "detect_violations")
    counted = sum(s.info.get("oracle_calls", 0) for s in detects)
    if reported != counted:
        problems.append(f"ViolationReport oracle_calls {reported} != counted {counted}")
    return problems
