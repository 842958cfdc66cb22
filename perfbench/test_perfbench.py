"""Tests of the benchmark itself: generators, references, metric names and
the tracer.  Run with ``python3 -m pytest perfbench`` from the repository root."""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import types
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from maxconv import cli, colorcoding, core, decision  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _solve(path: Path, method: str, *extra: str) -> tuple[int, dict | None]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["solve", "--input", str(path), "--method", method, *extra])
    return code, json.loads(out.getvalue())["answer"] if code == 0 else None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_files(name):
    wl = workloads.WORKLOADS[name]
    for j in sorted({0, 1, wl.pool - 1}):
        first = workloads.instance(name, 7, j).text()
        assert workloads.instance(name, 7, j).text() == first
        assert workloads.instance(name, 8, j).text() != first


def test_conv_large_mixes_uniform_and_profile_operands():
    shapes = []
    for j in range(4):
        inst = workloads.instance("conv-large", 3, j)
        assert (inst.problem, inst.method) == ("maxconv", "naive")
        for key in ("a", "b"):
            seq = inst.payload[key]
            assert len(seq) == workloads.CONV_N
            assert max(abs(v) for v in seq) <= workloads.W
            shapes.append(inst.props[key])
            if inst.props[key] == "profile":
                assert seq[0] == 0 and all(x <= y for x, y in zip(seq, seq[1:]))
    assert shapes.count("uniform") == shapes.count("profile") == 4


def test_knapsack_rand_has_equal_shares_of_light_weights():
    kinds = []
    for j in range(workloads.WORKLOADS["knapsack-rand"].pool):
        inst = workloads.instance("knapsack-rand", 3, j)
        t = inst.payload["capacity"]
        weights = [w for w, _ in inst.payload["items"]]
        kinds.append(inst.props["weights"])
        if inst.props["weights"] == "light":
            assert max(weights) <= t // 16
        assert inst.extra_args == ("--seed", str(inst.props["solve_seed"]))
    assert kinds.count("light") == kinds.count("uniform")


def test_routes_mix_covers_every_route_and_the_headroom_bound():
    wl = workloads.WORKLOADS["routes-mix"]
    registered = {(p, m) for p, ms in cli.METHODS.items() for m in ms}
    routes = [(p, m) for p, m, _ in workloads.ROUTES]
    assert set(routes) == registered - {("knapsack01", "rand")}
    for seed in range(3):
        pool = [workloads.instance("routes-mix", seed, j) for j in range(wl.pool)]
        assert sorted((i.problem, i.method) for i in pool) == sorted(routes * 2)
        assert sorted(i.props["planted_yes"] for i in pool) == [False] * len(routes) + [True] * len(routes)
        # The timed pool stays at ordinary magnitudes; refusals at the
        # bound are counted in the traced set only.
        assert not any(i.props["headroom"] for i in pool)
    traced = [workloads.instance("routes-mix", 3, j) for j in wl.trace]
    assert sorted((i.problem, i.method, i.props["headroom"]) for i in traced) == sorted(
        (p, m, b) for p, m in routes for b in (False, True)
    )


def test_headroom_instances_are_valid_input():
    from maxconv.serialize import parse_instance, payload_objects

    for j in workloads.WORKLOADS["routes-mix"].trace:
        inst = workloads.instance("routes-mix", 3, j)
        if not inst.props["headroom"]:
            continue
        doc = parse_instance(inst.text())
        payload_objects(doc["problem"], doc["payload"])  # raises on rejected input
        assert inst.props["w"] == workloads.headroom_bound(inst.props["n"])


@pytest.mark.parametrize("route", workloads.ROUTES, ids=lambda r: f"{r[0]}-{r[1]}")
def test_reference_matches_the_package_reference_method(route, tmp_path):
    problem, _, _ = route
    ref_method = cli.REFERENCE[problem]
    for yes in (True, False):
        rng = random.Random(f"{problem}/{yes}")
        inst = workloads.Instance(problem, ref_method, workloads.payload(problem, rng, 24, 50, yes), {})
        path = tmp_path / "inst.json"
        path.write_text(inst.text())
        code, ans = _solve(path, ref_method)
        assert code == 0
        ref = reference.answer(problem, inst.payload)
        assert reference.compare(ref, ans, randomized=False) == (True, reference.entries(ref))


def test_compare_rand_is_one_sided():
    ref = {"profile": [0, 5, 7], "value_at_capacity": 7}

    def rand(profile, at_capacity):
        return reference.compare(ref, {"profile": profile, "value_at_capacity": at_capacity}, randomized=True)

    assert rand([0, 4, 7], 7) == (True, 2)
    assert rand([0, 4, 6], 6) == (True, 1)
    assert rand([0, 6, 7], 7) == (False, 2)
    assert rand([0, 5], 5) == (False, 0)
    # The value at capacity must be the profile's last entry, so it can
    # neither exceed the optimum nor disagree with the profile.
    assert rand([0, 4, 7], 8) == (False, 2)
    assert rand([0, 4, 6], 7) == (False, 1)
    assert reference.compare(ref, {"profile": [0, 4, 7]}, randomized=True) == (False, 2)


def test_metric_names_follow_the_grammar_and_match_benchmark_json():
    e2e = [m["name"] for m in BENCH["end_to_end"]]
    layers = [m["name"] for m in BENCH["per_layer"]]
    for name in e2e + layers + [w["name"] for w in BENCH["workloads"]]:
        assert NAME.fullmatch(name), name
    assert len(set(e2e + layers)) == len(e2e) + len(layers)
    assert layers == list(tracing.PER_LAYER)
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in BENCH["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    for wl in workloads.WORKLOADS.values():
        assert wl.own and set(wl.own) <= set(tracing.PER_LAYER), wl.name


def test_a_missing_hook_point_fails_the_gates():
    tracer = tracing.Tracer()
    renamed = types.ModuleType("maxconv.decision")  # no detect_violations, no detect_single
    tracer.install(cli, core, renamed, colorcoding)
    tracer.uninstall()
    failures = tracing.gate_failures(tracer, {})
    assert "hook point maxconv.decision.detect_single is missing" in failures
    assert "hook point maxconv.decision.detect_violations is missing" in failures


def _traced_solves(tmp_path, insts) -> tuple[tracing.Tracer, list[int]]:
    tracer = tracing.Tracer()
    originals = (dict(core.KERNELS), core.Sequence.__init__, decision.detect_single, cli.parse_instance)
    tracer.install(cli, core, decision, colorcoding)
    codes = []
    try:
        for pos, inst in enumerate(insts):
            path = tmp_path / f"{pos}.json"
            path.write_text(inst.text())
            tracer.solve = pos
            span = tracer.open("main", "cli")
            codes.append(_solve(path, inst.method, *inst.extra_args)[0])
            tracer.close(span)
    finally:
        tracer.uninstall()
    assert (dict(core.KERNELS), core.Sequence.__init__, decision.detect_single, cli.parse_instance) == originals
    return tracer, codes


def test_tracer_counts_and_gates_on_the_decision_route(tmp_path):
    rng = random.Random(1)
    pay = {"a": workloads.uniform(rng, 20, 30), "b": workloads.uniform(rng, 20, 30)}
    tracer, codes = _traced_solves(tmp_path, [workloads.Instance("maxconv", "via-upperbound", pay, {})])
    assert codes == [0]
    m = tracing.layer_metrics(tracer, {0: 0})
    assert m["decision.rounds"] > 0 and m["decision.detect_calls"] >= m["decision.rounds"]
    assert m["decision.oracle_calls"] == m["core.kernel.calls"]
    assert m["core.kernel.small_calls"] == m["core.kernel.calls"]
    assert m["core.sequence.count"] > 0 and m["decision.self_s"] > 0
    assert tracing.gate_failures(tracer, {0: ("maxconv", "via-upperbound", [20, 20])}) == []
    assert all(s.dur - s.child_s >= -1e-6 for s in tracer.spans)


def test_tracer_cell_gate_and_reduction_blowup(tmp_path):
    rng = random.Random(2)
    conv = workloads.Instance("maxconv", "naive", workloads.payload("maxconv", rng, 50, 99, True), {})
    red = workloads.Instance("upperbound", "via-3sumconv", workloads.payload("upperbound", rng, 8, 99, True), {})
    tracer, codes = _traced_solves(tmp_path, [conv, red])
    assert codes == [0, 0]
    m = tracing.layer_metrics(tracer, {0: 0, 1: 0})
    assert m["core.kernel.cells"] >= 50 * 50
    assert tracing.gate_failures(tracer, {0: ("maxconv", "naive", [50, 50])}) == []
    assert tracing.gate_failures(tracer, {0: ("maxconv", "naive", [50, 51])}) != []
    name = "reductions.reduce_upperbound_to_3sumconv"
    assert m[f"{name}.calls"] == 1 and m[f"{name}.max_len"] == 8
    assert m[f"{name}.instances"] == m["oracles.three_sum_conv_brute.calls"] > 0
    assert 0 < m[f"{name}.max_abs_bits"] <= 64
