"""JSON instance files shared by the CLI, the tests, and fixtures.

An instance file is one JSON object: a problem tag, a problem-specific
payload, and free-form metadata (generator parameters, seed).  Dumps are
canonical (sorted keys, two-space indent, trailing newline) so identical
instances serialise byte-identically.
"""

from __future__ import annotations

import json
import random
import sys
from typing import Callable, NamedTuple

from .core import Sequence, _check_int, maxconv_values
from .oracles import KnapsackInstance, NecklaceInstance, WeightedTree


class InstanceFormatError(ValueError):
    """Raised for malformed instance files."""


# ---------------------------------------------------------------------------
# generators (seeded, reproducible; biased so both verdicts occur)


def _seq(rng: random.Random, n: int, w: int) -> list[int]:
    return [rng.randint(-w, w) for _ in range(n)]


def _gen_bound_triple(upper: bool):
    def gen(rng, n, w, opts) -> dict:
        a = _seq(rng, n, w)
        b = _seq(rng, n, w)
        roll = rng.random()
        if roll < 0.5:
            c = _seq(rng, n, 2 * w)
        else:
            c = maxconv_values(a, b, n - 1)
            if roll < 0.75:
                # Keep the answer YES: pad up for the upper bound, down for the lower.
                slack = [rng.randint(0, 2) for _ in range(n)]
                c = [v + s if upper else v - s for v, s in zip(c, slack)]
            else:
                idx = rng.randrange(n)
                c[idx] += -1 - rng.randint(0, w) if upper else 1 + rng.randint(0, w)
        return {"a": a, "b": b, "c": c}

    return gen


def _gen_3sumconv(rng, n, w, opts) -> dict:
    a, b, c = _seq(rng, n, w), _seq(rng, n, w), _seq(rng, n, 2 * w)
    if rng.random() < 0.5:
        i = rng.randrange(n)
        j = rng.randrange(n - i)
        c[i + j] = a[i] + b[j]
    return {"a": a, "b": b, "c": c}


def _gen_superadd(rng, n, w, opts) -> dict:
    roll = rng.random()
    if roll < 0.5:
        return {"a": _seq(rng, n, w)}
    step = max(1, w // max(1, n - 1))
    incs = sorted(rng.randint(0, step) for _ in range(n - 1))
    seq = [0]
    for inc in incs:
        seq.append(seq[-1] + inc)
    if roll >= 0.75 and n > 1:
        seq[rng.randrange(1, n)] += rng.randint(1, 3)
    return {"a": seq}


def _gen_knapsack(rng, n, w, opts) -> dict:
    t = opts["t"] if opts.get("t") is not None else max(1, 2 * n)
    # Weights in 1..max(1, t): at capacity 0 no item fits.  A negative t is
    # refused when dump_instance builds the KnapsackInstance.
    items = [[rng.randint(1, max(1, t)), rng.randint(0, w)] for _ in range(n)]
    return {"items": items, "capacity": t}


def _gen_tree(rng, n, w, opts) -> dict:
    parent = [-1] + [rng.randint(0, i - 1) for i in range(1, n)]
    weight = [rng.randint(0, w) for _ in range(n)]
    k = opts["k"] if opts.get("k") is not None else rng.randint(0, n)
    return {"parent": parent, "weight": weight, "k": k}


def _gen_necklace(rng, n, w, opts) -> dict:
    circle = opts["circle"] if opts.get("circle") is not None else max(4, 8 * n)
    if circle < 1:
        raise InstanceFormatError("necklace circumference circle must be at least 1")
    return {
        "x": sorted(rng.randint(0, circle) for _ in range(n)),
        "y": sorted(rng.randint(0, circle) for _ in range(n)),
        "circle_length": circle,
    }


# ---------------------------------------------------------------------------
# the problem table


class Problem(NamedTuple):
    """What an instance of one problem is: its payload fields, a builder of the
    typed objects the solvers take (their constructors are the payload's only
    field check), a seeded generator ``gen(rng, n, values, opts)``, and the
    generator options that generator reads (``gen`` records these)."""

    fields: tuple[str, ...]
    objects: Callable[[dict], tuple]
    gen: Callable[[random.Random, int, int, dict], dict]
    options: tuple[str, ...] = ("n", "values")


def _sequences(fields: tuple[str, ...], gen) -> Problem:
    def objects(p):
        seqs = tuple(Sequence(p[f]) for f in fields)
        if len({len(s) for s in seqs}) > 1:
            raise ValueError(f"{', '.join(fields)} must have equal lengths")
        return seqs

    return Problem(fields, objects, gen)


# 0/1 and unbounded knapsack take one input; the solver asks the question.
_KNAPSACK = Problem(
    ("items", "capacity"),
    lambda p: (KnapsackInstance(p["items"], p["capacity"]),),
    _gen_knapsack,
    ("n", "values", "t"),
)


def _tree(p) -> tuple:
    tree = WeightedTree(tuple(p["parent"]), tuple(p["weight"]))
    k = _check_int(p["k"], "k")
    if k > tree.n:
        raise ValueError(f"k must lie in 0..{tree.n}, got {k}")
    return tree, k


PROBLEMS: dict[str, Problem] = {
    "maxconv": _sequences(
        ("a", "b"), lambda rng, n, w, o: {"a": _seq(rng, n, w), "b": _seq(rng, n, w)}
    ),
    "upperbound": _sequences(("a", "b", "c"), _gen_bound_triple(upper=True)),
    "lowerbound": _sequences(("a", "b", "c"), _gen_bound_triple(upper=False)),
    "superadd": _sequences(("a",), _gen_superadd),
    "knapsack01": _KNAPSACK,
    "uknapsack": _KNAPSACK,
    "mcsp": _sequences(("a",), lambda rng, n, w, o: {"a": _seq(rng, n, w)}),
    "treesparsity": Problem(("parent", "weight", "k"), _tree, _gen_tree, ("n", "values", "k")),
    "necklace": Problem(
        ("x", "y", "circle_length"),
        lambda p: (NecklaceInstance(tuple(p["x"]), tuple(p["y"]), p["circle_length"]),),
        _gen_necklace,
        ("n", "circle"),
    ),
    "3sumconv": _sequences(("a", "b", "c"), _gen_3sumconv),
}


def _problem(tag) -> Problem:
    try:
        return PROBLEMS[tag]
    except (KeyError, TypeError):
        raise InstanceFormatError(f"unknown problem tag {tag!r}") from None


def gen_payload(problem: str, rng: random.Random, opts: dict) -> dict:
    """Seeded instance of size ``opts["n"]`` with values within ``opts["values"]``."""
    spec = _problem(problem)
    if opts["n"] < 1:
        raise InstanceFormatError("instance size n must be at least 1")
    return spec.gen(rng, opts["n"], opts["values"], opts)


# The payload fields that hold one integer; every other field is an array.
_SCALAR_FIELDS = ("capacity", "k", "circle_length")


def payload_objects(problem: str, payload: dict):
    """The typed objects the solvers take, built from ``payload``.  Building
    them is the payload's one check: a missing field, an array field that is
    not an array (a list, or a tuple from Python callers), or any value the
    constructors refuse raises InstanceFormatError."""
    spec = _problem(problem)
    for key in spec.fields:
        if key not in payload:
            raise InstanceFormatError(f"payload field {key!r} is missing")
        if key not in _SCALAR_FIELDS and not isinstance(payload[key], (list, tuple)):
            raise InstanceFormatError(f"bad {problem} payload: field {key!r} must be an array")
    try:
        return spec.objects(payload)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"bad {problem} payload: {exc}") from exc


def dump_instance(problem: str, payload: dict, meta: dict | None = None) -> str:
    payload_objects(problem, payload)
    fields = {key: payload[key] for key in PROBLEMS[problem].fields}
    doc = {"problem": problem, "payload": fields, "meta": meta or {}}
    try:
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    except TypeError as exc:
        raise InstanceFormatError(f"instance is not JSON-serialisable: {exc}") from exc


def parse_instance(text: str) -> dict:
    """The instance document in ``text``: valid JSON, a known problem tag, a
    payload object and a meta object.  The payload's fields are checked when
    ``payload_objects`` builds the solver objects."""
    try:
        doc = json.loads(text)
    # RecursionError: the decoder's nesting limit, about 1,000 levels deep.
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    # The decoder's plain ValueError: an integer past the int-to-str limit.
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise InstanceFormatError(f"integers may have at most {limit} digits") from exc
    if not isinstance(doc, dict) or "problem" not in doc or "payload" not in doc:
        raise InstanceFormatError("instance files need 'problem' and 'payload' fields")
    problem, payload = doc["problem"], doc["payload"]
    _problem(problem)
    if not isinstance(payload, dict):
        raise InstanceFormatError("payload must be an object")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise InstanceFormatError("meta must be an object")
    return {"problem": problem, "payload": payload, "meta": meta}
