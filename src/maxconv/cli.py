"""Command-line harness: instance generation, solving, cross-checking,
and benchmarking for the convolution problem family.

Every answer is printed as a JSON run report.  Exit codes: 0 on success,
1 on input errors, 2 when --check (or crosscheck) finds a disagreement
with the reference method.
"""

from __future__ import annotations

import argparse
import functools
import json
import platform
import random
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from .colorcoding import knapsack_rand
from .core import (
    KERNELS,
    check_lower_bound,
    check_upper_bound,
    is_superadditive,
    max_conv,
)
from .decision import max_conv_via_upperbound
from .oracles import (
    knapsack01_dp,
    mcsp_brute,
    necklace_linf_brute,
    three_sum_conv_brute,
    tree_sparsity_dp,
    unbounded_knapsack_dp,
)
from .reductions import (
    reduce_lowerbound_to_necklace,
    reduce_mcsp_to_maxconv,
    reduce_superadditivity_to_mcsp,
    reduce_superadditivity_to_unbounded,
    reduce_unbounded_to_01,
    reduce_upperbound_to_3sumconv,
    reduce_upperbound_to_superadditivity,
    tree_sparsity_via_maxconv,
)
from .serialize import (
    PROBLEMS,
    InstanceFormatError,
    dump_instance,
    gen_payload,
    parse_instance,
    payload_objects,
)

# ---------------------------------------------------------------------------
# solve methods: problem -> {method: solver(objects, opts) -> answer}, the
# reference method first.  Solvers look every reduction and oracle up in this
# module when they run, so a tracer can replace them after import.


def _decision(d) -> dict:
    return {"decision": bool(d), "witness": d.witness}


def _verdict(holds) -> dict:
    # A route through a reduction recovers the decision, not a witness.
    return {"decision": bool(holds), "witness": None}


def _profile(profile) -> dict:
    best = list(profile)
    return {"profile": best, "value_at_capacity": best[-1]}


def _sparsity(k: int, vector: list[int]) -> dict:
    return {"k": k, "value": vector[k], "vector": vector}


def _route(outcome, solve):
    """Solve a reduction's target instances and read the source answer back."""
    return outcome.interpret([solve(inst) for inst in outcome.instances])


def _superadd_via_uknapsack(seq) -> bool:
    return bool(_route(reduce_superadditivity_to_unbounded(seq), unbounded_knapsack_dp))


def _conv(name: str):
    # The method of the kernel registered as ``name``.  The problem's
    # canonical output has the operands' common length n; the kernels
    # themselves can produce the full 2n-1 product.  The kernel goes by
    # name, so a KERNELS entry replaced after import is the one run.
    return lambda o, p: {
        "sequence": max_conv(o[0], o[1], limit=len(o[0]) - 1, kernel=name).tolist()
    }


METHODS = {
    # One method per registered kernel, then the oracle route.
    "maxconv": {
        **{name: _conv(name) for name in KERNELS},
        "via-upperbound": lambda o, p: {"sequence": max_conv_via_upperbound(*o).tolist()},
    },
    "upperbound": {
        "direct": lambda o, p: _decision(check_upper_bound(*o)),
        "via-superadd": lambda o, p: _verdict(
            _route(reduce_upperbound_to_superadditivity(*o), is_superadditive)
        ),
        "via-3sumconv": lambda o, p: _verdict(
            _route(reduce_upperbound_to_3sumconv(*o), lambda i: three_sum_conv_brute(*i))
        ),
        "via-uknapsack": lambda o, p: _verdict(
            _route(reduce_upperbound_to_superadditivity(*o), _superadd_via_uknapsack)
        ),
    },
    "lowerbound": {
        "direct": lambda o, p: _decision(check_lower_bound(*o)),
        "via-necklace": lambda o, p: _verdict(
            _route(reduce_lowerbound_to_necklace(*o), necklace_linf_brute)
        ),
    },
    "superadd": {
        "direct": lambda o, p: _decision(is_superadditive(*o)),
        "via-uknapsack": lambda o, p: _verdict(_superadd_via_uknapsack(*o)),
        "via-mcsp": lambda o, p: _verdict(_route(reduce_superadditivity_to_mcsp(*o), mcsp_brute)),
    },
    "knapsack01": {
        "dp": lambda o, p: _profile(knapsack01_dp(*o)),
        "rand": lambda o, p: _profile(knapsack_rand(o[0], p["delta"], p["seed"])),
    },
    "uknapsack": {
        "dp": lambda o, p: _profile(unbounded_knapsack_dp(*o)),
        # The constructed 0/1 profile matches the source profile at every
        # capacity, so the whole profile is reported, not just the optimum.
        "via-01": lambda o, p: _profile(knapsack01_dp(*reduce_unbounded_to_01(*o).instances)),
    },
    "mcsp": {
        "brute": lambda o, p: {"sums": mcsp_brute(*o)},
        "via-maxconv": lambda o, p: {
            "sums": list(_route(reduce_mcsp_to_maxconv(*o), lambda i: max_conv(*i)))
        },
    },
    "treesparsity": {
        "dp": lambda o, p: _sparsity(o[1], tree_sparsity_dp(o[0])),
        "via-maxconv": lambda o, p: _sparsity(o[1], tree_sparsity_via_maxconv(o[0])),
    },
    "necklace": {
        "brute": lambda o, p: {"doubled_objective": necklace_linf_brute(*o)},
    },
    "3sumconv": {
        "brute": lambda o, p: _decision(three_sum_conv_brute(*o)),
    },
}

REFERENCE = {problem: next(iter(methods)) for problem, methods in METHODS.items()}

RANDOMIZED = {("knapsack01", "rand")}


def _compare(problem: str, method: str, ans: dict, ref: dict) -> tuple[bool, bool]:
    """Return (agrees, hard_violation) for an answer vs the reference.  Witnesses
    are not compared: methods may return different, equally valid ones."""
    if (problem, method) in RANDOMIZED:
        sound = all(x <= y for x, y in zip(ans["profile"], ref["profile"]))
        return ans["value_at_capacity"] == ref["value_at_capacity"], not sound
    same = {**ans, "witness": None} == {**ref, "witness": None}
    return same, not same


# ---------------------------------------------------------------------------
# subcommands


def _method(problem: str, name: str):
    methods = METHODS[problem]
    if name not in methods:
        raise InstanceFormatError(
            f"method {name!r} not registered for {problem}; have {sorted(methods)}"
        )
    return methods[name]


def _run_opts(args, seed: int) -> dict:
    return {"delta": args.delta, "seed": seed}


def _cmd_gen(args) -> int:
    opts = {"n": args.n, "values": args.values, "t": args.t, "k": args.k, "circle": args.circle}
    payload = gen_payload(args.problem, random.Random(args.seed), opts)
    used = {k: opts[k] for k in PROBLEMS[args.problem].options if opts[k] is not None}
    meta = {"seed": args.seed, "generator": used}
    text = dump_instance(args.problem, payload, meta)
    if args.out and args.out != "-":
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_solve(args) -> int:
    text = sys.stdin.read() if args.input == "-" else Path(args.input).read_text()
    doc = parse_instance(text)
    problem = doc["problem"]
    solve = _method(problem, args.method)
    objs = payload_objects(problem, doc["payload"])
    opts = _run_opts(args, args.seed)
    start = time.perf_counter()
    answer = solve(objs, opts)
    elapsed = time.perf_counter() - start
    report = {
        "problem": problem,
        "method": args.method,
        "answer": answer,
        "wall_time_s": round(elapsed, 6),
        "oracle_agreement": None,
    }
    code = 0
    if args.check:
        ref_name = REFERENCE[problem]
        ref = METHODS[problem][ref_name](objs, opts)
        agrees, hard = _compare(problem, args.method, answer, ref)
        report["oracle_agreement"] = agrees
        report["reference_method"] = ref_name
        code = 2 if hard else 0
    # Answers may pass the int-to-str digit limit, which guards input parsing.
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(report, indent=2 if args.json else None, sort_keys=True)
    finally:
        sys.set_int_max_str_digits(digits)
    print(text)
    return code


def _cmd_crosscheck(args) -> int:
    rng = random.Random(args.seed)
    methods = METHODS[args.problem]
    ref_name = REFERENCE[args.problem]
    stats = {
        name: {"disagreements": 0, "mismatches": 0, "soundness_violations": 0}
        for name in methods
        if name != ref_name
    }
    for _ in range(args.trials):
        opts = {"n": rng.randint(1, args.n), "values": args.values, "t": args.t}
        objs = payload_objects(args.problem, gen_payload(args.problem, rng, opts))
        run_opts = _run_opts(args, rng.randrange(2**32))
        ref = methods[ref_name](objs, run_opts)
        for name, entry in stats.items():
            agrees, hard = _compare(args.problem, name, methods[name](objs, run_opts), ref)
            if (args.problem, name) in RANDOMIZED:
                entry["mismatches"] += not agrees
                entry["soundness_violations"] += hard
            else:
                entry["disagreements"] += not agrees
    for name, entry in stats.items():
        if (args.problem, name) in RANDOMIZED:
            entry["empirical_failure_rate"] = entry["mismatches"] / args.trials
    summary = {
        "problem": args.problem,
        "trials": args.trials,
        "max_n": args.n,
        "reference": ref_name,
        "methods": stats,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    hard_fail = any(e["disagreements"] or e["soundness_violations"] for e in stats.values())
    return 2 if hard_fail else 0


def _cmd_bench(args) -> int:
    solve = _method(args.problem, args.method)
    print(f"# platform: {platform.platform()}")
    print(f"# python: {platform.python_version()}  numpy: {np.__version__}")
    print("# repeats: 5 (median reported)")
    print("problem,method,size,median_seconds")
    rng = random.Random(args.seed)
    run_opts = _run_opts(args, args.seed)
    for size in args.sizes:
        payload = gen_payload(args.problem, rng, {"n": size, "values": args.values})
        objs = payload_objects(args.problem, payload)
        times = []
        for _ in range(5):
            start = time.perf_counter()
            solve(objs, run_opts)
            times.append(time.perf_counter() - start)
        print(f"{args.problem},{args.method},{size},{statistics.median(times):.6f}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as every other input
    error does: exit code 2 means a disagreement.  Subparsers share the
    class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """An argparse type: an int of at least ``low``."""

    def parse(text: str) -> int:
        if (v := int(text)) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {v}")
        return v

    parse.__name__ = "int"  # argparse's message for a non-integer: "invalid int value"
    return parse


def _sizes(text: str) -> list[int]:
    """An argparse type: a comma-separated ascending list of ints, each at least 1."""
    try:
        sizes = [int(s) for s in text.split(",") if s]
    except ValueError:
        sizes = []
    if not sizes or sizes != sorted(sizes) or sizes[0] < 1:
        raise argparse.ArgumentTypeError(
            f"must be a comma-separated ascending list of ints of at least 1, got {text!r}"
        )
    return sizes


def _solver_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after."""
    parser = _Parser(
        prog="maxconv",
        description="Solvers, reductions, and benchmarks for the max-plus convolution family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a seeded instance file")
    p_gen.set_defaults(handler=_cmd_gen)
    p_gen.add_argument("--problem", required=True, choices=PROBLEMS)
    p_gen.add_argument("--n", type=int, required=True, help="instance size")
    p_gen.add_argument("--values", type=_int_at_least(0), default=100, help="value magnitude bound")
    p_gen.add_argument("--t", type=int, default=None, help="knapsack capacity")
    p_gen.add_argument("--k", type=int, default=None, help="tree sparsity size")
    p_gen.add_argument("--circle", type=int, default=None, help="necklace circumference")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default="-", help="output path ('-' for stdout)")

    p_solve = sub.add_parser("solve", help="run one method on an instance file")
    p_solve.set_defaults(handler=_cmd_solve)
    p_solve.add_argument("--input", required=True, help="instance path ('-' for stdin)")
    p_solve.add_argument("--method", required=True)
    p_solve.add_argument("--check", action="store_true", help="cross-check against the reference method")
    _solver_options(p_solve)
    p_solve.add_argument("--json", action="store_true", help="pretty-print the run report")

    p_cross = sub.add_parser("crosscheck", help="run every method on seeded random instances")
    p_cross.set_defaults(handler=_cmd_crosscheck)
    p_cross.add_argument("--problem", required=True, choices=PROBLEMS)
    p_cross.add_argument("--trials", type=_int_at_least(1), default=100)
    p_cross.add_argument("--n", type=_int_at_least(1), default=16, help="maximum instance size")
    p_cross.add_argument("--values", type=_int_at_least(0), default=32)
    p_cross.add_argument("--t", type=int, default=None)
    _solver_options(p_cross)

    p_bench = sub.add_parser("bench", help="median-of-5 timings over a size sweep (CSV)")
    p_bench.set_defaults(handler=_cmd_bench)
    p_bench.add_argument("--problem", required=True, choices=PROBLEMS)
    p_bench.add_argument("--method", required=True)
    p_bench.add_argument("--sizes", type=_sizes, required=True, help="comma-separated ascending sizes")
    p_bench.add_argument("--values", type=_int_at_least(0), default=100)
    _solver_options(p_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    # OverflowError: a capacity past the index range (a list of t + 1 entries).
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # A capacity within the index range whose t + 1 entries do not fit.
    except MemoryError:
        print("error: memory ran out: the instance is too large to solve", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
