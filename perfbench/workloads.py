"""Seeded instance generators and the four workload definitions.

Every instance is a pure function of (workload, seed, index): each one gets
its own ``random.Random`` seeded with a string, so pools can be generated in
any order and the same seed always yields byte-identical instance files.
The files use the canonical layout of ``docs/format.md`` (sorted keys,
two-space indent, trailing newline) and are written by this module, not by
the package under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import reference
import tracing

WORD_MAX = 2**63 - 1
# The package accepts a sequence when n * max|value| * HEADROOM fits the word.
HEADROOM = 400
# Magnitude of ordinary (non-headroom) instances.
W = 10**6


def headroom_bound(n: int) -> int:
    """Largest magnitude the documented input contract accepts at length n."""
    return WORD_MAX // (HEADROOM * n)


@dataclass(frozen=True)
class Instance:
    """One generated solve: the file body plus how the CLI is asked to run it."""

    problem: str
    method: str
    payload: dict
    props: dict
    extra_args: tuple = ()

    def text(self) -> str:
        doc = {"problem": self.problem, "payload": self.payload, "meta": self.props}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pool: int  # instances 0..pool-1, which the timed loop solves in passes
    trace: tuple  # instance indices solved by the traced run
    own: tuple  # per-layer counts of the layer this workload is for; their sum must not be 0
    make: object = field(repr=False)  # (rng, seed, index) -> Instance


# ---------------------------------------------------------------------------
# sequence shapes


def uniform(rng: random.Random, n: int, w: int) -> list[int]:
    return [rng.randint(-w, w) for _ in range(n)]


def profile(rng: random.Random, n: int, w: int) -> list[int]:
    """Non-decreasing from 0, shaped like a knapsack capacity profile:
    flat runs broken by jumps, ending at most at w."""
    step = max(1, 2 * w // n)
    out = [0]
    for _ in range(n - 1):
        out.append(out[-1] + (rng.randint(1, step) if rng.random() < 0.5 else 0))
    return out


SHAPES = {"uniform": uniform, "profile": profile}


# ---------------------------------------------------------------------------
# per-problem payloads; ``w`` is the magnitude bound, ``yes`` the planted verdict


def _bound_triple(rng, n, w, yes: bool, upper: bool) -> dict:
    a = uniform(rng, n, w // 2)
    b = uniform(rng, n, w // 2)
    conv = reference.maxconv(a, b, n - 1).tolist()
    sign = 1 if upper else -1
    c = [v + sign * rng.randint(0, 2) for v in conv]
    if not yes:
        idx = rng.randrange(n)
        c[idx] = conv[idx] - sign * (1 + rng.randint(0, w // 4))
    return {"a": a, "b": b, "c": [max(-w, min(w, v)) for v in c]}


def _three_sum(rng, n, w, yes: bool) -> dict:
    a, b, c = uniform(rng, n, w // 2), uniform(rng, n, w // 2), uniform(rng, n, w)
    if yes:
        i = rng.randrange(n)
        j = rng.randrange(n - i)
        c[i + j] = a[i] + b[j]
    return {"a": a, "b": b, "c": c}


def _superadd(rng, n, w, yes: bool) -> dict:
    # Convex with a[0] = 0 is superadditive; lowering one entry past its
    # slack breaks that.
    step = max(1, w // n)
    incs = sorted(rng.randint(0, step) for _ in range(n - 1))
    a = [0]
    for inc in incs:
        a.append(a[-1] + inc)
    if not yes and n > 2:
        k = rng.randrange(2, n)
        a[k] = a[1] + a[k - 1] - 1 - rng.randint(0, step)
    return {"a": a}


def _knapsack(rng, n, w, t: int, max_weight: int) -> dict:
    # Weights are uniform over [1, max_weight] but stratified (one per n-th
    # of the range, then shuffled), so every instance has the same count of
    # items per weight layer and the solver's cost varies little by seed.
    weights = [1 + (k * max_weight + rng.randrange(max_weight)) // n for k in range(n)]
    rng.shuffle(weights)
    items = [[wt, rng.randint(0, w)] for wt in weights]
    return {"items": items, "capacity": t}


def _tree(rng, n, w) -> dict:
    parent = [-1] + [rng.randint(0, i - 1) for i in range(1, n)]
    weight = [rng.randint(0, w) for _ in range(n)]
    return {"parent": parent, "weight": weight, "k": rng.randint(0, n)}


def _necklace(rng, n, w) -> dict:
    return {
        "x": sorted(rng.randint(0, w) for _ in range(n)),
        "y": sorted(rng.randint(0, w) for _ in range(n)),
        "circle_length": w,
    }


def payload(problem: str, rng: random.Random, n: int, w: int, yes: bool) -> dict:
    if problem == "maxconv":
        return {"a": uniform(rng, n, w), "b": uniform(rng, n, w)}
    if problem in ("upperbound", "lowerbound"):
        return _bound_triple(rng, n, w, yes, upper=problem == "upperbound")
    if problem == "3sumconv":
        return _three_sum(rng, n, w, yes)
    if problem == "superadd":
        return _superadd(rng, n, w, yes)
    if problem == "mcsp":
        return {"a": uniform(rng, n, w)}
    if problem in ("knapsack01", "uknapsack"):
        return _knapsack(rng, n, w, 2 * n, 2 * n)
    if problem == "treesparsity":
        return _tree(rng, n, w)
    if problem == "necklace":
        return _necklace(rng, n, w)
    raise ValueError(f"no generator for {problem!r}")


# ---------------------------------------------------------------------------
# workloads


CONV_N = 16384
DECISION_N = 128
DECISION_W = 1000  # sets the number of rounds: ceil(log2(4 * W)) + 1
RAND_SIZES = {"uniform": (40, 400), "light": (22, 220)}  # kind -> (items, capacity)

# Every registered (problem, method) pair except knapsack01/rand, in the
# order the package registers them, with the size that puts one solve at
# roughly 10-150 ms on a 2-vCPU x86-64 host.
ROUTES = (
    ("maxconv", "naive", 2048),
    ("maxconv", "python", 512),
    ("maxconv", "via-upperbound", 24),
    ("upperbound", "direct", 2048),
    ("upperbound", "via-superadd", 512),
    ("upperbound", "via-3sumconv", 96),
    ("upperbound", "via-uknapsack", 96),
    ("lowerbound", "direct", 2048),
    ("lowerbound", "via-necklace", 192),
    ("superadd", "direct", 2048),
    ("superadd", "via-uknapsack", 256),
    ("superadd", "via-mcsp", 512),
    ("knapsack01", "dp", 256),
    ("uknapsack", "dp", 256),
    ("uknapsack", "via-01", 192),
    ("mcsp", "brute", 512),
    ("mcsp", "via-maxconv", 2048),
    ("treesparsity", "dp", 384),
    ("treesparsity", "via-maxconv", 768),
    ("necklace", "brute", 384),
    ("3sumconv", "brute", 512),
)


def _conv_pair(rng, index: int, n: int, w: int) -> tuple[dict, dict]:
    # Operand shapes cycle (u,u), (p,u), (u,p), (p,p): half of all operands
    # are uniform, half are profiles, and mixed pairs occur.
    ka = ("uniform", "profile")[index % 2]
    kb = ("uniform", "profile")[(index // 2) % 2]
    pay = {"a": SHAPES[ka](rng, n, w), "b": SHAPES[kb](rng, n, w)}
    return pay, {"a": ka, "b": kb, "n": n, "w": w}


def make_conv_large(rng, seed, index) -> Instance:
    pay, props = _conv_pair(rng, index, CONV_N, W)
    return Instance("maxconv", "naive", pay, props)


def make_decision_route(rng, seed, index) -> Instance:
    pay, props = _conv_pair(rng, index, DECISION_N, DECISION_W)
    return Instance("maxconv", "via-upperbound", pay, props)


def make_knapsack_rand(rng, seed, index) -> Instance:
    # Alternating uniform weights in [1, t] and light weights in [1, t/16];
    # light items land in deeper layers and cost more joins, so their
    # instances are smaller to keep both kinds near the same solve time.
    kind = ("uniform", "light")[index % 2]
    n, t = RAND_SIZES[kind]
    max_weight = t if kind == "uniform" else t // 16
    pay = _knapsack(rng, n, 1000, t, max_weight)
    solve_seed = rng.randrange(2**31)
    props = {"weights": kind, "n": n, "t": t, "solve_seed": solve_seed}
    return Instance("knapsack01", "rand", pay, props, ("--seed", str(solve_seed)))


ROUTES_POOL = 2 * len(ROUTES)


def make_routes_mix(rng, seed, index) -> Instance:
    # The pool is two rotations over the routes, one with planted YES
    # verdicts and one with NO, all at ordinary magnitudes: several routes
    # refuse input at the headroom bound, and a refusal in the timed loop
    # would make its failure count depend on how many passes fit the run.
    # Indices past the pool form the traced set: every route once ordinary
    # and once at the bound, where the refusals are counted.
    if index < ROUTES_POOL:
        problem, method, n = ROUTES[index % len(ROUTES)]
        at_bound = False
        yes = index < len(ROUTES)
    else:
        problem, method, n = ROUTES[(index - ROUTES_POOL) // 2]
        at_bound = (index - ROUTES_POOL) % 2 == 1
        yes = True
    w = headroom_bound(n) if at_bound else W
    pay = payload(problem, rng, n, w, yes)
    props = {"n": n, "w": w, "headroom": at_bound, "planted_yes": yes}
    return Instance(problem, method, pay, props)


# Every instance of a pool is solved once per pass, and a timed run stops
# only after a whole pass; pools are sized so that a pass takes a few
# seconds and a run holds several passes.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "conv-large",
            "dense maxconv/naive at n=16384 on uniform and profile operands: the numpy row loop does nearly all the work",
            pool=8,
            trace=tuple(range(8)),
            own=("core.kernel.cells",),
            make=make_conv_large,
        ),
        Workload(
            "decision-route",
            "maxconv/via-upperbound at n=128: re-validation and tiny kernel calls dominate, the dense loop never runs",
            pool=8,
            trace=(0, 1, 2, 3),
            own=("decision.rounds",),
            make=make_decision_route,
        ),
        Workload(
            "knapsack-rand",
            "knapsack01/rand on uniform and light item weights: truncated profile joins do most of the work",
            pool=16,
            trace=(0, 1, 2, 3),
            own=("colorcoding.trial_calls",),
            make=make_knapsack_rand,
        ),
        Workload(
            "routes-mix",
            "rotation over every other registered route (traced run adds each at the headroom bound): reductions, oracles, cli and serialize",
            pool=ROUTES_POOL,
            trace=tuple(range(ROUTES_POOL, 2 * ROUTES_POOL)),
            own=tuple(f"reductions.{fn}.calls" for fn in tracing.REDUCTIONS),
            make=make_routes_mix,
        ),
    )
}


def instance(workload: str, seed: int, index: int) -> Instance:
    wl = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}/{index}")
    return wl.make(rng, seed, index)
