"""Randomised 0/1-knapsack solver built from bounded max-plus joins.

Items are split into weight layers so that layer i can contribute at most
2^i items to any feasible packing.  Within a layer, a random partition
spreads any small solution across parts with constant probability, a few
repetitions boost that to 1 - delta, and part profiles (choose at most one
item) are folded together.  Every operand of every join here is a
non-decreasing profile, so each join is one fold (``core._fold``, which
the default kernel also runs on its monotone operands): the maximum of a
few shifted copies of one profile, one per jump of the other, O(t) numpy
work per jump instead of a quadratic kernel call.  A part join folds
the part profile's jumps into the trial's profile; the layer merges and
the final accumulation (``_merge``) fold the jumps of whichever profile has
fewer.  No join calls a convolution kernel.  Trial profiles are int64
arrays when the positive item values sum to at most 2^63 - 1 and Python
ints otherwise, so every profile is exact at every magnitude.  Error is
one-sided: every profile entry produced anywhere is achievable by a real
subset of items, so results never exceed the exact optimum.  For the same
reason a trial that puts every item in a part of its own is final: its
profile is the exact optimum, so color coding stops there and the trial
count is an upper bound.

Randomness is fully reproducible: a single integer seed feeds a splittable
numpy SeedSequence, one child per layer / trial / partition draw, and all
merges happen in a fixed order.
"""

from __future__ import annotations

import math
from typing import Iterable, Union

import numpy as np

from .core import WORD_MAX, _fold
from .oracles import KnapsackInstance, ValueProfile, _check_int, _check_items

SeedLike = Union[int, np.random.SeedSequence]


def _check_delta(delta, upper: float, parts: int = 1) -> float:
    """The share delta / parts of a delta that must be a number (not a bool)
    in (0, upper]; a share that rounds to 0 makes delta too small."""
    if not isinstance(delta, (int, float)) or isinstance(delta, bool):
        raise ValueError("delta must be a number")
    if not 0 < delta <= upper:
        raise ValueError(f"delta must lie in (0, {upper}]")
    if delta / parts == 0:
        raise ValueError(f"delta {delta!r} is too small: split {parts} ways it rounds to 0")
    return delta / parts


def _seedseq(rng: SeedLike) -> np.random.SeedSequence:
    if isinstance(rng, np.random.SeedSequence):
        return rng
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        return np.random.SeedSequence(int(rng))
    raise TypeError("rng must be an int seed or a numpy SeedSequence")


def _part_steps(part: list[tuple[int, int]], limit: int) -> list[tuple[int, int]]:
    """Jumps (w, value) of the part profile, in increasing w: (0, 0), then
    the items that fit the limit and are worth more than every lighter or
    equally heavy item listed before them."""
    steps = [(0, 0)]
    run = 0
    for w, v in sorted(part, key=lambda item: (item[0], -item[1])):
        if w > limit:
            break
        if v > run:
            steps.append((w, v))
            run = v
    return steps


def _join_part(cur: np.ndarray, part: list[tuple[int, int]]) -> np.ndarray:
    """(max,+) join of a non-decreasing profile with the part profile,
    truncated at len(cur) - 1, in cur's dtype (see _profile_dtype)."""
    limit = len(cur) - 1
    return _fold(cur, _part_steps(part, limit), limit)


def _merge(p: np.ndarray, q: np.ndarray, limit: int) -> np.ndarray:
    """(max,+)-convolution of two non-decreasing profiles of one dtype (see
    _profile_dtype), truncated at ``limit <= len(p) + len(q) - 2``: the
    jumps of the one with fewer up to ``limit`` folded into the other."""
    assert limit <= len(p) + len(q) - 2
    p, q = p[: limit + 1], q[: limit + 1]
    jp, jq = (np.flatnonzero(y[1:] != y[:-1]) + 1 for y in (p, q))
    if len(jp) < len(jq):
        p, q, jq = q, p, jp
    at = [0, *jq.tolist()]
    return _fold(p, list(zip(at, q[at].tolist())), limit)


def _profile_dtype(items: Iterable[tuple[int, int]]):
    """int64 when the positive item values sum to at most 2^63 - 1, else
    object (Python ints).  Every profile entry is 0 or the value of a set
    of distinct items, so that sum bounds every entry and every join sum:
    an int64 profile never wraps, and larger ones stay exact."""
    return np.int64 if sum(v for _, v in items if v > 0) <= WORD_MAX else object


def color_coding(
    items: Iterable[tuple[int, int]],
    t: int,
    k: int,
    delta: float,
    rng: SeedLike,
) -> ValueProfile:
    """Profile covering every solution of at most k items, with probability
    at least 1 - delta per entry.

    Each trial partitions the items into k^2 parts uniformly at random and
    joins the at-most-one-item part profiles (step-profile joins, no kernel
    call); a solution of <= k items lands in pairwise distinct parts with
    probability >= 1/4, so repeating ceil(log_{4/3}(1/delta)) trials and
    taking the pointwise maximum gives the bound.  Output entries are always
    achievable (one-sided error).

    That trial count is an upper bound: a trial that puts every item in a
    part of its own has computed the exact 0/1 optimum truncated at t, which
    no trial can exceed, so the loop stops there.  The profile equals the
    one every trial would give.  Trial i draws from the i-th child spawned
    from ``rng``, one spawn per trial run, so a SeedSequence passed in ends
    with one spawned child per trial run.
    """
    zs = _check_items(items)
    t = _check_int(t, "capacity")
    k = _check_int(k, "solution size bound", minimum=1)
    _check_delta(delta, 1)
    # -log(delta), not log(1 / delta): 1 / delta overflows for subnormal delta.
    trials = max(1, math.ceil(-math.log(delta) / math.log(4 / 3)))
    parts_total = k * k
    root = _seedseq(rng)
    dtype = _profile_dtype(zs)
    best = np.zeros(t + 1, dtype=dtype)
    for _ in range(trials):
        (trial_seq,) = root.spawn(1)
        gen = np.random.Generator(np.random.PCG64(trial_seq))
        buckets: dict[int, list[tuple[int, int]]] = {}
        for item, part in zip(zs, gen.integers(0, parts_total, size=len(zs))):
            buckets.setdefault(int(part), []).append(item)
        cur = np.zeros(t + 1, dtype=dtype)
        for part_idx in sorted(buckets):
            cur = _join_part(cur, buckets[part_idx])
        np.maximum(best, cur, out=best)
        if len(buckets) == len(zs):
            break
    return ValueProfile(tuple(best.tolist()))


def color_coding_layer(
    items: Iterable[tuple[int, int]],
    t: int,
    l: int,
    delta: float,
    rng: SeedLike,
) -> ValueProfile:
    """Layer solver: items weigh at most 2t/l each and at most l of them fit
    in any packing (enforced; violating items are a caller bug).

    Small layers fall back to plain color coding.  Otherwise the layer is
    split into m parts (l / log2(l/delta), rounded up to a power of two),
    each part solved for gamma = ceil(6 log2(l/delta)) items at capacity
    2*gamma*t/l, and the parts merged pairwise with the convolution
    truncated at 2^h * 2*gamma*t/l per level (rounded up, capped at t).
    """
    zs = _check_items(items)
    t = _check_int(t, "capacity")
    l = _check_int(l, "layer budget", minimum=1)
    _check_delta(delta, 0.25)
    for w, _ in zs:
        if w * l > 2 * t:
            raise ValueError(f"item weight {w} exceeds the layer bound 2t/l")
    # The analysis needs "at most l items of Z in any packing": true when
    # every weight exceeds t/(l+1), or trivially when |Z| <= l.
    if len(zs) > l and any(w * (l + 1) <= t for w, _ in zs):
        raise ValueError("light items would let more than l items fit the layer")
    root = _seedseq(rng)
    log_ld = math.log2(l) - math.log2(delta)
    if l < log_ld:
        return color_coding(zs, t, l, delta, root)
    share = _check_delta(delta, 0.25, l)
    m = 1 << math.ceil(math.log2(l / log_ld))
    gamma = math.ceil(6 * log_ld)
    cap = min(t, math.ceil(2 * gamma * t / l))
    dtype = _profile_dtype(zs)
    seqs = root.spawn(m + 1)
    gen = np.random.Generator(np.random.PCG64(seqs[0]))
    parts: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for item, part in zip(zs, gen.integers(0, m, size=len(zs))):
        parts[int(part)].append(item)
    profs = [
        np.array(color_coding(parts[j], cap, gamma, share, seqs[j + 1]).best, dtype=dtype)
        for j in range(m)
    ]
    level = 1
    while len(profs) > 1:
        cap = min(t, math.ceil((2**level) * 2 * gamma * t / l))
        profs = [_merge(profs[2 * j], profs[2 * j + 1], cap) for j in range(len(profs) // 2)]
        level += 1
    out = profs[0]
    assert len(out) == t + 1
    return ValueProfile(tuple(out.tolist()))


def knapsack_rand(inst: KnapsackInstance, delta: float, rng: SeedLike) -> ValueProfile:
    """Randomised 0/1-knapsack profile of ``inst`` over capacities 0..t.

    Items are routed to layers (t/2^i, t/2^(i-1)], the last layer taking
    everything at or below t/2^(layers-1): item (w, v) goes to layer
    min(layers, (t // w).bit_length()), or to the last one when w = 0.
    Each layer runs the layer solver with budget 2^i and failure share
    delta/layers, and layer profiles are joined at capacity t.  Never
    exceeds the exact optimum; each entry matches it with probability at
    least 1 - delta.  The instance's constructor has checked the items and
    dropped those heavier than t.
    """
    t, zs = inst.capacity, inst.items
    layers = max(1, (len(zs) - 1).bit_length())  # ceil(log2 |zs|)
    share = _check_delta(delta, 0.25, layers)
    root = _seedseq(rng)
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(layers + 1)]
    for w, v in zs:
        buckets[min(layers, (t // w).bit_length()) if w else layers].append((w, v))
    seqs = root.spawn(layers)
    dtype = _profile_dtype(zs)
    acc = np.zeros(t + 1, dtype=dtype)
    for i in range(1, layers + 1):
        if not buckets[i]:
            continue
        prof = color_coding_layer(buckets[i], t, 1 << i, share, seqs[i - 1])
        acc = _merge(acc, np.array(prof.best, dtype=dtype), t)
    return ValueProfile(tuple(acc.tolist()))
