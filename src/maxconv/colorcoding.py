"""Randomised 0/1-knapsack solver built from bounded max-plus joins.

Items are split into weight layers so that layer i can contribute at most
2^i items to any feasible packing.  Within a layer, a random partition
spreads any small solution across parts with constant probability, a few
repetitions boost that to 1 - delta, and part profiles (choose at most one
item) are folded together.  A part profile is a step function and the
profile it joins is non-decreasing, so that join is the maximum of a few
shifted copies, one per jump of the step function: O(t) numpy work per
jump instead of a quadratic kernel call.  Layer merges and the final
accumulation are truncated max-plus convolutions on the default kernel;
both of their operands are non-decreasing profiles, usually with few
distinct values, so the kernel folds them on its run path, one shifted
copy per run of equal values, instead of enumerating every cell.  Trial
profiles are int64 arrays when the positive item values sum to at most
2^63 - 1 and Python ints otherwise, so every profile is exact at every
magnitude.  Error is one-sided: every profile entry produced anywhere is
achievable by a real subset of items, so results never exceed the exact
optimum.  For the same reason a trial that puts every item in a part of its
own is final: its profile is the exact optimum, so color coding stops there
and the trial count is an upper bound.

Randomness is fully reproducible: a single integer seed feeds a splittable
numpy SeedSequence, one child per layer / trial / partition draw, and all
merges happen in a fixed order.
"""

from __future__ import annotations

import math
from typing import Iterable, Union

import numpy as np

from .core import WORD_MAX, maxconv_values
from .oracles import ValueProfile, _check_int

SeedLike = Union[int, np.random.SeedSequence]


def _validate_delta(delta) -> None:
    if not isinstance(delta, (int, float)) or isinstance(delta, bool):
        raise ValueError("delta must be a number")
    if not 0 < delta <= 0.25:
        raise ValueError("delta must lie in (0, 1/4]")


def _seedseq(rng: SeedLike) -> np.random.SeedSequence:
    if isinstance(rng, np.random.SeedSequence):
        return rng
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        return np.random.SeedSequence(int(rng))
    raise TypeError("rng must be an int seed or a numpy SeedSequence")


def _clean_items(items: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    out = []
    for item in items:
        w, v = item
        _check_int(w, "item weight")
        _check_int(v, "item value")
        out.append((int(w), int(v)))
    return out


def _part_best(part: list[tuple[int, int]], limit: int) -> list[int]:
    best = [0] * (limit + 1)
    for w, v in part:
        if w <= limit and v > best[w]:
            best[w] = v
    run = 0
    for i in range(limit + 1):
        if best[i] > run:
            run = best[i]
        else:
            best[i] = run
    return best


def _part_steps(part: list[tuple[int, int]], limit: int) -> list[tuple[int, int]]:
    """Jumps (w, value) of the part profile, in increasing w: the items that
    fit the limit and are worth more than every lighter or equally heavy
    item listed before them."""
    steps = []
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
    truncated at len(cur) - 1, in cur's dtype (see _profile_dtype).

    Because cur is non-decreasing, the best split inside a constant stretch
    of the part profile takes its lightest point, so the join is cur
    maximised with cur shifted right by w plus the value, for each jump.
    """
    limit = len(cur) - 1
    steps = _part_steps(part, limit)
    out = cur.copy()
    buf = np.empty_like(cur)
    for w, v in steps:
        shifted = np.add(cur[: limit + 1 - w], v, out=buf[: limit + 1 - w])
        np.maximum(out[w:], shifted, out=out[w:])
    return out


def _profile_dtype(items: list[tuple[int, int]]):
    """int64 when the positive item values sum to at most 2^63 - 1, else
    object (Python ints).  Every profile entry is 0 or the value of a set
    of distinct items, so that sum bounds every entry and every join sum:
    an int64 profile never wraps, and larger ones stay exact."""
    return np.int64 if sum(v for _, v in items if v > 0) <= WORD_MAX else object


def part_profile(part: Iterable[tuple[int, int]], limit: int) -> ValueProfile:
    """Profile of choosing at most one item from the part."""
    _check_int(limit, "limit")
    return ValueProfile(tuple(_part_best(_clean_items(part), limit)))


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
    zs = _clean_items(items)
    _check_int(t, "capacity")
    _check_int(k, "solution size bound", minimum=1)
    if not isinstance(delta, (int, float)) or not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    trials = max(1, math.ceil(math.log(1 / delta) / math.log(4 / 3)))
    parts_total = k * k
    root = _seedseq(rng)
    dtype = _profile_dtype(zs)
    best = np.zeros(t + 1, dtype=dtype)
    for _ in range(trials):
        (trial_seq,) = root.spawn(1)
        gen = np.random.Generator(np.random.PCG64(trial_seq))
        buckets: dict[int, list[tuple[int, int]]] = {}
        if zs:
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
    zs = _clean_items(items)
    _check_int(t, "capacity")
    _check_int(l, "layer budget", minimum=1)
    _validate_delta(delta)
    for w, _ in zs:
        if w * l > 2 * t:
            raise ValueError(f"item weight {w} exceeds the layer bound 2t/l")
    # The analysis needs "at most l items of Z in any packing": true when
    # every weight exceeds t/(l+1), or trivially when |Z| <= l.
    if len(zs) > l and any(w * (l + 1) <= t for w, _ in zs):
        raise ValueError("light items would let more than l items fit the layer")
    root = _seedseq(rng)
    log_ld = math.log2(l / delta)
    if l < log_ld:
        return color_coding(zs, t, l, delta, root)
    m = 1 << max(0, math.ceil(math.log2(l / log_ld)))
    gamma = max(1, math.ceil(6 * log_ld))
    cap = min(t, math.ceil(2 * gamma * t / l))
    seqs = root.spawn(m + 1)
    gen = np.random.Generator(np.random.PCG64(seqs[0]))
    parts: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    if zs:
        for item, part in zip(zs, gen.integers(0, m, size=len(zs))):
            parts[int(part)].append(item)
    profs = [
        list(color_coding(parts[j], cap, gamma, delta / l, seqs[j + 1]).best)
        for j in range(m)
    ]
    level = 1
    while len(profs) > 1:
        cap = min(t, math.ceil((2**level) * 2 * gamma * t / l))
        profs = [
            maxconv_values(profs[2 * j], profs[2 * j + 1], cap)
            for j in range(len(profs) // 2)
        ]
        level += 1
    out = profs[0]
    assert len(out) == t + 1
    return ValueProfile(tuple(out))


def knapsack_rand(
    items: Iterable[tuple[int, int]],
    t: int,
    delta: float,
    rng: SeedLike,
) -> ValueProfile:
    """Randomised 0/1-knapsack profile over capacities 0..t.

    Items are routed to layers (t/2^i, t/2^(i-1)], the last layer taking
    everything at or below t/2^(layers-1); each layer runs the layer solver
    with budget 2^i and failure share delta/layers, and layer profiles are
    joined at capacity t.  Never exceeds the exact optimum; each entry
    matches it with probability at least 1 - delta.
    """
    _check_int(t, "capacity")
    _validate_delta(delta)
    root = _seedseq(rng)
    zs = [(w, v) for w, v in _clean_items(items) if w <= t]
    if t == 0:
        return ValueProfile((0,))
    if not zs:
        return ValueProfile(tuple([0] * (t + 1)))
    layers = max(1, math.ceil(math.log2(len(zs))))
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(layers + 1)]
    for w, v in zs:
        layer = layers
        for i in range(1, layers):
            if w * (1 << i) > t:
                layer = i
                break
        buckets[layer].append((w, v))
    seqs = root.spawn(layers)
    acc = [0] * (t + 1)
    for i in range(1, layers + 1):
        if not buckets[i]:
            continue
        prof = color_coding_layer(buckets[i], t, 1 << i, delta / layers, seqs[i - 1])
        acc = maxconv_values(acc, list(prof.best), t)
    return ValueProfile(tuple(acc))
