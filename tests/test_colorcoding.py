"""Randomised knapsack: soundness is absolute, completeness statistical."""

import hashlib
import json
import math
import random

import numpy as np
import pytest

from maxconv import (
    KnapsackInstance,
    color_coding,
    color_coding_layer,
    knapsack01_dp,
    knapsack_rand,
)
from maxconv import colorcoding
from maxconv.colorcoding import _join_part, _merge
from maxconv.core import maxconv_values

from helpers import brute_maxconv, rand_items

# sha256 over the profiles of test_profiles_are_pinned_by_seed, in its loop
# order.  Any change to the seeds-to-profiles mapping moves it.  Its
# profiles are the ones every part join gave on the dense kernel, but for
# knapsack_rand at t = 0 with a zero-weight item of positive value (golden
# cases 0, 6, 23, 28, 32, 40, 59 and 80), which read knapsack01_dp's optimum.
PROFILE_DIGEST = "bfafa8edcce261c8b9e2bb0942a6ae918d5b9a4c2e9c146a2ed2f12f5d08b32c"

# (items, t, color_coding's profile when every join ran on the dense kernel,
# None where that raised OverflowError for every seed below).  Their sums
# pass 2^63 - 1; every route now answers them exactly.
HUGE = [
    ([(1, 2**62 + 5), (2, 2**62 + 5)], 3, None),
    ([(1, 2**63 + 5)], 3, [0] + [2**63 + 5] * 3),
    ([(0, 2**63 - 1), (1, 1)], 2, None),
]


def _golden_cases():
    # Zero weights, weights above t, duplicate weights and t = 0 all occur;
    # the four large cases reach color_coding_layer's merge path.
    yield 0, [(0, 5), (1, 2)]
    yield 3, [(0, 4), (0, 7), (2, 3), (2, 9), (5, 8)]
    yield 4, [(1, 1), (1, 1), (1, 1)]
    rng = random.Random(5006)
    for _ in range(80):
        t = rng.choice([0, 1, 2, 7, 16, 45])
        n = rng.randint(0, 9)
        yield t, [(rng.randint(0, t + 3), rng.randint(0, 30)) for _ in range(n)]
    for _ in range(4):
        t = rng.randint(150, 300)
        n = rng.randint(30, 60)
        yield t, [(rng.randint(0, t + 10), rng.randint(0, 1000)) for _ in range(n)]


def test_color_coding_trivial_cases():
    assert list(color_coding([], 4, 2, 0.1, 7)) == [0] * 5
    # a single item is always isolated, so the answer is deterministic
    for seed in range(20):
        assert list(color_coding([(1, 1)], 3, 1, 0.2, seed)) == [0, 1, 1, 1]


def test_color_coding_sound_and_complete_seed5001():
    rng = random.Random(5001)
    runs = hits = 0
    for trial in range(300):
        n = rng.randint(1, 8)
        t = rng.randint(1, 24)
        items = rand_items(rng, n, t, 15)
        dp = knapsack01_dp(KnapsackInstance(tuple(items), t))
        prof = color_coding(items, t, n, 0.1, trial)
        assert all(x <= y for x, y in zip(prof, dp))  # one-sided error
        runs += 1
        hits += prof[t] == dp[t]
    # per-entry success is >= 0.9; allow generous binomial slack
    assert hits >= int(0.9 * runs) - 4 * int(runs**0.5)


def test_layer_empty_input():
    assert list(color_coding_layer([], 6, 4, 0.2, 0)) == [0] * 7


def test_layer_band_validation():
    with pytest.raises(ValueError):
        color_coding_layer([(9, 1)], 8, 2, 0.1, 0)  # weight over 2t/l
    with pytest.raises(ValueError):
        color_coding_layer([(1, 1), (1, 2), (1, 3)], 8, 2, 0.1, 0)  # too many light
    # exactly l items may be arbitrarily light
    color_coding_layer([(1, 1), (1, 2)], 8, 2, 0.1, 0)


def test_layer_single_heavy_is_exact():
    rng = random.Random(5002)
    for trial in range(100):
        t = rng.randint(2, 40)
        n = rng.randint(1, 6)
        # weights in (t/2, t]: at most one such item fits
        items = [(rng.randint(t // 2 + 1, t), rng.randint(0, 20)) for _ in range(n)]
        prof = color_coding_layer(items, t, 1, 0.25, trial)
        assert prof[t] == max(v for _, v in items)


def test_layer_against_dp_seed5003():
    rng = random.Random(5003)
    runs = hits = 0
    for trial in range(200):
        t = 48
        l = rng.choice([2, 4, 8])
        lo, hi = t // l, 2 * t // l
        n = rng.randint(1, 10)
        items = [(rng.randint(lo + 1, hi), rng.randint(0, 25)) for _ in range(n)]
        dp = knapsack01_dp(KnapsackInstance(tuple(items), t))
        prof = color_coding_layer(items, t, l, 0.25, trial)
        assert all(x <= y for x, y in zip(prof, dp))
        runs += 1
        hits += prof[t] == dp[t]
    assert hits >= int(0.75 * runs) - 4 * int(runs**0.5)


def test_layer_parameters_seed5012(monkeypatch):
    # l = 1024, delta = 1/4: log2(l/delta) = 12, so m = 2^ceil(log2(1024/12))
    # = 128 parts, gamma = ceil(6 * 12) = 72 items per part at capacity
    # ceil(2 * 72 * t / l) = 288, and merge level h of seven caps at
    # min(t, 2^h * 288): 576, 1152, then t.
    solves, merges = [], []
    solve, merge = colorcoding.color_coding, colorcoding._merge

    def recorded_solve(items, t, k, delta, rng):
        solves.append((t, k, delta))
        return solve(items, t, k, delta, rng)

    def recorded_merge(p, q, limit):
        merges.append((len(p), len(q), limit))
        return merge(p, q, limit)

    monkeypatch.setattr(colorcoding, "color_coding", recorded_solve)
    monkeypatch.setattr(colorcoding, "_merge", recorded_merge)
    rng = random.Random(5012)
    t, l = 2048, 1024
    items = [(rng.randint(1, 4), rng.randint(0, 50)) for _ in range(40)]
    prof = color_coding_layer(items, t, l, 0.25, 7)
    assert solves == [(288, 72, 0.25 / l)] * 128
    caps = [288, 576, 1152, 2048, 2048, 2048, 2048, 2048]
    want = []
    for h in range(1, 8):
        want += [(caps[h - 1] + 1, caps[h - 1] + 1, caps[h])] * (128 >> h)
    assert merges == want
    dp = knapsack01_dp(KnapsackInstance(tuple(items), t))
    assert len(prof) == t + 1 and all(x <= y for x, y in zip(prof, dp))


def test_knapsack_rand_example_instance():
    hits = 0
    for seed in range(100):
        prof = knapsack_rand(KnapsackInstance([(2, 3), (3, 4)], 5), 0.05, seed)
        assert prof[5] <= 7
        hits += prof[5] == 7
    assert hits >= 90


def test_knapsack_rand_single_item_exact():
    for seed in range(30):
        prof = knapsack_rand(KnapsackInstance([(3, 9)], 7), 0.25, seed)
        assert list(prof) == [0, 0, 0, 9, 9, 9, 9, 9]
        # a zero-weight item counts at every capacity, 0 included
        assert list(knapsack_rand(KnapsackInstance([(0, 4)], 0), 0.25, seed)) == [4]
        assert list(knapsack_rand(KnapsackInstance([(0, 4)], 7), 0.25, seed)) == [4] * 8


def test_knapsack_rand_deterministic_under_seed():
    items = [(2, 3), (5, 8), (1, 1), (4, 4)]
    a = knapsack_rand(KnapsackInstance(items, 9), 0.05, 1234)
    b = knapsack_rand(KnapsackInstance(items, 9), 0.05, 1234)
    assert list(a) == list(b)
    c = knapsack_rand(KnapsackInstance(items, 9), 0.05, 1235)
    assert len(c) == len(a)  # different seed still a full profile


def test_knapsack_rand_zero_weights_at_small_capacities_seed5013():
    # Mostly zero-weight items at t <= 2: never above the optimum, and the
    # share of missed entries within 2 * delta, as in the example instance.
    rng = random.Random(5013)
    delta = 0.05
    entries = misses = 0
    for trial in range(300):
        t = rng.choice([0, 1, 2])
        n = rng.randint(1, 8)
        items = [
            (0 if rng.random() < 0.75 else rng.randint(1, t + 1), rng.randint(0, 20))
            for _ in range(n)
        ]
        inst = KnapsackInstance(items, t)
        dp = knapsack01_dp(inst)
        prof = knapsack_rand(inst, delta, trial)
        assert len(prof) == t + 1
        assert all(x <= y for x, y in zip(prof, dp))
        entries += t + 1
        misses += sum(x < y for x, y in zip(prof, dp))
    assert misses <= 2 * delta * entries


def test_knapsack_rand_layers_seed5014(monkeypatch):
    # Layer i < layers holds the items with t/2^i < w <= t/2^(i-1), the last
    # layer everything at or below t/2^(layers-1), zero weights included.
    # Weights t >> j put w * 2^j = t exactly when 2^j divides t.
    calls = []
    layer = colorcoding.color_coding_layer

    def recorded_layer(items, t, l, delta, rng):
        calls.append((list(items), l))
        return layer(items, t, l, delta, rng)

    monkeypatch.setattr(colorcoding, "color_coding_layer", recorded_layer)
    rng = random.Random(5014)
    for trial in range(60):
        t = rng.choice([0, 1, 2, 3, 8, 64, 96, 1000, rng.randint(1, 1000)])
        pool = [0, t] + [t >> j for j in range(1, 11)] + [rng.randint(0, t) for _ in range(4)]
        items = [(rng.choice(pool), rng.randint(0, 50)) for _ in range(rng.randint(1, 40))]
        layers = max(1, (len(items) - 1).bit_length())
        calls.clear()
        prof = knapsack_rand(KnapsackInstance(items, t), 0.25, trial)
        assert all(x <= y for x, y in zip(prof, knapsack01_dp(KnapsackInstance(items, t))))
        assert sorted(item for got, _ in calls for item in got) == sorted(items)
        for got, l in calls:
            i = l.bit_length() - 1
            assert got and l == 1 << i and 1 <= i <= layers
            for w, _ in got:
                if i < layers:
                    assert w * 2**i > t >= w * 2 ** (i - 1), (w, t, i)
                else:
                    assert w * 2 ** (layers - 1) <= t, (w, t, i)


def test_knapsack_rand_edge_cases():
    assert list(knapsack_rand(KnapsackInstance([], 4), 0.1, 0)) == [0] * 5
    assert list(knapsack_rand(KnapsackInstance([(1, 2)], 0), 0.1, 0)) == [0]
    with pytest.raises(ValueError):
        knapsack_rand(KnapsackInstance([(1, 1)], 3), 0.3, 0)  # delta above 1/4
    with pytest.raises(TypeError):
        knapsack_rand(KnapsackInstance([(1, 1)], 3), 0.05, None)  # seed is mandatory


def test_delta_rule_seed5010():
    rng = random.Random(5010)
    items = rand_items(rng, 12, 40, 30)
    exact = list(knapsack01_dp(KnapsackInstance(tuple(items), 40)))
    # Subnormal deltas, whose reciprocal overflows to inf, still set a trial count.
    for delta in (1e-308, 1e-310):
        assert list(knapsack_rand(KnapsackInstance(items, 40), delta, 1)) == exact
        assert list(color_coding(items, 40, 12, delta, 1)) == exact
    # In (0, 1/4], but its share over the 4 layers rounds to 0; with one
    # layer (two items) there is no split, and it is answered.
    with pytest.raises(ValueError, match="too small"):
        knapsack_rand(KnapsackInstance(items, 40), 5e-324, 1)
    two = items[:2]
    assert list(knapsack_rand(KnapsackInstance(two, 40), 5e-324, 1)) == list(
        knapsack01_dp(KnapsackInstance(tuple(two), 40))
    )
    for bad in (0, -0.1, 0.3, float("nan"), True, "0.1"):
        with pytest.raises(ValueError, match="delta must"):
            knapsack_rand(KnapsackInstance(items, 40), bad, 1)
    for bad in (0, 1.5, float("nan"), True):
        with pytest.raises(ValueError, match="delta must"):
            color_coding(items, 40, 12, bad, 1)


def test_knapsack_rand_never_exceeds_dp_seed5004():
    rng = random.Random(5004)
    for trial in range(300):
        n = rng.randint(1, 24)
        t = rng.randint(1, 48)
        items = rand_items(rng, n, t, 40)
        dp = knapsack01_dp(KnapsackInstance(tuple(items), t))
        prof = knapsack_rand(KnapsackInstance(items, t), 0.25, trial)
        assert len(prof) == t + 1
        assert all(x <= y for x, y in zip(prof, dp))


def test_knapsack_rand_validates_arguments():
    items = [(1, 3), (2, 5)]
    assert len(knapsack_rand(KnapsackInstance(items, 3), 0.05, 7)) == 4
    with pytest.raises(ValueError):
        knapsack_rand(KnapsackInstance(items, 3), 0.5, 7)
    with pytest.raises(TypeError):
        knapsack_rand(KnapsackInstance(items, 3), 0.05, "x")
    # Checked on an instance with no items and no capacity, too.
    with pytest.raises(TypeError):
        knapsack_rand(KnapsackInstance([], 0), 0.05, "x")


def test_profiles_are_pinned_by_seed():
    digest = hashlib.sha256()
    for seed, (t, items) in enumerate(_golden_cases()):
        for delta in (0.05, 0.25):
            prof = knapsack_rand(KnapsackInstance(items, t), delta, seed)
            digest.update(json.dumps(list(prof)).encode())
        for k in (1, 3):
            digest.update(json.dumps(list(color_coding(items, t, k, 0.2, seed))).encode())
    assert digest.hexdigest() == PROFILE_DIGEST


def test_join_part_matches_dense_join_seed5007():
    rng = random.Random(5007)
    for _ in range(400):
        limit = rng.randint(0, 30)
        cur = [rng.randint(-50, 50)]
        for _ in range(limit):
            cur.append(cur[-1] + rng.choice([0, 0, rng.randint(1, 9)]))
        # empty, small, and more items than limit + 1 (duplicates forced)
        size = rng.choice([0, 1, rng.randint(2, 5), limit + rng.randint(2, 8)])
        part = [(rng.randint(0, limit + 4), rng.randint(0, 40)) for _ in range(size)]
        arr = np.array(cur, dtype=np.int64)
        got = _join_part(arr, part)
        assert got.dtype == np.int64
        # the part profile: the best single item that fits each capacity
        best = [max([0] + [v for w, v in part if w <= cap]) for cap in range(limit + 1)]
        assert got.tolist() == maxconv_values(cur, best, limit)
        assert arr.tolist() == cur  # the input profile is left as it was


def _rising(rng: random.Random, n: int) -> list:
    """Non-decreasing and non-negative: a random head, then flat stretches
    and jumps."""
    out = [rng.choice([0, 0, rng.randint(1, 9)])]
    for _ in range(n - 1):
        out.append(out[-1] + rng.choice([0, 0, rng.randint(1, 9)]))
    return out


def _merge_cases(rng: random.Random):
    yield [5], [7]
    yield [0, 1, 2, 3, 4], [3, 4, 6, 7, 8, 9, 11]  # every entry a jump
    yield [4] * 6, [0, 0, 9, 9, 9, 12, 20]  # a single run
    yield [2, 2, 3], [0] * 9
    for _ in range(80):
        yield _rising(rng, rng.randint(1, 14)), _rising(rng, rng.randint(1, 14))


@pytest.mark.parametrize("dtype", [np.int64, object], ids=["int64", "object"])
def test_merge_matches_brute_force_seed5011(dtype):
    # Every limit up to the full product; object profiles past the word too.
    rng = random.Random(5011)
    for case, (p, q) in enumerate(_merge_cases(rng)):
        if dtype is object and case % 2:
            p, q = [v + 2**64 for v in p], [v + 2**65 for v in q]
        pa, qa = np.array(p, dtype=dtype), np.array(q, dtype=dtype)
        for limit in range(len(p) + len(q) - 1):
            got = _merge(pa, qa, limit)
            assert got.dtype == dtype
            assert got.tolist() == brute_maxconv(p, q, limit), (p, q, limit)
        assert pa.tolist() == p and qa.tolist() == q  # inputs left as they were
        with pytest.raises(AssertionError):
            _merge(pa, qa, len(p) + len(q) - 1)


def test_merge_sums_reach_the_word_exactly():
    # The largest sums are 2^63 - 1 exactly, also where the shorter
    # profile is read past its end as its last entry.
    word = 2**63 - 1
    for p, q in (
        ([0, 2**62], [0, 3, 2**61, 2**62 - 1]),
        ([1, 5, 2**62], [2, 2**62 - 2, 2**62 - 1]),
        ([2**62] * 3, [2**62 - 1] * 2),
    ):
        for x, y in ((p, q), (q, p)):
            for limit in range(len(x) + len(y) - 1):
                want = brute_maxconv(x, y, limit)
                got = _merge(np.array(x, dtype=np.int64), np.array(y, dtype=np.int64), limit)
                assert got.tolist() == want, (x, y, limit)
            assert want[-1] == word


@pytest.mark.parametrize("items, t, dense", HUGE)
def test_profiles_past_the_word_are_exact(items, t, dense):
    # Where the dense join raised or answered, both solvers now give the
    # exact 0/1 optimum past the word: never a wrapped entry, never an error.
    exact = list(knapsack01_dp(KnapsackInstance(tuple(items), t)))
    assert max(exact) > 2**63 - 1
    assert dense is None or dense == exact
    for seed in range(6):
        assert list(knapsack_rand(KnapsackInstance(items, t), 0.25, seed)) == exact
        assert list(color_coding(items, t, 2, 0.25, seed)) == exact


def test_sums_at_the_word_limit_stay_exact():
    items = [(1, 2**62), (2, 2**62 - 1)]
    exact = [0, 2**62, 2**62, 2**63 - 1]
    for seed in range(10):
        assert list(knapsack_rand(KnapsackInstance(items, 3), 0.25, seed)) == exact
        assert list(color_coding(items, 3, 2, 0.25, seed)) == exact


def _color_coding_every_trial(items, t, k, delta, seed):
    """color_coding as it was before the early stop: every trial runs, on
    children spawned all at once, with profiles of Python ints, exact at
    every magnitude.  The reference for the early stop."""
    zs = [(int(w), int(v)) for w, v in items]
    trials = max(1, math.ceil(math.log(1 / delta) / math.log(4 / 3)))
    best = np.zeros(t + 1, dtype=object)
    for trial_seq in np.random.SeedSequence(seed).spawn(trials):
        gen = np.random.Generator(np.random.PCG64(trial_seq))
        buckets = {}
        if zs:
            for item, part in zip(zs, gen.integers(0, k * k, size=len(zs))):
                buckets.setdefault(int(part), []).append(item)
        cur = np.zeros(t + 1, dtype=object)
        for part_idx in sorted(buckets):
            cur = _join_part(cur, buckets[part_idx])
        np.maximum(best, cur, out=best)
    return best.tolist()


def _first_trial_is_collision_free(n, k, seed):
    (child,) = np.random.SeedSequence(seed).spawn(1)
    parts = np.random.Generator(np.random.PCG64(child)).integers(0, k * k, size=n)
    return len(set(parts.tolist())) == n


def _early_stop_cases(rng):
    # Empty lists, zero weights, duplicate items and weights above t.
    yield [], 3
    yield [(0, 5), (0, 5)], 2
    yield [(2, 3), (2, 3), (9, 4)], 4
    yield [(5, 1), (6, 2)], 4
    for _ in range(60):
        t = rng.choice([0, 1, 3, 8, 20])
        n = rng.randint(0, 7)
        yield [(rng.randint(0, t + 3), rng.randint(0, 20)) for _ in range(n)], t


@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_early_stop_matches_every_trial_seed5008(k, monkeypatch):
    # k = 1 and k = 2 force collisions; k = 8 spreads a few items over 64
    # parts, so the first trial is usually the only one.
    joins = []

    def counted_join(cur, part):
        joins.append(part)
        return _join_part(cur, part)

    monkeypatch.setattr(colorcoding, "_join_part", counted_join)
    rng = random.Random(5008 + k)
    one_trial = 0
    for case, (items, t) in enumerate(_early_stop_cases(rng)):
        for delta in (0.05, 0.25):
            seed = 100 * case + k
            want = _color_coding_every_trial(items, t, k, delta, seed)
            root = np.random.SeedSequence(seed)
            joins.clear()
            got = color_coding(items, t, k, delta, root)
            assert list(got) == want, (items, t, k, delta, seed)
            trials = max(1, math.ceil(math.log(1 / delta) / math.log(4 / 3)))
            assert 1 <= root.n_children_spawned <= trials
            if _first_trial_is_collision_free(len(items), k, seed):
                # one join per item, in one trial, then the loop stops
                assert root.n_children_spawned == 1
                assert len(joins) == len(items)
                one_trial += 1
    assert one_trial > (0 if k > 1 else 20)


def test_early_stop_is_exact_past_the_word_seed5009():
    # Values near 2^62: some trials' sums pass the word and others' do not,
    # and the early stop may skip the later ones.  Its answer is every
    # trial's, never exceeds the 0/1 optimum, and is that optimum, past the
    # word too, where the first trial puts every item in a part of its own.
    rng = random.Random(5009)
    big = [1, 2**61, 2**62 - 3, 2**62, 2**62 + 1, 2**62 - 1]
    past_the_word = 0
    for _ in range(1500):
        t = rng.randint(1, 5)
        k = rng.choice([1, 2, 3])
        items = [(rng.randint(0, t + 1), rng.choice(big)) for _ in range(rng.randint(2, 4))]
        seed = rng.randrange(1000)
        got = list(color_coding(items, t, k, 0.25, seed))
        assert got == _color_coding_every_trial(items, t, k, 0.25, seed)
        exact = list(knapsack01_dp(KnapsackInstance(tuple(items), t)))
        assert all(g <= e for g, e in zip(got, exact))
        if _first_trial_is_collision_free(len(items), k, seed):
            assert got == exact, (items, t, k, seed)
            past_the_word += max(exact) > 2**63 - 1
    assert past_the_word > 0
