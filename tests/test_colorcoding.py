"""Randomised knapsack: soundness is absolute, completeness statistical."""

import random

import pytest

from maxconv import (
    KnapsackInstance,
    color_coding,
    color_coding_layer,
    knapsack01_dp,
    knapsack_rand,
    part_profile,
)

from helpers import rand_items


def test_part_profile_examples():
    assert list(part_profile([], 3)) == [0, 0, 0, 0]
    assert list(part_profile([(2, 3)], 3)) == [0, 0, 3, 3]
    assert list(part_profile([(1, 4), (2, 9)], 2)) == [0, 4, 9]


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


def test_knapsack_rand_example_instance():
    hits = 0
    for seed in range(100):
        prof = knapsack_rand([(2, 3), (3, 4)], 5, 0.05, seed)
        assert prof[5] <= 7
        hits += prof[5] == 7
    assert hits >= 90


def test_knapsack_rand_single_item_exact():
    for seed in range(30):
        prof = knapsack_rand([(3, 9)], 7, 0.25, seed)
        assert list(prof) == [0, 0, 0, 9, 9, 9, 9, 9]


def test_knapsack_rand_deterministic_under_seed():
    items = [(2, 3), (5, 8), (1, 1), (4, 4)]
    a = knapsack_rand(items, 9, 0.05, 1234)
    b = knapsack_rand(items, 9, 0.05, 1234)
    assert list(a) == list(b)
    c = knapsack_rand(items, 9, 0.05, 1235)
    assert len(c) == len(a)  # different seed still a full profile


def test_knapsack_rand_edge_cases():
    assert list(knapsack_rand([], 4, 0.1, 0)) == [0] * 5
    assert list(knapsack_rand([(1, 2)], 0, 0.1, 0)) == [0]
    with pytest.raises(ValueError):
        knapsack_rand([(1, 1)], 3, 0.3, 0)  # delta above 1/4
    with pytest.raises(TypeError):
        knapsack_rand([(1, 1)], 3, 0.05, None)  # seed is mandatory


def test_knapsack_rand_never_exceeds_dp_seed5004():
    rng = random.Random(5004)
    for trial in range(300):
        n = rng.randint(1, 24)
        t = rng.randint(1, 48)
        items = rand_items(rng, n, t, 40)
        dp = knapsack01_dp(KnapsackInstance(tuple(items), t))
        prof = knapsack_rand(items, t, 0.25, trial)
        assert len(prof) == t + 1
        assert all(x <= y for x, y in zip(prof, dp))


def test_knapsack_rand_validates_arguments():
    items = [(1, 3), (2, 5)]
    assert len(knapsack_rand(items, 3, 0.05, 7)) == 4
    with pytest.raises(ValueError):
        knapsack_rand(items, 3, 0.5, 7)
    with pytest.raises(TypeError):
        knapsack_rand(items, 3, 0.05, "x")
    with pytest.raises(ValueError):
        knapsack_rand(items, 3, 0.05, 7, kernel="missing")
    # Checked before the degenerate shortcuts, not only when joins run.
    with pytest.raises(TypeError):
        knapsack_rand([], 0, 0.05, "x")
