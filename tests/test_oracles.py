"""Reference solvers against exhaustive enumeration."""

import enum
import random

import numpy as np
import pytest

from maxconv import (
    KnapsackInstance,
    NecklaceInstance,
    ValueProfile,
    WeightedTree,
    knapsack01_dp,
    knapsack_rand,
    mcsp_brute,
    necklace_linf_brute,
    three_sum_conv_brute,
    tree_sparsity_dp,
    unbounded_knapsack_dp,
)

from maxconv.oracles import _check_int
from maxconv.serialize import InstanceFormatError, payload_objects
from helpers import (
    brute_mcsp,
    enum_knapsack01,
    enum_necklace,
    enum_tree_sparsity,
    enum_unbounded,
    rand_items,
    rand_seq,
    rand_tree,
)


def test_knapsack01_examples():
    assert list(knapsack01_dp(KnapsackInstance((), 3))) == [0, 0, 0, 0]
    prof = knapsack01_dp(KnapsackInstance(((2, 3), (3, 4)), 5))
    assert prof[5] == 7
    k = 6
    prof = knapsack01_dp(KnapsackInstance(((1, 1),) * k, k))
    assert prof[k] == k


def test_knapsack01_against_subset_enumeration_seed2001():
    rng = random.Random(2001)
    for _ in range(200):
        n = rng.randint(0, 9)
        t = rng.randint(0, 24)
        items = [(rng.randint(0, max(1, t)), rng.randint(0, 20)) for _ in range(n)]
        inst = KnapsackInstance(tuple(items), t)
        assert list(knapsack01_dp(inst)) == enum_knapsack01(list(inst.items), t)


def test_unbounded_examples():
    prof = unbounded_knapsack_dp(KnapsackInstance(((2, 3),), 5))
    assert prof[5] == 6
    prof = unbounded_knapsack_dp(KnapsackInstance(((1, 1), (1, 5)), 2))
    assert prof[2] == 10
    assert list(unbounded_knapsack_dp(KnapsackInstance((), 4))) == [0] * 5


def test_unbounded_rejects_zero_weight_value():
    inst = KnapsackInstance(((0, 3),), 4)
    with pytest.raises(ValueError):
        unbounded_knapsack_dp(inst)
    # zero-weight zero-value items are simply dropped
    prof = unbounded_knapsack_dp(KnapsackInstance(((0, 0), (2, 1)), 4))
    assert list(prof) == [0, 0, 1, 1, 2]


def test_unbounded_against_enumeration_seed2002():
    rng = random.Random(2002)
    for _ in range(200):
        n = rng.randint(0, 5)
        t = rng.randint(0, 18)
        items = [(rng.randint(1, max(1, t)), rng.randint(0, 15)) for _ in range(n)]
        inst = KnapsackInstance(tuple(items), t)
        assert list(unbounded_knapsack_dp(inst)) == enum_unbounded(list(inst.items), t)


def test_profiles_monotone_and_ordered_seed2003():
    rng = random.Random(2003)
    for _ in range(200):
        n = rng.randint(0, 8)
        t = rng.randint(1, 20)
        items = rand_items(rng, n, t, 12)
        p01 = list(knapsack01_dp(KnapsackInstance(tuple(items), t)))
        pun = list(unbounded_knapsack_dp(KnapsackInstance(tuple(items), t)))
        assert all(x <= y for x, y in zip(p01, p01[1:]))
        assert all(x <= y for x, y in zip(pun, pun[1:]))
        # unboundedness can only help
        assert all(x <= y for x, y in zip(p01, pun))
        # adding an item can only help
        extra = items + [(rng.randint(1, t), rng.randint(0, 12))]
        p01b = list(knapsack01_dp(KnapsackInstance(tuple(extra), t)))
        assert all(x <= y for x, y in zip(p01, p01b))


def test_mcsp_examples():
    assert mcsp_brute([5]) == [5]
    assert mcsp_brute([1, -2, 3]) == [3, 1, 2]
    assert mcsp_brute([0, 0, 0, 0]) == [0, 0, 0, 0]


def test_mcsp_against_window_enumeration_seed2004():
    rng = random.Random(2004)
    for _ in range(200):
        a = rand_seq(rng, rng.randint(1, 20), 15)
        got = mcsp_brute(a)
        assert got == brute_mcsp(a)
        assert got[0] == max(a) and got[-1] == sum(a)


def test_tree_sparsity_examples():
    assert tree_sparsity_dp(WeightedTree((-1,), (7,))) == [0, 7]
    assert tree_sparsity_dp(WeightedTree((-1, 0), (1, 5)))[1] == 1
    assert tree_sparsity_dp(WeightedTree((-1, 0, 1), (0, 3, 10)))[2] == 3


def test_tree_sparsity_against_enumeration_seed2005():
    rng = random.Random(2005)
    for _ in range(150):
        n = rng.randint(1, 8)
        parent, weight = rand_tree(rng, n, 12)
        tree = WeightedTree(tuple(parent), tuple(weight))
        k = rng.randint(0, n)
        vec = tree_sparsity_dp(tree)
        assert vec[k] == enum_tree_sparsity(parent, weight, k)
        assert len(vec) == n + 1
        # non-negative weights make the vector monotone in the size
        assert all(x <= y for x, y in zip(vec, vec[1:]))


def test_tree_validation():
    with pytest.raises(ValueError):
        WeightedTree((0, 1), (1, 1))  # no root
    with pytest.raises(ValueError):
        WeightedTree((-1, -1), (1, 1))  # two roots
    with pytest.raises(ValueError):
        WeightedTree((-1, 2, 1), (1, 1, 1))  # 1 <-> 2 cycle


def test_necklace_examples():
    assert necklace_linf_brute(NecklaceInstance((0, 2), (0, 2), 8)) == 0
    assert necklace_linf_brute(NecklaceInstance((0, 2), (1, 3), 4)) == 0
    assert necklace_linf_brute(NecklaceInstance((0, 1), (0, 2), 4)) == 1


def test_necklace_validation():
    with pytest.raises(ValueError):
        NecklaceInstance((0, 1), (0,), 4)
    with pytest.raises(ValueError):
        NecklaceInstance((3, 1), (0, 2), 4)
    with pytest.raises(ValueError):
        NecklaceInstance((0, 9), (0, 2), 4)


def _rotated(beads, shift, circle):
    return tuple(sorted((p + shift) % circle for p in beads))


def test_necklace_invariances_seed2006():
    rng = random.Random(2006)
    for _ in range(300):
        n = rng.randint(1, 8)
        circle = rng.randint(max(2, n), 40)
        x = tuple(sorted(rng.randrange(circle) for _ in range(n)))
        y = tuple(sorted(rng.randrange(circle) for _ in range(n)))
        base = necklace_linf_brute(NecklaceInstance(x, y, circle))
        shift = rng.randrange(circle)
        rotated = NecklaceInstance(
            _rotated(x, shift, circle), _rotated(y, shift, circle), circle
        )
        assert necklace_linf_brute(rotated) == base
        swapped = NecklaceInstance(y, x, circle)
        assert necklace_linf_brute(swapped) == base


def test_necklace_against_matching_enumeration_seed2009():
    rng = random.Random(2009)
    for n in [rng.randint(1, 4) for _ in range(300)] + [5] * 20:
        circle = rng.randint(1, 40)
        x, y = (
            tuple(sorted(rng.choice((0, circle, rng.randint(0, circle))) for _ in range(n)))
            for _ in range(2)
        )
        assert necklace_linf_brute(NecklaceInstance(x, y, circle)) == enum_necklace(x, y, circle)


def test_three_sum_conv_examples():
    assert three_sum_conv_brute([0], [0], [0]).holds
    assert not three_sum_conv_brute([1], [1], [5]).holds
    dec = three_sum_conv_brute([1, 2], [3, 4], [9, 5])
    assert dec.holds
    i, j = dec.witness
    assert [1, 2][i] + [3, 4][j] == [9, 5][i + j]


def test_three_sum_conv_planted_seed2007():
    rng = random.Random(2007)
    for _ in range(300):
        n = rng.randint(1, 12)
        a = rand_seq(rng, n, 30)
        b = rand_seq(rng, n, 30)
        c = rand_seq(rng, n, 90)
        planted = rng.random() < 0.5
        if planted:
            i = rng.randrange(n)
            j = rng.randrange(n - i)
            c[i + j] = a[i] + b[j]
        want = any(
            a[i] + b[j] == c[i + j] for i in range(n) for j in range(n - i)
        )
        assert three_sum_conv_brute(a, b, c).holds == want
        if planted:
            assert want


def _reference_profile_check(best):
    """ValueProfile's check as a per-entry loop: the reference for its
    C-speed pass."""
    if not best:
        raise ValueError("profiles must cover at least capacity 0")
    vals = []
    for v in best:
        v = _check_int(v, "profile entry")
        if vals and v < vals[-1]:
            raise ValueError("profile entries must be non-decreasing")
        vals.append(v)
    return tuple(vals)


class _Small(enum.IntEnum):
    TWO = 2


class _MyInt(int):
    pass


PROFILE_INPUTS = {
    "one zero": lambda: (0,),
    "flat": lambda: (3, 3, 3),
    "rising": lambda: (0, 1, 5, 5, 9),
    "list": lambda: [0, 2, 4],
    "empty tuple": lambda: (),
    "empty list": lambda: [],
    "bool": lambda: (True,),
    "bool after int": lambda: (0, True),
    "np.int64": lambda: (np.int64(0), np.int64(3)),
    "np.int64 after int": lambda: (0, np.int64(3)),
    "np.bool_": lambda: (0, np.bool_(True)),
    "int subclass": lambda: (0, _MyInt(4)),
    "IntEnum": lambda: (1, _Small.TWO),
    "float": lambda: (0, 1.0),
    "str": lambda: ("0",),
    "None": lambda: (0, None),
    "negative head": lambda: (-1, 0, 2),
    "negative inside": lambda: (0, -1),
    "decreasing": lambda: (0, 5, 4),
    "decreasing at the end": lambda: [1, 2, 3, 2],
    "huge": lambda: (0, 2**63 - 1, 2**63, 2**70),
    "huge decreasing": lambda: (2**70, 2**63),
}


def _profile_outcome(build, best):
    try:
        got = build(best)
    except (TypeError, ValueError) as exc:
        return "raised", type(exc), str(exc)
    return "built", type(got), tuple(got), [type(v) for v in got]


@pytest.mark.parametrize("name", sorted(PROFILE_INPUTS))
def test_profile_check_matches_the_reference_loop(name):
    make = PROFILE_INPUTS[name]
    want = _profile_outcome(_reference_profile_check, make())
    assert _profile_outcome(lambda b: ValueProfile(b).best, make()) == want
    if want[0] == "built":
        # A list input is kept as a tuple, so the frozen profile hashes and
        # equals its twin built from a tuple.
        p = ValueProfile(make())
        assert p == ValueProfile(tuple(p.best))
        assert hash(p) == hash(ValueProfile(tuple(p.best)))


@pytest.mark.parametrize(
    "make",
    [
        lambda: (v for v in [0, 1, 2]),
        lambda: iter([0, 1, 2]),
        lambda: range(3),
        lambda: map(int, "012"),
    ],
    ids=["generator", "iterator", "range", "map"],
)
def test_profile_from_any_iterable_keeps_its_entries(make):
    p = ValueProfile(make())
    assert p.best == (0, 1, 2)
    assert list(p) == [0, 1, 2]
    assert p.capacity == 2
    assert p == ValueProfile((0, 1, 2))


def test_profile_from_an_iterable_gets_the_same_checks():
    with pytest.raises(ValueError, match="at least capacity 0"):
        ValueProfile(v for v in [])
    with pytest.raises(ValueError, match="non-decreasing"):
        ValueProfile(v for v in [0, 5, 4])
    with pytest.raises(ValueError, match="must be an integer"):
        ValueProfile(v for v in [0, 1.0])


def test_numpy_integers_answer_as_plain_ints_seed2008():
    # Numpy integers pass every instance check as Sequence's do, and are
    # stored as Python ints, so no later sum runs in a fixed-width word.
    rng = random.Random(2008)
    lanes = (np.int64, np.int32, np.uint8)
    for _ in range(60):
        t = rng.randint(0, 20)
        items = rand_items(rng, rng.randint(0, 7), t + 3, 40)
        np_items = [(rng.choice(lanes)(w), rng.choice(lanes)(v)) for w, v in items]
        inst = KnapsackInstance(tuple(np_items), np.int64(t))
        assert inst == KnapsackInstance(tuple(items), t)
        assert {type(x) for item in inst.items for x in (*item, inst.capacity)} <= {int}
        prof = knapsack01_dp(inst)
        seed = rng.randrange(1000)
        assert knapsack_rand(inst, 0.1, seed) == knapsack_rand(KnapsackInstance(items, t), 0.1, seed)
        np_prof = ValueProfile(tuple(np.array(prof.best, dtype=np.int64)))
        assert np_prof == prof and {type(v) for v in np_prof} == {int}
        parent, weight = rand_tree(rng, rng.randint(1, 8), 2**62)
        tree = WeightedTree(np.array(parent), tuple(np.array(weight, dtype=np.int64)))
        plain = WeightedTree(parent, weight)
        assert tree == plain == WeightedTree(tuple(parent), tuple(weight))
        assert {type(v) for v in (*tree.parent, *tree.weight)} == {int}
        assert tree_sparsity_dp(tree) == tree_sparsity_dp(plain)
        for k in (tree.n, tree.n // 2):
            payload = {"parent": parent, "weight": weight, "k": np.int64(k)}
            objs = payload_objects("treesparsity", payload)
            assert objs == (plain, k) and type(objs[1]) is int
    beads = NecklaceInstance((np.int64(0), 2), (1, np.int32(3)), np.uint16(4))
    assert beads == NecklaceInstance((0, 2), (1, 3), 4)
    assert {type(v) for v in (*beads.x, *beads.y, beads.circle_length)} == {int}
    for bad in (True, np.bool_(True)):
        with pytest.raises(ValueError, match="item weight must be an integer"):
            KnapsackInstance(((bad, 1),), 3)
        with pytest.raises(ValueError, match="capacity must be an integer"):
            KnapsackInstance(((1, 1),), bad)
    # A float root marker equals -1 but is refused like every non-integer.
    for parent in ((-1.0, 0), (-1, True), (-1, np.bool_(True))):
        with pytest.raises(ValueError, match="parent link must be an integer"):
            WeightedTree(parent, (1, 2))
    with pytest.raises(ValueError, match="parent link must be >= -1"):
        WeightedTree((-1, -2), (1, 2))
    with pytest.raises(InstanceFormatError, match="k must be an integer"):
        payload_objects("treesparsity", {"parent": [-1, 0], "weight": [1, 2], "k": 1.0})
