"""Each transformation against the direct solvers on both sides."""

import random
import sys
from itertools import accumulate

import pytest

from maxconv import (
    KnapsackInstance,
    WeightedTree,
    check_lower_bound,
    check_upper_bound,
    is_superadditive,
    knapsack01_dp,
    max_conv,
    mcsp_brute,
    necklace_linf_brute,
    reduce_lowerbound_to_necklace,
    reduce_mcsp_to_maxconv,
    reduce_superadditivity_to_mcsp,
    reduce_superadditivity_to_unbounded,
    reduce_unbounded_to_01,
    reduce_upperbound_to_3sumconv,
    reduce_upperbound_to_superadditivity,
    three_sum_conv_brute,
    tree_sparsity_dp,
    tree_sparsity_via_maxconv,
    unbounded_knapsack_dp,
)
from maxconv import core

from helpers import brute_superadd, rand_bound_triple, rand_seq, rand_superadd_candidate, rand_tree


# ---------------------------------------------------------------------------
# unbounded -> 0/1


def test_unbounded_to_01_construction():
    out = reduce_unbounded_to_01(KnapsackInstance(((1, 1),), 3))
    assert out.instances[0].items == ((1, 1), (2, 2))
    assert out.instances[0].capacity == 3


def test_unbounded_to_01_example_optimum():
    src = KnapsackInstance(((2, 3),), 5)
    out = reduce_unbounded_to_01(src)
    assert out.instances[0].items == ((2, 3), (4, 6))
    got = out.interpret([knapsack01_dp(out.instances[0])])
    assert got == unbounded_knapsack_dp(src)[5] == 6


def test_unbounded_to_01_empty():
    out = reduce_unbounded_to_01(KnapsackInstance((), 4))
    assert out.interpret([knapsack01_dp(out.instances[0])]) == 0


def test_unbounded_to_01_random_profiles_seed3001():
    rng = random.Random(3001)
    for _ in range(200):
        n = rng.randint(0, 10)
        t = rng.randint(1, 40)
        items = tuple((rng.randint(1, t), rng.randint(0, 30)) for _ in range(n))
        src = KnapsackInstance(items, t)
        out = reduce_unbounded_to_01(src)
        target = out.instances[0]
        assert len(target.items) <= len(src.items) * t.bit_length()
        got = knapsack01_dp(target)
        want = unbounded_knapsack_dp(src)
        # the whole profile matches, not just the capacity-t entry
        assert list(got) == list(want)
        assert out.interpret([got]) == want[t]


def test_unbounded_to_01_at_capacity_zero():
    for items in ((), ((1, 2),), ((0, 0), (3, 4))):
        src = KnapsackInstance(items, 0)
        out = reduce_unbounded_to_01(src)
        got = knapsack01_dp(out.instances[0])
        assert list(got) == list(unbounded_knapsack_dp(src)) == [0]
        assert out.interpret([got]) == 0
    # the unbounded objective is still refused first
    with pytest.raises(ValueError, match="unbounded"):
        reduce_unbounded_to_01(KnapsackInstance(((0, 3),), 0))


# ---------------------------------------------------------------------------
# superadditivity -> unbounded knapsack


def _superadd_via_unbounded(seq) -> bool:
    out = reduce_superadditivity_to_unbounded(seq)
    if not out.instances:
        return bool(out.interpret([]))
    return bool(out.interpret([unbounded_knapsack_dp(out.instances[0])]))


def test_superadd_to_unbounded_short_circuits():
    out = reduce_superadditivity_to_unbounded([1, 5])
    assert out.instances == () and out.interpret([]) is False
    # A single element takes the general construction: normalised to [0],
    # one item (1, 1) at capacity 1, worth the threshold D = 1.
    out = reduce_superadditivity_to_unbounded([-3])
    (inst,) = out.instances
    assert (inst.items, inst.capacity) == (((1, 1),), 1)
    assert out.interpret([unbounded_knapsack_dp(inst)]) is True


def test_superadd_to_unbounded_structure():
    out = reduce_superadditivity_to_unbounded([0, 0, 0])
    inst = out.instances[0]
    assert inst.capacity == 5
    # normalized sequence is [0, 1, 2]; light items pair with heavy partners,
    # and the one heavy item at the full capacity is worth the threshold D
    (d,) = [v for w, v in inst.items if w == inst.capacity]
    assert d == 5 * 2 + 1
    assert sorted(inst.items) == [(1, 1), (2, 2), (3, d - 2), (4, d - 1), (5, d)]


def test_superadd_to_unbounded_detects_violation():
    assert _superadd_via_unbounded([0, 2, 3]) is False
    assert _superadd_via_unbounded([0, 1, 2]) is True


def test_superadd_to_unbounded_optimum_at_least_threshold_seed3002():
    rng = random.Random(3002)
    for _ in range(200):
        a = rand_superadd_candidate(rng, rng.randint(1, 14), 10)
        out = reduce_superadditivity_to_unbounded(a)
        verdict = _superadd_via_unbounded(a)
        assert verdict == bool(is_superadditive(a))
        if out.instances:
            inst = out.instances[0]
            (d,) = [v for w, v in inst.items if w == inst.capacity]
            assert unbounded_knapsack_dp(inst)[inst.capacity] >= d


def _rewrite(a):
    """The non-negative rewrite a' the reduction built, read off its target:
    a head of 0, then the light items' values (weights 1..n-1, the first
    n - 1 items in sorted order).  None when the reduction built no instance."""
    out = reduce_superadditivity_to_unbounded(a)
    if not out.instances:
        return None
    (inst,) = out.instances
    return [0] + [v for w, v in sorted(inst.items)[: len(a) - 1]]


def test_superadd_to_unbounded_rewrite_examples():
    assert _rewrite([0, 0, 0]) == [0, 1, 2]
    assert _rewrite([0, -1, 5]) == [0, 5, 17]
    assert _rewrite([1, 0]) is None


def test_superadd_to_unbounded_rewrite_preserves_verdict_seed1007():
    rng = random.Random(1007)
    for _ in range(1000):
        n = rng.randint(1, 14)
        a = rand_seq(rng, n, 8)
        vals = _rewrite(a)
        if vals is None:
            assert a[0] > 0 and not brute_superadd(a)
            continue
        assert vals[0] == 0 and all(v >= 0 for v in vals)
        assert brute_superadd(vals) == brute_superadd(a)
        if brute_superadd(a):
            # monotonicity is guaranteed exactly on the YES side
            assert all(x < y for x, y in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# upper bound -> superadditivity


def test_upperbound_to_superadd_examples():
    out = reduce_upperbound_to_superadditivity([0, 0], [0, 0], [0, 0])
    assert out.interpret([is_superadditive(out.instances[0])]) is True
    out = reduce_upperbound_to_superadditivity([0, 1], [0, 1], [0, 0])
    assert out.interpret([is_superadditive(out.instances[0])]) is False


def test_upperbound_to_superadd_block_structure_seed3003():
    rng = random.Random(3003)
    for _ in range(100):
        n = rng.randint(1, 10)
        a, b, c = (rand_seq(rng, n, 9) for _ in range(3))
        out = reduce_upperbound_to_superadditivity(a, b, c)
        e = list(out.instances[0])
        w = max(abs(v) for v in a + b + c)
        assert len(e) == 4 * n
        assert max(e) <= 6 * ((2 * w + 1) * n + 2 * w + 2)
        # cross-block pairs reproduce exactly the original inequalities
        shift_c, step = w + 1, 2 * w + 1
        for i in range(n):
            for j in range(n - i):
                lhs_ok = a[i] + b[j] <= c[i + j]
                block_ok = e[n + i] + e[2 * n + j] <= e[3 * n + i + j]
                assert lhs_ok == block_ok, (a, b, c, i, j)


def test_upperbound_to_superadd_random_seed3004():
    rng = random.Random(3004)
    for _ in range(200):
        n = rng.randint(1, 12)
        a, b, c = rand_bound_triple(rng, n, 12, upper=True)
        out = reduce_upperbound_to_superadditivity(a, b, c)
        got = out.interpret([is_superadditive(out.instances[0])])
        assert got == bool(check_upper_bound(a, b, c))


# ---------------------------------------------------------------------------
# consecutive sums <-> convolution


def _mcsp_via_conv(a):
    out = reduce_mcsp_to_maxconv(a)
    inst = out.instances[0]
    return list(out.interpret([max_conv(*inst)]))


def test_mcsp_via_maxconv_examples():
    assert _mcsp_via_conv([5]) == [5]
    assert _mcsp_via_conv([1, -2, 3]) == [3, 1, 2]
    assert _mcsp_via_conv([0, 0, 0, 0]) == [0, 0, 0, 0]


def test_mcsp_via_maxconv_random_seed3005():
    rng = random.Random(3005)
    for _ in range(200):
        a = rand_seq(rng, rng.randint(1, 24), 20)
        assert _mcsp_via_conv(a) == mcsp_brute(a)


def _superadd_via_mcsp(a) -> bool:
    out = reduce_superadditivity_to_mcsp(a)
    if not out.instances:
        return bool(out.interpret([]))
    return bool(out.interpret([mcsp_brute(out.instances[0])]))


def test_superadd_via_mcsp_examples():
    assert _superadd_via_mcsp([0, 1, 2, 3]) is True
    assert _superadd_via_mcsp([0, 2, 3]) is False
    assert _superadd_via_mcsp([-4]) is True
    assert _superadd_via_mcsp([4]) is False


def test_superadd_via_mcsp_random_seed3006():
    rng = random.Random(3006)
    for _ in range(500):
        a = rand_superadd_candidate(rng, rng.randint(1, 32), 12)
        assert _superadd_via_mcsp(a) == bool(is_superadditive(a))


# ---------------------------------------------------------------------------
# tree sparsity through the kernel


def test_tree_sparsity_via_maxconv_examples():
    assert tree_sparsity_via_maxconv(WeightedTree((-1,), (7,))) == [0, 7]
    star = WeightedTree((-1, 0, 0), (1, 5, 3))
    assert tree_sparsity_via_maxconv(star) == [0, 1, 6, 9]


def _shaped_parents(rng: random.Random, shape: str, n: int) -> list[int]:
    """Parent array of a path, caterpillar, broom or complete binary tree on
    n nodes, labels shuffled so the root and the heavy children move."""
    half = max(1, n // 2)
    if shape == "path":
        parent = [i - 1 for i in range(n)]
    elif shape == "caterpillar":  # a path of half the nodes, legs anywhere on it
        parent = [i - 1 for i in range(half)] + [rng.randrange(half) for _ in range(half, n)]
    elif shape == "broom":  # a path of half the nodes, the rest a star at its end
        parent = [i - 1 for i in range(half)] + [half - 1] * (n - half)
    else:
        parent = [(i - 1) // 2 for i in range(n)]
    label = list(range(n))
    rng.shuffle(label)
    out = [-1] * n
    for i, p in enumerate(parent):
        out[label[i]] = -1 if p < 0 else label[p]
    return out


def test_tree_sparsity_via_maxconv_random_seed3007():
    rng = random.Random(3007)
    for _ in range(100):
        n = rng.randint(1, 60)
        parent, weight = rand_tree(rng, n, 25)
        tree = WeightedTree(tuple(parent), tuple(weight))
        assert tree_sparsity_via_maxconv(tree) == tree_sparsity_dp(tree)
    # Long spines: every level of the spine halving, and its head/tail merge.
    for shape in ("path", "caterpillar", "broom", "binary"):
        for n in (1, 2, 3, rng.randint(4, 60), rng.randint(100, 200)):
            wmax = rng.choice([0, 25, 2**62])
            weight = [rng.randint(0, wmax) for _ in range(n)]
            tree = WeightedTree(tuple(_shaped_parents(rng, shape, n)), tuple(weight))
            assert tree_sparsity_via_maxconv(tree) == tree_sparsity_dp(tree), (shape, n)


def test_tree_sparsity_via_maxconv_long_path_and_deep_binary_tree():
    # A 20,000-node path is one spine; a complete binary tree of 2^13 - 1
    # nodes nests 13 spines.  Both run at the default recursion limit.
    rng = random.Random(3011)
    n = 20_000
    weight = [rng.randint(0, 10**6) for _ in range(n)]
    path = WeightedTree(tuple(i - 1 for i in range(n)), tuple(weight))
    assert tree_sparsity_via_maxconv(path) == list(accumulate(weight, initial=0))
    n = 2**13 - 1
    binary = WeightedTree(tuple((i - 1) // 2 for i in range(n)), (1,) * n)
    assert tree_sparsity_via_maxconv(binary) == list(range(n + 1))


def _spine_depth(tree: WeightedTree) -> int:
    """Most spine_vector frames on the stack at once while the route runs."""
    depth = deepest = 0

    def profile(frame, event, arg):
        nonlocal depth, deepest
        if event in ("call", "return") and frame.f_code.co_name == "spine_vector":
            depth += 1 if event == "call" else -1
            deepest = max(deepest, depth)

    sys.setprofile(profile)
    try:
        tree_sparsity_via_maxconv(tree)
    finally:
        sys.setprofile(None)
    return deepest


def test_tree_sparsity_via_maxconv_spine_depth_seed3013():
    # Each nested spine_vector frame runs on a light child, at most half of
    # its parent's subtree, so at most floor(log2 n) + 1 are live at once;
    # a complete binary tree of 2^h - 1 nodes nests h.
    rng = random.Random(3013)
    sizes = [*range(1, 32), 63, 100, 127, 200, 255]
    trees = [[(i - 1) // 2 for i in range(n)] for n in sizes]
    for n in (2, 5, 40, 255):
        trees.append(_shaped_parents(rng, "caterpillar", n))
    for _ in range(20):
        trees.append(rand_tree(rng, rng.randint(1, 300), 0)[0])
        n = rng.randint(1, 300)
        trees.append([-1] + [rng.randint(max(0, i - 3), i - 1) for i in range(1, n)])
    for parent in trees:
        n = len(parent)
        depth = _spine_depth(WeightedTree(tuple(parent), (1,) * n))
        assert depth <= n.bit_length(), (n, depth)
        if n & (n + 1) == 0 and parent == [(i - 1) // 2 for i in range(n)]:
            assert depth == n.bit_length(), n


def test_tree_sparsity_via_maxconv_kernel_calls(monkeypatch):
    # A path's n - 1 spine merges make two calls each; a star's root spine
    # is the root and one leaf (one merge, two calls), and its other n - 2
    # leaves are folded into the root's attachment vector, one call each.
    calls = []
    kernel = core.KERNELS["naive"]
    monkeypatch.setitem(
        core.KERNELS, "naive", lambda a, b, limit: calls.append(1) or kernel(a, b, limit)
    )
    for n in (1, 2, 3, 7, 50):
        calls.clear()
        path = WeightedTree(tuple(i - 1 for i in range(n)), tuple(range(n)))
        assert tree_sparsity_via_maxconv(path) == tree_sparsity_dp(path)
        assert len(calls) == 2 * (n - 1), n
        if n >= 2:
            calls.clear()
            star = WeightedTree((-1,) + (0,) * (n - 1), tuple(range(n)))
            assert tree_sparsity_via_maxconv(star) == tree_sparsity_dp(star)
            assert len(calls) == n, n


def test_tree_sparsity_via_maxconv_checks_nothing_it_built_seed3012(monkeypatch):
    # Every operand of a merge is a vector the route built itself, so the
    # route calls the kernel on it directly and no integer check runs.
    rng = random.Random(3012)
    trees = []
    for n in (1, 2, 7, 200, 768):
        parent, weight = rand_tree(rng, n, 25)
        trees.append(WeightedTree(tuple(parent), tuple(weight)))
    trees.append(WeightedTree(tuple(i - 1 for i in range(50)), tuple(range(50))))
    trees.append(WeightedTree((-1,) + (0,) * 49, tuple(range(50))))
    checks = []
    int_values = core._int_values
    monkeypatch.setattr(core, "_int_values", lambda v: checks.append(1) or int_values(v))
    for tree in trees:
        want = tree_sparsity_dp(tree)
        checks.clear()
        assert tree_sparsity_via_maxconv(tree) == want, tree.n
        assert checks == [], (tree.n, len(checks))


# ---------------------------------------------------------------------------
# lower bound -> circular alignment


def _lower_via_necklace(a, b, c) -> bool:
    out = reduce_lowerbound_to_necklace(a, b, c)
    return bool(out.interpret([necklace_linf_brute(out.instances[0])]))


def test_lowerbound_to_necklace_examples():
    assert _lower_via_necklace([0, 0], [0, 0], [0, 0]) is True
    assert _lower_via_necklace([0, 0], [0, 0], [0, 5]) is False


def test_lowerbound_to_necklace_growth_contract():
    a, b, c = [3, -2], [1, 0], [-4, 4]
    out = reduce_lowerbound_to_necklace(a, b, c)
    inst = out.instances[0]
    w = 4
    scale = 10
    assert len(inst.x) == 4
    assert inst.circle_length <= 2 * (4 * w + 3) * (scale + scale * scale * 2)


def test_lowerbound_to_necklace_random_seed3008():
    rng = random.Random(3008)
    for _ in range(150):
        n = rng.randint(1, 16)
        a, b, c = rand_bound_triple(rng, n, 8, upper=False)
        assert _lower_via_necklace(a, b, c) == bool(check_lower_bound(a, b, c))


# ---------------------------------------------------------------------------
# upper bound -> exact-sum instances


def _upper_via_3sum(a, b, c) -> bool:
    out = reduce_upperbound_to_3sumconv(a, b, c)
    return bool(out.interpret([three_sum_conv_brute(*t) for t in out.instances]))


def test_upperbound_to_3sumconv_examples():
    assert _upper_via_3sum([0, 0], [0, 0], [0, 0]) is True
    assert _upper_via_3sum([0, 1], [0, 1], [0, 0]) is False


def test_upperbound_to_3sumconv_instance_count():
    a, b, c = [0, 3], [1, -2], [2, 2]
    out = reduce_upperbound_to_3sumconv(a, b, c)
    w = 3
    wp = max(max(v + w for v in a), max(v + w for v in b), max(v + 2 * w for v in c))
    assert len(out.instances) == 2 * max(1, wp.bit_length())
    # degenerate all-zero input still emits the minimum two instances
    out = reduce_upperbound_to_3sumconv([0], [0], [0])
    assert len(out.instances) == 2


def test_upperbound_to_3sumconv_random_seed3009():
    rng = random.Random(3009)
    for _ in range(200):
        n = rng.randint(1, 16)
        a, b, c = rand_bound_triple(rng, n, 20, upper=True)
        assert _upper_via_3sum(a, b, c) == bool(check_upper_bound(a, b, c))


# ---------------------------------------------------------------------------
# growth bounds, as each reduction's docstring states them


def _magnitude(*seqs) -> int:
    """W: max(1, max |input value|)."""
    return max(1, max(abs(v) for s in seqs for v in s))


def test_reduction_growth_bounds_seed3010():
    rng = random.Random(3010)
    for _ in range(60):
        for w in (0, 1, 3, 50, 10**6, 2**62, 2**70):
            n = rng.randint(1, 12)

            t = rng.randint(0, 300)
            items = tuple((rng.randint(1, max(1, t)), rng.randint(0, w)) for _ in range(n))
            (inst,) = reduce_unbounded_to_01(KnapsackInstance(items, t)).instances
            assert len(inst.items) <= n * t.bit_length()

            a = rand_superadd_candidate(rng, n, w)
            big_w = _magnitude(a)
            out = reduce_superadditivity_to_unbounded(a)
            if out.instances:
                (inst,) = out.instances
                assert len(inst.items) == inst.capacity == 2 * n - 1
                assert max(v for _, v in inst.items) <= (2 * n - 1) * n * (big_w + 1) + 1
            out = reduce_superadditivity_to_mcsp(a)
            if out.instances:
                (diff,) = out.instances
                assert len(diff) == n - 1
                assert _magnitude(diff) <= 2 * big_w

            a = rand_seq(rng, n, w)
            ((b, c, _),) = reduce_mcsp_to_maxconv(a).instances
            assert len(b) == len(c) == 2 * n
            assert _magnitude(b, c) <= 2 * (n * _magnitude(a) + 1)

            a, b, c = rand_bound_triple(rng, n, w, upper=rng.random() < 0.5)
            big_w = _magnitude(a, b, c)
            (e,) = reduce_upperbound_to_superadditivity(a, b, c).instances
            assert len(e) == 4 * n
            assert 0 <= min(e) and max(e) <= 6 * (2 * big_w + 1) * (n + 1)
            (neck,) = reduce_lowerbound_to_necklace(a, b, c).instances
            assert len(neck.x) == len(neck.y) == 2 * n
            assert neck.circle_length <= 2 * (4 * big_w + 3) * (100 * n + 10)
            triples = reduce_upperbound_to_3sumconv(a, b, c).instances
            assert len(triples) <= 2 * max(1, (3 * big_w).bit_length())
            for triple in triples:
                assert [len(s) for s in triple] == [n, n, n]
                assert _magnitude(*triple) <= 6 * big_w + 1
