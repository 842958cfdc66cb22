"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
and timings.  Every tolerance and instance count is pinned here.
"""

import random
import time

from maxconv import (
    KnapsackInstance,
    WeightedTree,
    check_lower_bound,
    check_upper_bound,
    is_superadditive,
    knapsack01_dp,
    knapsack_rand,
    max_conv,
    max_conv_via_upperbound,
    maxconv_values,
    mcsp_brute,
    min_conv,
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
from maxconv.serialize import dump_instance, parse_instance

from helpers import (
    brute_maxconv,
    rand_bound_triple,
    rand_items,
    rand_seq,
    rand_superadd_candidate,
    rand_tree,
)


def _verdict(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def test_criterion_1_kernel_ground_truth():
    rng = random.Random(20260801)
    start = time.perf_counter()
    for _ in range(1000):
        n = rng.randint(1, 64)
        m = rng.randint(1, 64)
        a = rand_seq(rng, n, 100)
        b = rand_seq(rng, m, 100)
        want = brute_maxconv(a, b)
        assert max_conv(a, b) == want
        neg = maxconv_values([-v for v in a], [-v for v in b])
        assert min_conv(a, b) == [-v for v in neg]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _verdict("criterion 1 (kernel ground truth)", f"1000 pairs exact in {elapsed:.2f}s")


def test_criterion_2_ring_soundness():
    start = time.perf_counter()
    rng = random.Random(20260802)

    for _ in range(500):  # unbounded -> 0/1
        n = rng.randint(0, 32)
        t = rng.randint(1, 64)
        items = tuple((rng.randint(1, t), rng.randint(0, 256)) for _ in range(n))
        src = KnapsackInstance(items, t)
        out = reduce_unbounded_to_01(src)
        got = out.interpret([knapsack01_dp(out.instances[0])])
        assert got == unbounded_knapsack_dp(src)[t]

    for _ in range(500):  # superadditivity -> unbounded knapsack
        a = rand_superadd_candidate(rng, rng.randint(1, 32), 256)
        out = reduce_superadditivity_to_unbounded(a)
        answers = [unbounded_knapsack_dp(i) for i in out.instances]
        assert bool(out.interpret(answers)) == bool(is_superadditive(a))

    for _ in range(500):  # upper bound -> superadditivity
        n = rng.randint(1, 32)
        a, b, c = rand_bound_triple(rng, n, 256, upper=True)
        out = reduce_upperbound_to_superadditivity(a, b, c)
        got = out.interpret([is_superadditive(out.instances[0])])
        assert got == bool(check_upper_bound(a, b, c))

    for _ in range(500):  # full convolution from the decision oracle
        n = rng.randint(1, 32)
        a = rand_seq(rng, n, 256)
        b = rand_seq(rng, n, 256)
        assert max_conv_via_upperbound(a, b) == max_conv(a, b, limit=n - 1)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _verdict(
        "criterion 2 (ring soundness)",
        f"4 x 500 instances, 0 disagreements, {elapsed:.1f}s",
    )


def test_criterion_3_end_to_end_ring_trip():
    def chained_oracle(a, b, c) -> bool:
        block = reduce_upperbound_to_superadditivity(a, b, c)
        knap = reduce_superadditivity_to_unbounded(block.instances[0])
        answers = [unbounded_knapsack_dp(i) for i in knap.instances]
        return block.interpret([knap.interpret(answers)])

    rng = random.Random(20260803)
    start = time.perf_counter()
    for _ in range(100):
        n = rng.randint(1, 24)
        a = rand_seq(rng, n, 256)
        b = rand_seq(rng, n, 256)
        got = max_conv_via_upperbound(a, b, chained_oracle)
        assert got == max_conv(a, b, limit=n - 1)
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 3 (ring trip)",
        f"100 instances through the knapsack chain, 0 disagreements, {elapsed:.1f}s",
    )


def test_criterion_4_randomized_knapsack():
    rng = random.Random(20260804)
    start = time.perf_counter()
    trials = 200
    entry_misses = 0
    for trial in range(trials):
        n = rng.randint(1, 30)
        t = rng.randint(1, 60)
        items = rand_items(rng, n, t, 100)
        dp = knapsack01_dp(KnapsackInstance(tuple(items), t))
        prof = knapsack_rand(KnapsackInstance(items, t), 0.05, trial)
        # soundness is a hard requirement at every capacity
        assert all(x <= y for x, y in zip(prof, dp))
        entry_misses += prof[t] != dp[t]
    rate = entry_misses / trials
    elapsed = time.perf_counter() - start
    assert rate <= 0.05 + 0.03
    assert elapsed < 120.0
    _verdict(
        "criterion 4 (randomized knapsack)",
        f"200 instances, 0 soundness violations, entry-t miss rate {rate:.3f}, {elapsed:.1f}s",
    )


def test_criterion_5_mcsp_routes():
    rng = random.Random(20260805)
    for _ in range(500):
        a = rand_seq(rng, rng.randint(1, 64), 100)
        out = reduce_mcsp_to_maxconv(a)
        inst = out.instances[0]
        conv = max_conv(*inst)
        assert list(out.interpret([conv])) == mcsp_brute(a)
    for _ in range(500):
        a = rand_superadd_candidate(rng, rng.randint(1, 64), 60)
        out = reduce_superadditivity_to_mcsp(a)
        answers = [mcsp_brute(i) for i in out.instances]
        assert bool(out.interpret(answers)) == bool(is_superadditive(a))
    _verdict("criterion 5 (consecutive-sums routes)", "2 x 500 instances, 0 disagreements")


def test_criterion_6_tree_sparsity():
    rng = random.Random(20260806)
    for _ in range(200):
        n = rng.randint(1, 200)
        parent, weight = rand_tree(rng, n, 100)
        tree = WeightedTree(tuple(parent), tuple(weight))
        assert tree_sparsity_via_maxconv(tree) == tree_sparsity_dp(tree)
    _verdict("criterion 6 (tree sparsity)", "200 trees up to n=200, vectors exact")


def test_criterion_7_necklace_route():
    rng = random.Random(20260807)
    for _ in range(300):
        n = rng.randint(1, 16)
        a, b, c = rand_bound_triple(rng, n, 8, upper=False)
        out = reduce_lowerbound_to_necklace(a, b, c)
        doubled = necklace_linf_brute(out.instances[0])
        got = out.interpret([doubled])
        assert got == bool(check_lower_bound(a, b, c))
    _verdict("criterion 7 (circular alignment)", "300 instances, 0 disagreements")


def test_criterion_8_exact_sum_route():
    rng = random.Random(20260808)
    for _ in range(500):
        n = rng.randint(1, 32)
        a, b, c = rand_bound_triple(rng, n, 256, upper=True)
        out = reduce_upperbound_to_3sumconv(a, b, c)
        w = max(abs(v) for v in a + b + c)
        wp = max(
            max(v + w for v in a), max(v + w for v in b), max(v + 2 * w for v in c)
        )
        assert len(out.instances) == 2 * max(1, wp.bit_length())
        got = out.interpret([three_sum_conv_brute(*t) for t in out.instances])
        assert got == bool(check_upper_bound(a, b, c))
    _verdict("criterion 8 (exact-sum route)", "500 instances, counts and verdicts exact")


def test_criterion_9_property_suite():
    rng = random.Random(20260809)

    for _ in range(1000):  # profiles stay monotone
        n = rng.randint(0, 8)
        t = rng.randint(1, 20)
        items = rand_items(rng, n, t, 12)
        prof = list(knapsack01_dp(KnapsackInstance(tuple(items), t)))
        assert all(x <= y for x, y in zip(prof, prof[1:]))
    for trial in range(100):  # including randomized profiles
        items = rand_items(rng, rng.randint(1, 10), 16, 12)
        prof = list(knapsack_rand(KnapsackInstance(items, 16), 0.25, trial))
        assert all(x <= y for x, y in zip(prof, prof[1:]))

    for _ in range(1000):  # superadditive sequences absorb self-convolution
        n = rng.randint(1, 16)
        incs = sorted(rng.randint(0, 5) for _ in range(n - 1))
        a = [0]
        for inc in incs:
            a.append(a[-1] + inc)
        assert is_superadditive(a).holds
        assert list(max_conv(a, a))[:n] == a

    for _ in range(1000):  # alignment objective invariant under rotation/swap
        n = rng.randint(1, 6)
        circle = rng.randint(max(2, n), 30)
        from maxconv import NecklaceInstance

        x = tuple(sorted(rng.randrange(circle) for _ in range(n)))
        y = tuple(sorted(rng.randrange(circle) for _ in range(n)))
        base = necklace_linf_brute(NecklaceInstance(x, y, circle))
        s = rng.randrange(circle)
        rot = lambda beads: tuple(sorted((p + s) % circle for p in beads))
        assert necklace_linf_brute(NecklaceInstance(rot(x), rot(y), circle)) == base
        assert necklace_linf_brute(NecklaceInstance(y, x, circle)) == base

    problems = ["maxconv", "superadd", "mcsp", "knapsack01", "uknapsack"]
    for _ in range(1000):  # serialization round trip, bit-exact
        problem = rng.choice(problems)
        n = rng.randint(1, 8)
        if problem == "maxconv":
            payload = {"a": rand_seq(rng, n, 20), "b": rand_seq(rng, n, 20)}
        elif problem in ("superadd", "mcsp"):
            payload = {"a": rand_seq(rng, n, 20)}
        else:
            payload = {
                "items": [[rng.randint(1, 9), rng.randint(0, 9)] for _ in range(n)],
                "capacity": rng.randint(0, 9),
            }
        text = dump_instance(problem, payload, {"seed": 0})
        doc = parse_instance(text)
        assert doc["payload"] == payload
        assert dump_instance(doc["problem"], doc["payload"], doc["meta"]) == text

    _verdict("criterion 9 (property suite)", "4 families x >= 1000 cases")


def test_criterion_10_performance_smoke():
    rng = random.Random(20260810)
    n = 4096
    a = rand_seq(rng, n, 1024)
    b = rand_seq(rng, n, 1024)
    start = time.perf_counter()
    maxconv_values(a, b, kernel="naive")
    naive_s = time.perf_counter() - start
    assert naive_s < 10.0

    start = time.perf_counter()
    maxconv_values(a, b, kernel="python")
    python_s = time.perf_counter() - start

    m = 512
    a = rand_seq(rng, m, 1024)
    b = rand_seq(rng, m, 1024)
    start = time.perf_counter()
    got = max_conv_via_upperbound(a, b)
    via_s = time.perf_counter() - start
    assert got == max_conv(a, b, limit=m - 1)
    assert via_s < 60.0

    _verdict(
        "criterion 10 (performance smoke)",
        f"naive n=4096 {naive_s:.2f}s, python n=4096 {python_s:.2f}s, "
        f"decision route n=512 {via_s:.1f}s",
    )
