"""Recovering the full convolution from the dominance oracle."""

import math
import random

from maxconv import core
from maxconv.core import _dominates
from maxconv.decision import _dominates_before_pad
from maxconv import (
    check_upper_bound,
    detect_single,
    detect_violations,
    is_superadditive,
    max_conv,
    max_conv_via_upperbound,
    maxconv_values,
    reduce_upperbound_to_superadditivity,
)

from helpers import rand_seq


def test_detect_single_none_when_dominated():
    a, b = [0, 1, 2], [1, 0, 2]
    c = maxconv_values(a, b, 2)
    assert detect_single(a, b, c) is None


def test_detect_single_finds_smallest_index():
    assert detect_single([0, 1], [0, 1], [0, 0]) == 1
    rng = random.Random(4001)
    for _ in range(200):
        n = rng.randint(1, 24)
        a = rand_seq(rng, n, 30)
        b = rand_seq(rng, n, 30)
        c = maxconv_values(a, b, n - 1)
        hits = sorted(rng.sample(range(n), rng.randint(0, min(3, n))))
        for k in hits:
            c[k] -= 1 + rng.randint(0, 4)
        want = hits[0] if hits else None
        assert detect_single(a, b, c) == want


def test_detect_single_oracle_call_budget():
    calls = 0

    def oracle(a, b, c):
        nonlocal calls
        calls += 1
        return check_upper_bound(a, b, c)

    n = 37
    rng = random.Random(4002)
    a = rand_seq(rng, n, 50)
    b = rand_seq(rng, n, 50)
    c = maxconv_values(a, b, n - 1)
    c[20] -= 3
    assert detect_single(a, b, c, oracle) == 20
    assert calls <= math.ceil(math.log2(n)) + 1


def test_detect_violations_slack_and_deficit():
    rng = random.Random(4003)
    a = rand_seq(rng, 12, 20)
    b = rand_seq(rng, 12, 20)
    conv = maxconv_values(a, b, 11)
    none = detect_violations(a, b, [v + 1 for v in conv])
    assert not any(none.violated)
    every = detect_violations(a, b, [v - 1 for v in conv])
    assert all(every.violated)


def test_detect_violations_recovers_planted_subset_seed4004():
    rng = random.Random(4004)
    for _ in range(100):
        n = rng.randint(1, 40)
        a = rand_seq(rng, n, 25)
        b = rand_seq(rng, n, 25)
        c = maxconv_values(a, b, n - 1)
        planted = sorted(rng.sample(range(n), rng.randint(0, n)))
        for k in planted:
            c[k] -= 1 + rng.randint(0, 6)
        keep = list(c)
        report = detect_violations(a, b, c)
        assert [k for k in range(n) if report.violated[k]] == planted
        assert c == keep  # caller's copy is never touched


def test_detect_violations_call_accounting():
    rng = random.Random(4005)
    for _ in range(30):
        n = rng.randint(4, 36)
        a = rand_seq(rng, n, 20)
        b = rand_seq(rng, n, 20)
        c = maxconv_values(a, b, n - 1)
        marks = rng.sample(range(n), rng.randint(0, n // 2))
        for k in marks:
            c[k] -= 1
        report = detect_violations(a, b, c)
        m = math.isqrt(n)
        if m * m < n:
            m += 1
        s = -(-n // m)
        blocks = -(-n // s)
        singles = blocks * blocks + len(marks)
        per_single = math.ceil(math.log2(2 * s)) + 1
        assert report.oracle_calls <= singles * per_single


def test_via_upperbound_trivial_and_small():
    assert max_conv_via_upperbound([0], [0]) == [0]
    assert max_conv_via_upperbound([0, 1], [0, 2]) == [0, 2]


def test_via_upperbound_matches_kernel_seed4006():
    rng = random.Random(4006)
    for _ in range(100):
        n = rng.randint(1, 48)
        a = rand_seq(rng, n, 200)
        b = rand_seq(rng, n, 200)
        assert max_conv_via_upperbound(a, b) == max_conv(a, b, limit=n - 1)


def test_via_upperbound_accepts_reduction_chain_oracle():
    def chained(a, b, c):
        out = reduce_upperbound_to_superadditivity(a, b, c)
        return out.interpret([is_superadditive(out.instances[0])])

    rng = random.Random(4007)
    for _ in range(10):
        n = rng.randint(1, 10)
        a = rand_seq(rng, n, 12)
        b = rand_seq(rng, n, 12)
        assert max_conv_via_upperbound(a, b, chained) == max_conv(a, b, limit=n - 1)


def _brute_violated(a, b, c):
    conv = maxconv_values(a, b, len(a) - 1, "python")
    return tuple(conv[k] > c[k] for k in range(len(a)))


def test_default_oracle_is_check_upper_bound_seed4008():
    # Lengths around perfect squares and interval multiples put the -K/K
    # padding at every kind of block edge.
    rng = random.Random(4008)
    lengths = [1, 2, 3, 4, 5, 8, 9, 10, 15, 16, 17, 24, 25, 26, 35, 36, 37, 50]
    lengths += [rng.randint(1, 64) for _ in range(42)]
    for n in lengths:
        bound = rng.choice([3, 40, 10**6])
        a = rand_seq(rng, n, bound)
        b = rand_seq(rng, n, bound)
        c = maxconv_values(a, b, n - 1)
        for k in rng.sample(range(n), rng.randint(0, n)):
            c[k] += rng.randint(-3, 1)
        default = detect_violations(a, b, c)
        checked = detect_violations(a, b, c, check_upper_bound)
        assert default == checked
        assert default.violated == _brute_violated(a, b, c)


def test_via_upperbound_is_exact_past_the_retired_headroom_bound_seed4009():
    # The windows detect_violations builds hold K = 2*n*w + 1.  From small
    # values, through the retired headroom bound (n * w * 400 <= 2^63 - 1),
    # to w past 2^63 itself, every answer is exact.
    rng = random.Random(4009)
    word = 2**63 - 1
    for n in (1, 2, 5, 9, 12):
        top = word // (400 * n)  # the old headroom bound for a and b
        assert top << 16 > word
        for shift in range(-16, 60, 4):
            w = max(1, top << -shift if shift < 0 else top >> shift)
            a = [rng.randint(-w, w) for _ in range(n)]
            b = [rng.randint(-w, w) for _ in range(n)]
            a[rng.randrange(n)] = rng.choice([-w, w])
            assert max_conv_via_upperbound(a, b) == max_conv(a, b, limit=n - 1)


def _blocks(n):
    m = math.isqrt(n)
    if m * m < n:
        m += 1
    s = -(-n // m)
    return s, -(-n // s)


def _first_violating_pair(a, b, c):
    for k in range(len(c)):
        for i in range(k + 1):
            if a[i] + b[k - i] > c[k]:
                return (i, k - i)
    return None


def test_window_oracle_matches_dominates_seed6001():
    # Windows built as detect_violations builds them, padded with -K (a, b)
    # and K (c past n, and masked hits); every prefix query, in a shuffled
    # order, gets the same Decision from the pad-trimmed oracle as from
    # _dominates on the whole prefix, and the witness a brute-force scan
    # finds.  c reaches -w, the least value it can hold, so a sum with a
    # pad is tested against the tightest cap.
    rng = random.Random(6001)
    lengths = [1, 2, 3, 4, 5, 8, 9, 10, 15, 16, 17, 24, 25, 26, 35, 36, 37, 50]
    lengths += [rng.randint(1, 64) for _ in range(12)]
    for n in lengths:
        w = rng.choice([3, 40, 10**6])
        a, b = rand_seq(rng, n, w), rand_seq(rng, n, w)
        c = maxconv_values(a, b, n - 1)
        for k in rng.sample(range(n), rng.randint(0, n)):
            c[k] += rng.randint(-3, 1)
        c = [max(-w, min(w, v)) for v in c]
        c[rng.randrange(n)] = -w
        mask = 2 * n * w + 1
        for k in rng.sample(range(n), rng.randint(0, n // 3)):
            c[k] = mask
        s, blocks = _blocks(n)
        for x in range(blocks):
            for y in range(blocks):
                a_loc = a[x * s : (x + 1) * s]
                a_loc += [-mask] * (2 * s - len(a_loc))
                b_loc = b[y * s : (y + 1) * s]
                b_loc += [-mask] * (2 * s - len(b_loc))
                base = (x + y) * s
                c_loc = c[base : base + 2 * s]
                c_loc += [mask] * (2 * s - len(c_loc))
                prefixes = list(range(1, 2 * s + 1))
                rng.shuffle(prefixes)
                for p in prefixes:
                    args = a_loc[:p], b_loc[:p], c_loc[:p]
                    got = _dominates_before_pad(*args, -mask)
                    assert got == _dominates(*args)
                    assert got.witness == _first_violating_pair(*args)


def test_default_oracle_reports_match_per_query_path_seed6002(monkeypatch):
    # Both paths make one kernel call per oracle query; the default one
    # never hands the kernel a pad.
    kernel_calls, trimmed = 0, True
    naive = core.KERNELS["naive"]

    def counted(a, b, limit):
        nonlocal kernel_calls
        kernel_calls += 1
        if trimmed:
            assert max(map(abs, a + b)) <= 30
        return naive(a, b, limit)

    monkeypatch.setitem(core.KERNELS, "naive", counted)

    def per_query(a, b, c):
        return _dominates(a, b, c)

    rng = random.Random(6002)
    for n in [1, 2, 3, 4, 8, 9, 10, 16, 17, 25, 26, 36, 37] + [rng.randint(1, 48) for _ in range(15)]:
        a, b = rand_seq(rng, n, 30), rand_seq(rng, n, 30)
        c = maxconv_values(a, b, n - 1)
        for k in rng.sample(range(n), rng.randint(0, n)):
            c[k] += rng.randint(-4, 1)
        kernel_calls, trimmed = 0, True
        default = detect_violations(a, b, c)
        assert kernel_calls == default.oracle_calls
        kernel_calls, trimmed = 0, False
        queried = detect_violations(a, b, c, per_query)
        assert kernel_calls == queried.oracle_calls
        assert default == queried
        trimmed = True
        got = max_conv_via_upperbound(a, b)
        trimmed = False
        assert got == max_conv_via_upperbound(a, b, per_query)
