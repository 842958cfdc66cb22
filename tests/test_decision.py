"""Recovering the full convolution from the dominance oracle."""

import functools
import math
import random
from itertools import compress

import numpy as np
import pytest

from maxconv import core, decision
from maxconv.core import _dominates
from maxconv import (
    check_upper_bound,
    detect_single,
    detect_violations,
    is_superadditive,
    max_conv,
    max_conv_via_upperbound,
    maxconv_values,
    reduce_upperbound_to_superadditivity,
    ViolationReport,
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


def test_detect_single_from_a_start_seed6007():
    # With every prefix of length <= start holding, the search over the
    # lengths start + 1 .. n finds the index the search from 0 finds, in at
    # most ceil(log2(n - start)) + 1 queries.
    calls = 0

    def oracle(a, b, c):
        nonlocal calls
        calls += 1
        return check_upper_bound(a, b, c)

    rng = random.Random(6007)
    for _ in range(300):
        n = rng.randint(1, 40)
        a, b = rand_seq(rng, n, 30), rand_seq(rng, n, 30)
        c = maxconv_values(a, b, n - 1)
        hits = sorted(rng.sample(range(n), rng.randint(0, min(3, n))))
        for k in hits:
            c[k] -= 1 + rng.randint(0, 4)
        want = hits[0] if hits else None
        start = rng.randint(0, hits[0] if hits else n - 1)
        calls = 0
        assert detect_single(a, b, c, oracle, start=start) == want == detect_single(a, b, c)
        assert calls <= math.ceil(math.log2(n - start)) + 1
    for bad, error in (
        (-1, ValueError),
        (3, ValueError),
        (np.int64(3), ValueError),
        (True, TypeError),
        (np.bool_(True), TypeError),
        (1.0, TypeError),
        ("1", TypeError),
    ):
        with pytest.raises(error, match="start"):
            detect_single([0] * 3, [0] * 3, [0] * 3, start=bad)
    assert detect_single([0] * 3, [0] * 3, [0, -1, 0], start=np.int64(1)) == 1


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


def test_detect_violations_masks_above_every_real_sum():
    # a and b at +w and every |c| <= w: each real sum is 2w, so a mask or
    # window entry past n of 2w or less would hide a violation, or count a
    # masked entry again.  K = 2*n*w + 1 stays above them all.  Pair (0, 0)
    # finds outputs 0, 1 and 2 in 3 + 2 + 1 queries and asks nothing of
    # output 3 = 2s - 1, which has no split there; pair (0, 1) finds output
    # 3 in one query, and pair (1, 0) has no live output.
    assert detect_violations([5] * 4, [5] * 4, [0] * 4) == ViolationReport((True,) * 4, 7)


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
        singles = blocks * (blocks + 1) // 2 + len(marks)
        per_single = math.ceil(math.log2(2 * s)) + 1
        assert report.oracle_calls <= singles * per_single


def test_detect_violations_skips_the_pairs_past_n(monkeypatch):
    # A pair (x, y) with x + y >= blocks has a c window that starts at or
    # past n, so it is not visited: the live pass runs once per pair before
    # that.  With a c that dominates, each pair with a live output makes
    # exactly one search, on the prefix up to its last live output and
    # started at its first, and no other pair makes one.
    searches, passes = [], []
    inner, compress = decision.detect_single, decision.compress

    def counted(a, b, c, oracle, *, start=0):
        searches.append((len(c), start, inner(a, b, c, oracle, start=start)))
        return searches[-1][2]

    def visited(data, selectors):
        passes.append(None)
        return compress(data, selectors)

    monkeypatch.setattr(decision, "detect_single", counted)
    monkeypatch.setattr(decision, "compress", visited)
    rng = random.Random(6004)
    for n in [1, 2, 3, 4, 5, 8, 9, 10, 16, 17, 24, 25, 26, 48, 128] + [rng.randint(1, 99) for _ in range(10)]:
        a, b = rand_seq(rng, n, 50), rand_seq(rng, n, 50)
        c = [v + rng.randint(0, 2) for v in maxconv_values(a, b, n - 1)]
        searches.clear()
        passes.clear()
        report = detect_violations(a, b, c)
        s, blocks = _blocks(n)
        want, found = _searches(a, b, c)
        assert not any(report.violated) and not found
        assert len(passes) == blocks * (blocks + 1) // 2
        assert searches == want
        assert report.oracle_calls == len(searches)


def test_queries_counted_where_they_are_made_match_the_report_seed6008(monkeypatch):
    # The benchmark's tracer counts queries by wrapping decision.detect_single
    # and the oracle each call is handed as its 4th positional argument, and
    # checks the sum against ViolationReport.oracle_calls.  That seam holds
    # through the default oracle and a caller-supplied one, for
    # detect_violations and for the rounds of max_conv_via_upperbound.
    counted = reported = queries = 0
    single, scan = decision.detect_single, decision.detect_violations

    def traced_single(a, b, c, oracle, *args, **kwargs):
        def query(*q):
            nonlocal counted
            counted += 1
            return oracle(*q)

        return single(a, b, c, query, *args, **kwargs)

    def traced_scan(*args):
        nonlocal reported
        report = scan(*args)
        reported += report.oracle_calls
        return report

    monkeypatch.setattr(decision, "detect_single", traced_single)
    monkeypatch.setattr(decision, "detect_violations", traced_scan)
    rng = random.Random(6008)
    for n in [1, 2, 3, 4, 9, 10, 16, 17, 26] + [rng.randint(1, 48) for _ in range(8)]:
        a, b = rand_seq(rng, n, 40), rand_seq(rng, n, 40)
        c = maxconv_values(a, b, n - 1)
        for k in rng.sample(range(n), rng.randint(0, n)):
            c[k] += rng.randint(-4, 1)
        for oracle in (_dominates, check_upper_bound):
            counted = 0
            report = detect_violations(a, b, c, oracle)
            assert report.oracle_calls == counted
            queries += counted
            assert report.violated == _brute_violated(a, b, c)
            counted = reported = 0
            assert max_conv_via_upperbound(a, b, oracle) == max_conv(a, b, limit=n - 1)
            assert reported == counted
    assert queries > 0


def _window_bound(vals, x, s, k):
    """The largest entry of the interval-x window of vals that a split i + j
    = k of local output k can use: i runs over max(0, k - s + 1) ..
    min(k, s - 1), a prefix of the window for k < s and a suffix of its
    interval for k >= s.  None if no real entry is in range (always so for
    k = 2s - 1, and past the end of a short last interval)."""
    lo, hi = max(0, k - s + 1), min(k, s - 1)
    return max(vals[x * s + lo : x * s + hi + 1], default=None)


def _pair_bound(a, b, x, y, s, k):
    """The two-sided certificate of output k of block pair (x, y), or None
    if it has no split there."""
    ta, tb = _window_bound(a, x, s, k), _window_bound(b, y, s, k)
    return None if ta is None or tb is None else ta + tb


@functools.lru_cache(maxsize=4)
def _pair_bounds(a, b):
    """_pair_bound of every output of every visited block pair, keyed by the
    pair; a and b are tuples, so that one table serves many c."""
    n = len(a)
    s, blocks = _blocks(n)
    return {(x, y): [_pair_bound(a, b, x, y, s, k) for k in range(min(2 * s, n - (x + y) * s))]
            for x in range(blocks) for y in range(blocks - x)}


def _searches(a, b, c, pairs=None):
    """The searches detect_violations makes, as (prefix length, start,
    answer), and the outputs it reports, from the live outputs of each
    block pair and a brute-force scan of the window sums.  ``pairs``, if
    given, gets (c - bound per unmasked output with a split, live, hits)
    for each pair."""
    n = len(a)
    s, blocks = _blocks(n)
    searches, found = [], set()
    table = _pair_bounds(tuple(a), tuple(b))
    for x in range(blocks):
        for y in range(blocks - x):
            base = (x + y) * s
            gap = {k: c[base + k] - bound for k, bound in enumerate(table[x, y])
                   if bound is not None and base + k not in found}
            live = [k for k, d in gap.items() if d < 0]
            hits = [k for k in live if any(
                a[x * s + i] + b[y * s + k - i] > c[base + k]
                for i in range(max(0, k - s + 1), min(k, s - 1) + 1)
                if x * s + i < n and y * s + k - i < n)]
            if pairs is not None:
                pairs.append((gap, live, hits))
            if not live:
                continue
            start = live[0]
            for k in hits:
                searches.append((live[-1] + 1, start, k))
                found.add(base + k)
                start = next((j for j in live if j > k), None)
                if start is None:
                    break
            else:
                searches.append((live[-1] + 1, start, None))
    return searches, found


def test_certified_searches_at_the_bound_edges_seed6006(monkeypatch):
    # On the shaped operands of seed6005, c is the convolution with outputs
    # set at a covering pair's two-sided bound (never live there), at the
    # bound - 1 (live), or one below the convolution (violated).  Every
    # search detect_violations makes, through the default oracle and a
    # caller-supplied one, is the one the live lists give, and the report is
    # the brute-force one.  Each edge below turns up at every magnitude.
    searches = []
    inner = decision.detect_single

    def counted(a, b, c, oracle, *, start=0):
        searches.append((len(c), start, inner(a, b, c, oracle, start=start)))
        return searches[-1][2]

    monkeypatch.setattr(decision, "detect_single", counted)
    rng = random.Random(6006)
    for w in (1, 30, 2**70):
        edges = set()
        for n in (1, 2, 3, 5, 9, 17, 30):
            s, blocks = _blocks(n)
            for sa in SHAPES:
                for sb in SHAPES:
                    a, b = _shaped(rng, sa, n, w), _shaped(rng, sb, n, w)
                    c = maxconv_values(a, b, n - 1)
                    for g in rng.sample(range(n), rng.randint(0, n)):
                        x, y = rng.choice([(x, t - x) for t in (g // s - 1, g // s)
                                           if 0 <= t < blocks for x in range(t + 1)])
                        bound = _pair_bound(a, b, x, y, s, g - (x + y) * s)
                        if bound is None:  # output 2s - 1 of the pair, or past a short block
                            bound = c[g]
                        c[g] = rng.choice([bound, bound, bound - 1, c[g] - 1])
                    pairs = []
                    want, found = _searches(a, b, c, pairs)
                    assert found == {k for k, v in enumerate(_brute_violated(a, b, c)) if v}
                    for oracle in (_dominates, check_upper_bound):
                        searches.clear()
                        report = detect_violations(a, b, c, oracle)
                        assert searches == want, (sa, sb, n, w)
                        assert set(compress(range(n), report.violated)) == found
                    for gap, live, hits in pairs:
                        if not live and 0 in gap.values():
                            edges.add("at the bound, no query")
                        if any(gap[k] == -1 for k in live):
                            edges.add("at the bound - 1, searched")
                        if hits and hits[0] == live[0]:
                            edges.add("first live output violated")
                        if hits and hits[-1] == live[-1]:
                            edges.add("last live output violated")
                        if len(hits) >= 2:
                            edges.add("two hits in one pair")
        assert len(edges) == 5, (w, edges)


def test_two_sided_certificate_seed6010(monkeypatch):
    # c is 2w, at least every sum, but at one output: local output k of block
    # pair (x, y), for k in s - 1, s, s + 1, 2s - 2 and 2s - 1.  From k = s
    # on, a split of k takes i and j from k - s + 1 .. s - 1, so the pair's
    # bound is the sum of the maxima of those suffixes of its intervals, and
    # output 2s - 1 has no split.  At that bound the output gets no query
    # from the pair; at the bound - 1 it is searched.  n = 130 (s = 11) ends
    # in a block of 9 entries.  The searches are the ones the live lists
    # give, and the report is the brute-force one.
    searches = []
    inner = decision.detect_single

    def counted(a, b, c, oracle, *, start=0):
        searches.append((len(c), start, inner(a, b, c, oracle, start=start)))
        return searches[-1][2]

    monkeypatch.setattr(decision, "detect_single", counted)
    rng = random.Random(6010)
    w = 30
    edges = set()
    for n in (1, 2, 3, 130):
        s, blocks = _blocks(n)
        a, b = rand_seq(rng, n, w), rand_seq(rng, n, w)
        conv = maxconv_values(a, b, n - 1)
        names = {"s - 1": s - 1, "s": s, "s + 1": s + 1, "2s - 2": 2 * s - 2, "2s - 1": 2 * s - 1}
        for p, (x, y) in enumerate((x, y) for x in range(blocks) for y in range(blocks - x)):
            base = (x + y) * s
            for k in sorted(set(names.values())):
                g = base + k
                if g >= n:
                    continue
                bound = _pair_bound(a, b, x, y, s, k)
                for at in [None] if bound is None else [bound, bound - 1]:
                    c = [2 * w] * n
                    c[g] = conv[g] - 1 if at is None else at
                    searches.clear()
                    report = detect_violations(a, b, c)
                    pairs = []
                    want, found = _searches(a, b, c, pairs)
                    assert searches == want, (n, x, y, k, at)
                    assert report.violated == tuple(v > cap for v, cap in zip(conv, c))
                    assert set(compress(range(n), report.violated)) == found
                    # The pair's live list; k is missing from gap when no
                    # split of it exists there, or an earlier pair masked it.
                    gap, live, _ = pairs[p]
                    if at is None:
                        assert k not in gap
                        case = "no split"
                    elif at == bound:
                        assert live == []
                        case = "at the bound"
                    else:
                        assert live == ([k] if k in gap else [])
                        case = "at the bound - 1" if live else "masked"
                    edges.update((name, case) for name, v in names.items() if v == k)
                    if case not in ("at the bound", "at the bound - 1") or k < s:
                        continue
                    # Where a suffix started one entry early or late moves
                    # the bound.  Both suffixes are non-empty here.
                    a_head, a_tail = a[x * s + k - s], a[x * s + k - s + 1 : (x + 1) * s]
                    b_head, b_tail = b[y * s + k - s], b[y * s + k - s + 1 : (y + 1) * s]
                    if at == bound and (a_head > max(a_tail) or b_head > max(b_tail)):
                        edges.add("entry k - s above the bound")
                    if at < bound and all(v < a_tail[0] for v in a_tail[1:]):
                        edges.add("suffix max only at k - s + 1")
        if n == 130:
            assert (s, n - (blocks - 1) * s) == (11, 9)
    want_edges = {(name, case) for name in names for case in ("at the bound", "at the bound - 1")}
    want_edges -= {("2s - 1", "at the bound"), ("2s - 1", "at the bound - 1")}
    want_edges |= {("2s - 1", "no split"), "entry k - s above the bound", "suffix max only at k - s + 1"}
    assert want_edges <= edges, want_edges - edges


def _shaped(rng, shape, n, w):
    vals = [rng.randint(-w, w) for _ in range(n)]
    if shape == "non-decreasing":
        return sorted(vals)
    if shape == "non-increasing":
        return sorted(vals, reverse=True)
    if shape == "constant":
        return [vals[0]] * n
    spike = [rng.randint(-3, 3) for _ in range(n)]
    spike[rng.randrange(n)] = rng.choice([-w, w])
    return spike


SHAPES = ["non-decreasing", "non-increasing", "constant", "spike"]


def test_via_upperbound_on_shaped_operands_seed6005():
    # Monotone, constant and one-spike operands put the argmax of each
    # prefix at its start, at its end, everywhere and at one place: every
    # starting bracket holds the answer, and the bisection from it is exact
    # through the default oracle and through a caller-supplied one.
    rng = random.Random(6005)
    for n in (1, 2, 3, 17, 48):
        for sa in SHAPES:
            for sb in SHAPES:
                w = rng.choice([1, 30, 2**40, 2**70])
                a, b = _shaped(rng, sa, n, w), _shaped(rng, sb, n, w)
                want = max_conv(a, b, limit=n - 1)
                lo, hi = decision._bracket(a, b)
                assert all(l <= v <= h for l, v, h in zip(lo, want, hi)), (sa, sb, n)
                assert max_conv_via_upperbound(a, b) == want
                assert max_conv_via_upperbound(a, b, check_upper_bound) == want


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


def test_the_search_builds_no_sequence_seed6009(monkeypatch):
    # Counted where the benchmark's tracer counts: Sequence.__init__.  On
    # plain lists the only Sequence is max_conv_via_upperbound's result.
    built = []
    init = core.Sequence.__init__

    def counted(self, values):
        built.append(len(values))
        init(self, values)

    monkeypatch.setattr(core.Sequence, "__init__", counted)
    rng = random.Random(6009)
    a, b = rand_seq(rng, 40, 200), rand_seq(rng, 40, 200)
    c = maxconv_values(a, b, 39)
    c[7] -= 1
    assert detect_violations(a, b, c).violated[7]
    assert built == []
    assert max_conv_via_upperbound(a, b).values == tuple(maxconv_values(a, b, 39))
    assert built == [40]


def test_the_default_oracle_builds_no_decision_seed6011(monkeypatch):
    # The default oracle returns a bare bool: the route builds no
    # core.Decision, per query or otherwise, while check_upper_bound as the
    # oracle builds one per query.  An oracle that returns a plain bool gets
    # the report check_upper_bound gets.
    built = []
    init = core.Decision.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def plain(a, b, c):
        return all(a[i] + b[k - i] <= c[k] for k in range(len(c)) for i in range(k + 1))

    monkeypatch.setattr(core.Decision, "__init__", counted)
    rng = random.Random(6011)
    for n in (1, 2, 3, 10, 17, 40):
        a, b = rand_seq(rng, n, 200), rand_seq(rng, n, 200)
        built.clear()
        assert max_conv_via_upperbound(a, b).values == tuple(maxconv_values(a, b, n - 1))
        assert built == []
        c = maxconv_values(a, b, n - 1)
        for k in rng.sample(range(n), rng.randint(0, n)):
            c[k] += rng.randint(-3, 1)
        report = detect_violations(a, b, c)
        assert built == []
        checked = detect_violations(a, b, c, check_upper_bound)
        assert len(built) == checked.oracle_calls
        assert detect_violations(a, b, c, plain) == checked == report
        assert report.violated == _brute_violated(a, b, c)


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


def test_dominates_on_padded_windows_seed6001():
    # Windows built as detect_violations builds them, padded with -K (a, b)
    # and K (c past n, and masked hits): every prefix query, in a shuffled
    # order, gets from _dominates the verdict, and from check_upper_bound the
    # verdict and the witness, that a brute-force scan finds.  c reaches -w, the least value it can hold, so a sum with
    # a pad is tested against the tightest cap.
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
                    want = _first_violating_pair(*args)
                    assert _dominates(*args) is (want is None)
                    got = check_upper_bound(*args)
                    assert (got.holds, got.witness) == (want is None, want)


def test_default_oracle_reports_match_per_query_path_seed6002(monkeypatch):
    # Both paths make one kernel call per oracle query, on the query's own
    # equal-length prefixes over every output.
    kernel_calls = 0
    naive = core.KERNELS["naive"]

    def counted(a, b, limit):
        nonlocal kernel_calls
        kernel_calls += 1
        assert len(a) == len(b) == limit + 1
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
        kernel_calls = 0
        default = detect_violations(a, b, c)
        assert kernel_calls == default.oracle_calls
        kernel_calls = 0
        queried = detect_violations(a, b, c, per_query)
        assert kernel_calls == queried.oracle_calls
        assert default == queried
        assert max_conv_via_upperbound(a, b) == max_conv_via_upperbound(a, b, per_query)


def _tailed_triple(rng, n, w):
    """(a, b, c) whose a and b often end in entries that cannot violate,
    sometimes right after one whose sum with the other's max is min(c) + 1."""
    a, b = rand_seq(rng, n, w), rand_seq(rng, n, w)
    c = maxconv_values(a, b, n - 1)
    for k in rng.sample(range(n), rng.randint(0, n)):
        c[k] += rng.randint(-3, 1)
    low = min(c)
    for x, y in ((a, b), (b, a)):
        cut, top = rng.randint(0, n), max(y)
        x[cut:] = [low - top - rng.choice([0, 0, 1, 7]) for _ in range(n - cut)]
        if cut and rng.random() < 0.5:
            x[cut - 1] = low - top + 1
    return a, b, c


def _tailed_superadd(rng, n, w):
    """A sequence ending in copies of its minimum m; with its max M <= 0
    those cannot violate (m + M <= m), and M = 0 meets the bound exactly."""
    a = [rng.randint(-w, 0) for _ in range(rng.randint(1, n))]
    if rng.random() < 0.5:
        a[0] = 0
    low = min(a) - rng.randint(0, 3)
    if len(a) < n and rng.random() < 0.5:
        a[-1] = low + 1 - max(a)
    return a + [low] * (n - len(a))


@pytest.mark.parametrize("kernel", sorted(core.KERNELS))
def test_dominates_convolves_the_whole_lists_seed6003(kernel, monkeypatch):
    # The one kernel call gets a and b as handed, over every output, also
    # when they end in entries whose sum with the other operand's max is at
    # most min(c).  Verdict and witness are those of the brute-force scan.
    calls = []
    inner = core.KERNELS[kernel]

    def counted(a, b, limit):
        calls.append((list(a), list(b), limit))
        return inner(a, b, limit)

    monkeypatch.setitem(core.KERNELS, kernel, counted)
    monkeypatch.setattr(core, "DEFAULT_KERNEL", kernel)
    rng = random.Random(6003)
    sizes = [rng.randint(1, 12) for _ in range(150)] + [rng.randint(50, 90) for _ in range(20)]
    triples = [_tailed_triple(rng, n, rng.choice([3, 40, 2**62])) for n in sizes]
    triples += [(a, b, [2 * len(a) * 10 + 1] * len(a)) for a, b in
                ([rand_seq(rng, n, 10), rand_seq(rng, n, 10)] for n in (1, 2, 7, 80))]
    triples += [(a, a, a) for a in (_tailed_superadd(rng, n, 9) for n in sizes)]
    triples += [([v] * n, [v] * n, [v] * n) for v in (0, -5) for n in (1, 3, 70)]
    for a, b, c in triples:
        n = len(a)
        calls.clear()
        got = is_superadditive(a) if a is b is c else check_upper_bound(a, b, c)
        want = _first_violating_pair(a, b, c)
        assert (got.holds, got.witness) == (want is None, want)
        assert calls == [(a, b, n - 1)]


def test_rounds_within_the_bracket_bound_seed6009(monkeypatch):
    # Each round of max_conv_via_upperbound cuts every interval _bracket
    # gave to at most half its size, rounded up, so the route takes at most
    # ceil(log2 S) rounds, S the widest interval's size hi - lo + 1: none
    # when S = 1.  The bound is met exactly on some case.
    rounds = 0
    scan = decision.detect_violations

    def counted_scan(*args):
        nonlocal rounds
        rounds += 1
        return scan(*args)

    monkeypatch.setattr(decision, "detect_violations", counted_scan)
    rng = random.Random(6009)
    met = 0
    cases = [([5], [-3]), ([2, 2, 2], [0, 0, 0]), ([0, 1], [0, 0])]
    for _ in range(300):
        n = rng.randint(1, 20)
        w = rng.choice([1, 10, 1000, 10**6])
        a, b = rand_seq(rng, n, w), rand_seq(rng, n, w)
        if rng.random() < 0.3:
            a.sort()
        cases.append((a, b))
    for a, b in cases:
        want = maxconv_values(a, b, len(a) - 1)
        lo, hi = decision._bracket(a, b)
        assert all(l <= v <= h for l, v, h in zip(lo, want, hi)), (a, b)
        width = max(h - l + 1 for l, h in zip(lo, hi))
        bound = (width - 1).bit_length()  # ceil(log2 width)
        rounds = 0
        assert max_conv_via_upperbound(a, b) == max_conv(a, b, limit=len(a) - 1)
        assert rounds <= bound, (a, b, rounds, width)
        met += rounds == bound > 0
    assert met > 0
