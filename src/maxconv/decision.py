"""Full max-plus convolution recovered from a yes/no dominance oracle.

The oracle answers "does c dominate the convolution of a and b?".  A
prefix binary search locates the smallest violated output index; splitting
the index range into roughly sqrt(n) intervals and masking found indices
with a huge constant turns that into a scan reporting every violated
index; finally a per-coordinate binary search on candidate values,
started from a bracket that one pass over a and b gives, converges to
the exact convolution.  With the quadratic oracle this is a
correctness construction, not a speedup, and the module is written for
auditability rather than pace.

The scan asks no query that a two-sided bound already answers.  On a
block pair's windows of s entries each, a split i + j = k of output k
takes i and j from max(0, k - s + 1) .. min(k, s - 1): a prefix of each
window for k < s, a suffix from k - s + 1 for k >= s, and nothing for
k = 2s - 1.  An output whose c is at least the sum of the two maxima
over those ranges cannot be violated; only the other outputs are live.
A pair with none makes no query, and each search of the others runs on
the prefix that ends at the last live output, starts its bisection at
the first live output not yet settled, and resumes past each hit.  Only
outputs that provably hold are skipped, so the report is the same for
every correct oracle.

Inputs are checked where they enter: each public function runs
``core.as_values`` on its own arguments, once per call, and the search
builds no Sequence, only plain lists.  The default oracle is
``core._dominates``: the verdict of ``check_upper_bound``, without its
input check and its witness, returned as a bool.  It only sees slices of
lists detect_single has already checked.  Every oracle receives plain
lists, is called once per query, and is read only for the truth of what
it returns; ``oracle_calls`` counts queries, and with the default oracle
each is one kernel call.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import add, lt
from typing import Callable

from .core import Sequence, SequenceLike, _check_int, _dominates, _equal_lists

# An oracle may return anything whose truth is the verdict: a bool, as the
# default does, or a core.Decision, as check_upper_bound does.
UpperBoundOracle = Callable[[list, list, list], object]


@dataclass(frozen=True)
class ViolationReport:
    """violated[k] is True iff c[k] < max_{i+j=k} (a[i] + b[j]) at call time.

    ``oracle_calls`` counts decision-oracle queries, for the accounting
    checks in the tests; with the default oracle each is one kernel call.
    """

    violated: tuple[bool, ...]
    oracle_calls: int


def detect_single(
    a: SequenceLike,
    b: SequenceLike,
    c: SequenceLike,
    upper_bound_oracle: UpperBoundOracle = _dominates,
    *,
    start: int = 0,
) -> int | None:
    """Smallest output index carrying a violation, or None if c dominates.

    Binary search over the prefix length p: the p-element prefixes of all
    three sequences contain a violation iff the smallest violated index is
    below p.  ``start`` is the caller's promise that every prefix of
    length at most ``start`` holds (0 <= start < n), so the search runs
    over the lengths start + 1 .. n and any answer is at least ``start``.
    ``start`` takes the check of ``maxconv_values``' limit (``_check_int``).
    Uses at most ceil(log2(n - start)) + 1 <= ceil(log2 n) + 1 oracle calls.
    """
    av, bv, cv, n = _equal_lists(a, b, c)
    start = _check_int(start, "start", None, TypeError)
    if not 0 <= start < n:
        raise ValueError(f"start must be in [0, {n}), got {start!r}")

    def holds(p: int) -> bool:
        return bool(upper_bound_oracle(av[:p], bv[:p], cv[:p]))

    if holds(n):
        return None
    lo, hi = start + 1, n
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid + 1
        else:
            hi = mid
    return hi - 1


def detect_violations(
    a: SequenceLike,
    b: SequenceLike,
    c: SequenceLike,
    upper_bound_oracle: UpperBoundOracle = _dominates,
) -> ViolationReport:
    """Report every violated output index, each exactly once.

    The index range is cut into ceil(sqrt(n)) intervals.  For every
    interval pair (x, y) with x + y < blocks the subproblem is translated
    to local coordinates (the relevant c window spans two intervals) and
    detect_single is repeated; each hit is masked in a working copy of c
    with K, a constant exceeding all feasible sums, so it can never be
    reported again.  a/b padding uses -K and therefore never violates.  A
    pair with x + y >= blocks starts its c window at or past n, so it has
    no output to search: at most blocks * (blocks + 1) / 2 pairs are
    searched.  The caller's c is left untouched.

    Within a pair, output k is live iff c[k] is below the sum of the a
    and b windows' maxima over the indices a split of k can use: the
    prefix up to k for k < s, the interval's suffix from k - s + 1 for
    s <= k < 2s - 1.  Output 2s - 1 has no split and is never live, and
    no output that is not live can be violated.  A pair with no live
    output makes no query.  Otherwise every search runs on the windows'
    prefixes up to the last live output, with ``start`` at the first live
    output it has not settled: the first one, then, after a hit at k, the
    first one past k.

    K = 2*n*w + 1, with w = max(1, max |value|) over a, b and c.  The a
    and b windows (plain lists of length 2*s, s the interval length) and
    their bounds are built once per call.  Values of any magnitude are
    exact.
    """
    av, bv, cv, n = _equal_lists(a, b, c)
    w = max(1, max(max(abs(v) for v in vals) for vals in (av, bv, cv)))
    mask = 2 * n * w + 1
    pad = -mask
    m = math.isqrt(n - 1) + 1
    s = -(-n // m)
    blocks = -(-n // s)
    cw = list(cv)
    violated = [False] * n
    calls = 0

    def oracle(xa: list, xb: list, xc: list) -> object:
        nonlocal calls
        calls += 1
        return upper_bound_oracle(xa, xb, xc)

    def window(vals: list, x: int) -> list:
        part = vals[x * s : (x + 1) * s]
        return part + [pad] * (2 * s - len(part))

    def tops(loc: list) -> list:
        # Largest entry a split of local output k can take from loc: up to
        # loc[k] for k < s, from loc[k-s+1 : s] for s <= k < 2s - 1.  The
        # list ends there, and so does the live test: 2s - 1 has no split.
        head = loc[:s]
        return list(accumulate(head, max)) + list(accumulate(reversed(head), max))[-2::-1]

    b_locs = [window(bv, y) for y in range(blocks)]
    b_tops = [tops(b_loc) for b_loc in b_locs]
    for x in range(blocks):
        a_loc = window(av, x)
        a_top = tops(a_loc)
        for y, b_loc in enumerate(b_locs[: blocks - x]):
            base = (x + y) * s
            c_loc = cw[base : base + 2 * s]
            live = list(compress(range(2 * s), map(lt, c_loc, map(add, a_top, b_tops[y]))))
            if not live:
                continue
            p = live[-1] + 1
            xa, xb, xc = a_loc[:p], b_loc[:p], c_loc[:p]
            start = live[0]
            while (k := detect_single(xa, xb, xc, oracle, start=start)) is not None:
                g = base + k
                assert not violated[g]
                violated[g] = True
                cw[g] = xc[k] = mask
                i = bisect_right(live, k)
                if i == len(live):
                    break
                start = live[i]
    return ViolationReport(tuple(violated), calls)


def max_conv_via_upperbound(
    a: SequenceLike,
    b: SequenceLike,
    upper_bound_oracle: UpperBoundOracle = _dominates,
) -> Sequence:
    """Equal-length max-plus convolution using only the decision oracle.

    Keeps per-index bounds lo..hi on the answer, started from _bracket;
    each round probes the midpoints, marks the violated coordinates, and
    cuts every interval of size m to at most ceil(m / 2), finishing within
    ceil(log2 S) rounds, S = max_k (hi[k] - lo[k] + 1) over _bracket's
    intervals (none when S = 1).  The probes lie between min(a) + min(b)
    and max(a) + max(b), so S is at most that range's size.
    """
    av, bv, n = _equal_lists(a, b)
    lo, hi = _bracket(av, bv)
    while any(l < h for l, h in zip(lo, hi)):
        cand = [(l + h) // 2 for l, h in zip(lo, hi)]
        report = detect_violations(av, bv, cand, upper_bound_oracle)
        for k in range(n):
            if report.violated[k]:
                lo[k] = cand[k] + 1
            else:
                hi[k] = cand[k]
    return Sequence(lo)


def _bracket(av: list, bv: list) -> tuple[list, list]:
    """Per-output bounds lo[k] <= max_{i+j=k} (a[i] + b[j]) <= hi[k].

    hi[k] = max(a[:k+1]) + max(b[:k+1]), since every split of k has
    i, j <= k.  lo[k] is the best of four real sums a[i] + b[k-i]: i = 0,
    i = k, i at the first argmax of a[:k+1], and k - i at that of b[:k+1].
    One pass over the lists, with no oracle call.
    """
    lo, hi = [], []
    ia = ib = 0
    for k, (x, y) in enumerate(zip(av, bv)):
        if x > av[ia]:
            ia = k
        if y > bv[ib]:
            ib = k
        hi.append(av[ia] + bv[ib])
        lo.append(max(av[0] + y, x + bv[0], av[ia] + bv[k - ia], av[k - ib] + bv[ib]))
    return lo, hi
