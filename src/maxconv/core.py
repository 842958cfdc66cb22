"""Integer sequences and exact (max,+)/(min,+) convolution kernels.

The product ``c[k] = max_{i+j=k} (a[i] + b[j])`` is the primitive every
other module builds on.  Kernels operate on raw integer lists and are
registered by name in ``KERNELS``; every route runs ``DEFAULT_KERNEL``,
looked up there when it runs, and only ``maxconv_values``, ``max_conv``
and ``min_conv`` take another kernel's name.  Every kernel must agree
exactly with the plain quadratic enumeration (the test suite enforces
this, it is never assumed).  This module also hosts the decision
predicates of the problem family: dominance checks against a candidate
output sequence and the self-dominance (superadditivity) test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, islice
from operator import gt, le, lt, ne
from typing import Callable, Iterable, Union

import numpy as np

WORD_MAX = 2**63 - 1

# Below this many candidate cells the plain Python loop beats numpy call
# overhead; both code paths run the identical enumeration.
_VECTOR_CUTOFF = 2048

# The numpy kernel sums _TILE_ROWS rows of a by _TILE_COLS output columns
# per step: a tile of 16 x 4096 int32 cells takes 256 KiB (int64: 512).
# Narrower is not cheaper: numpy copies a 2-D add through its buffer when
# rows hold at most a third of its 8192-element buffer (2730 columns), at
# several times the cost per cell.  A tile is skipped when its rows' max
# plus its b window's max is at most every output it folds into: no sum in
# it can raise one, so the skip is exact.
_TILE_ROWS = 16
_TILE_COLS = 4096

# Each lane's (min, max), looked up once: np.iinfo costs about 1.5 us a call.
_LANE_RANGE = {
    lane: (int(np.iinfo(lane).min), int(np.iinfo(lane).max)) for lane in (np.int32, np.int64)
}


def _int_values(values: Iterable) -> Union[list, tuple]:
    """The integer check behind Sequence and maxconv_values.

    Returns ``values`` itself when it is a list or tuple of plain ints (one
    pass at C speed); otherwise a list with ``np.integer`` values converted.
    ``bool`` and every non-integer raise TypeError.
    """
    if not isinstance(values, (list, tuple)):
        values = tuple(values)
    if set(map(type, values)) == {int}:
        return values
    vals = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise TypeError(f"sequence values must be integers, got {v!r}")
        vals.append(int(v))
    return vals


class Sequence:
    """Immutable, non-empty sequence of signed integers of any magnitude.

    Construction takes ints and numpy integers (bool and every other type
    raise TypeError) and keeps them as Python ints, so downstream
    arithmetic is exact at every size.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[int]):
        vals = tuple(_int_values(values))
        if not vals:
            raise ValueError("sequences must be non-empty")
        self.values: tuple[int, ...] = vals

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, idx):
        return self.values[idx]

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other) -> bool:
        if isinstance(other, Sequence):
            return self.values == other.values
        if isinstance(other, (list, tuple)):
            return list(self.values) == list(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"Sequence({list(self.values)!r})"

    def tolist(self) -> list[int]:
        return list(self.values)


SequenceLike = Union[Sequence, Iterable[int]]


def as_values(seq: SequenceLike) -> list[int]:
    """Coerce to a validated list of ints (runs Sequence construction checks)."""
    if isinstance(seq, Sequence):
        return list(seq.values)
    return list(Sequence(seq).values)


@dataclass(frozen=True)
class MaxConvInstance:
    """A convolution request: two operands plus an optional output cutoff."""

    a: Sequence
    b: Sequence
    limit: int | None = None


# ---------------------------------------------------------------------------
# kernels


Kernel = Callable[[list, list, int], list]


def _maxconv_plain(a: list, b: list, limit: int) -> list:
    """Plain quadratic enumeration in Python integers, exact at any size."""
    la, lb = len(a), len(b)
    out = []
    for k in range(limit + 1):
        i0 = k - lb + 1
        if i0 < 0:
            i0 = 0
        i1 = k if k < la else la - 1
        best = a[i0] + b[k - i0]
        for i in range(i0 + 1, i1 + 1):
            s = a[i] + b[k - i]
            if s > best:
                best = s
        out.append(best)
    return out


def maxconv_numpy_kernel(a: list, b: list, limit: int) -> list:
    """The same quadratic enumeration, vectorised a tile of rows at a time,
    or one shifted copy per run of equal values where both operands are
    non-decreasing.

    Calls of at most ``_VECTOR_CUTOFF`` cells run the plain loop.  Operands
    whose span, values or extreme sums (``min a + min b``,
    ``max a + max b``) leave the 64-bit word take the plain loop too, which
    is exact on Python ints, so no sum ever wraps.

    Run path: when both operands are non-decreasing up to index ``limit``
    and the one with fewer runs of equal values there, y, has at most an
    eighth as many runs as the shorter operand has entries up to
    ``limit``, the product is folded run by run in int64.  For a run
    ``y[s..e]`` of value v and an output k, the splits ``k = i + j`` with j
    in the run all add v, and x is non-decreasing, so the best one takes
    the largest i: ``j = s`` while ``k - s`` indexes x, else the last x
    entry, ``j = k - len(x) + 1``, as long as that j is still in the run.
    So the run gives ``v + x[k - s]`` for ``k`` in
    ``[s, s + len(x) - 1]`` and ``v + x[-1]`` for ``k`` in
    ``[s + len(x), e + len(x) - 1]``, and the maximum over the runs is the
    exact product.  Its work is runs x outputs instead of rows x outputs.

    Tiled path: both operands are shifted by their minimum, so every sum is
    non-negative and at most the shifted span
    ``(max a - min a) + (max b - min b)``; the sums are taken in int32 when
    that span fits, else in int64, and shifted back once at the end.  Each
    step adds ``_TILE_ROWS`` values of the shorter operand to reversed
    sliding windows of the longer one, ``_TILE_COLS`` output columns at a
    time, and folds the tile's column maxima into the output.  A tile
    whose largest possible sum (its rows' max plus the max of the b window
    it reads) is at most every output it folds into is skipped: no sum in
    it can raise an output, so the answer stays exact.  Row tiles run in
    decreasing order of their max, ties in row order, so the outputs rise
    early.
    """
    if len(a) > len(b):
        a, b = b, a
    if len(a) * (limit + 1) <= _VECTOR_CUTOFF:
        return _maxconv_plain(a, b, limit)
    lo_a, hi_a, lo_b, hi_b = min(a), max(a), min(b), max(b)
    span = (hi_a - lo_a) + (hi_b - lo_b)
    if (
        span > WORD_MAX
        or min(lo_a, lo_b, lo_a + lo_b) < -WORD_MAX - 1
        or max(hi_a, hi_b, hi_a + hi_b) > WORD_MAX
    ):
        return _maxconv_plain(a, b, limit)
    runs = _run_operands(a, b, limit)
    if runs is not None:
        return _run_maxconv(*runs, limit)
    lane = np.int32 if span <= _LANE_RANGE[np.int32][1] else np.int64
    out = _tiled_maxconv(a, (lo_a, hi_a), b, (lo_b, hi_b), limit, lane)
    out = out.astype(np.int64, copy=False)
    out += lo_a + lo_b
    return out.tolist()


def _run_starts(v: list, n: int, cap: int) -> list | None:
    """Start indices of the runs of equal values in ``v[:n]``, or None when
    there are more than ``cap`` runs: the scan stops at the first one past
    it."""
    starts = [0, *islice(compress(count(1), map(ne, v, islice(v, 1, n))), cap)]
    return starts if len(starts) <= cap else None


def _ascending(v: list) -> bool:
    """Whether ``v`` is non-decreasing."""
    return all(map(le, v, islice(v, 1, None)))


def _rising(v: list, starts: list) -> bool:
    """Whether ``v`` rises from each run to the next, i.e. is non-decreasing
    over the runs that begin at ``starts``."""
    heads = [v[s] for s in starts]
    return all(map(lt, heads, heads[1:]))


def _run_operands(a: list, b: list, limit: int) -> tuple | None:
    """``(x, y, y's run starts)`` when the run path applies to the call
    (``a`` the shorter operand), else None.

    Only the entries up to ``limit`` take part.  Both operands must be
    non-decreasing there, and y, the one with fewer runs, may have at most
    an eighth as many runs as ``a`` has entries: the fold then does at most
    an eighth of the tiles' cell work.  A strided sample of a
    non-decreasing prefix is non-decreasing, so operands that fail on about
    32 sampled entries decline before any run is counted; run counts stop
    at the cap, so a call of rising operands with many runs declines after
    scanning about cap entries of each.
    """
    n = limit + 1
    step = max(1, n // 32)
    if not (_ascending(a[:n:step]) and _ascending(b[:n:step])):
        return None
    cap = min(len(a), n) // 8
    sa, sb = _run_starts(a, n, cap), _run_starts(b, n, cap)
    if sa is None and sb is None:
        return None
    if sb is None or (sa is not None and len(sa) <= len(sb)):
        x, sx, y, sy = b, sb, a, sa
    else:
        x, sx, y, sy = a, sa, b, sb
    if not _rising(y, sy):
        return None
    x_rises = _rising(x, sx) if sx is not None else _ascending(x[:n])
    return (x, y, sy) if x_rises else None


def _run_maxconv(x: list, y: list, starts: list, limit: int) -> list:
    """(max,+)-convolution up to ``limit`` of non-decreasing ``x`` and
    ``y``, one shifted copy of x per run of y (see maxconv_numpy_kernel).
    The caller has checked that every sum fits int64."""
    n = min(len(x), limit + 1)
    xv = np.array(x[:n], dtype=np.int64)
    last = x[n - 1]
    buf = np.empty(n, dtype=np.int64)
    # Every output gets a real sum: the runs cover y up to limit, and each
    # one reaches every k from its start to its end plus n - 1.
    out = np.full(limit + 1, _LANE_RANGE[np.int64][0], dtype=np.int64)
    for s, e in zip(starts, [*starts[1:], min(len(y), limit + 1)]):  # y[s:e] == v
        v = y[s]
        w = min(n, limit + 1 - s)
        seg = out[s : s + w]
        np.maximum(seg, np.add(xv[:w], v, out=buf[:w]), out=seg)
        # Past k = s + n - 1 the split j = k - n + 1 clips x at its last entry.
        seg = out[s + n : e + n - 1]
        if len(seg):
            np.maximum(seg, last + v, out=seg)
    return out.tolist()


def _lane_array(values: list, bounds: tuple, lane, pad: int = 0) -> np.ndarray:
    """``values - min(values)`` in the lane dtype, with ``pad`` sentinels
    (the lane's minimum) on each side.  A sentinel plus any shifted value
    stays negative, below every real sum, and cannot wrap."""
    low, high = bounds
    lane_min, lane_max = _LANE_RANGE[lane]
    arr = np.full(len(values) + 2 * pad, lane_min, dtype=lane)
    body = arr[pad : pad + len(values)]
    if lane_min <= low and high <= lane_max:
        body[:] = values
        body -= low
    else:  # only the shifted values fit the lane
        wide = np.array(values, dtype=np.int64)
        wide -= low
        body[:] = wide
    return arr


def _tiled_maxconv(
    a: list, a_bounds: tuple, b: list, b_bounds: tuple, limit: int, lane
) -> np.ndarray:
    """(max,+)-convolution of ``a - min(a)`` and ``b - min(b)`` up to
    ``limit``, in the lane dtype; the caller has checked that every sum
    fits it.  ``*_bounds`` are each operand's (min, max)."""
    th = _TILE_ROWS
    rows = min(len(a), limit + 1)
    tw = min(_TILE_COLS, limit + 1)
    av = _lane_array(a, a_bounds, lane)
    bp = _lane_array(b, b_bounds, lane, th - 1)
    # wins[r, j] = bp[j + th - 1 - r], so row r of the tile at i0 reads
    # b[k - i0 - r] in output column k = i0 + j: the sum for a[i0 + r].
    step = bp.itemsize
    wins = np.ndarray(
        (th, len(bp) - th + 1), lane, buffer=bp, offset=(th - 1) * step, strides=(-step, step)
    )
    out = np.full(limit + 1, _LANE_RANGE[lane][0], dtype=lane)
    tile = np.empty((min(th, rows), tw), dtype=lane)
    best = np.empty(tw, dtype=lane)
    # Column tile m of every block reads b from bp[m*tw : (m+1)*tw + th - 1],
    # so none of its sums exceeds its block's max plus that window's max.
    # Every output is a real sum or the sentinel, so a tile whose bound is at
    # most the least output it folds into cannot change one: it is skipped.
    offs = np.arange(0, min(len(b) + th - 1, limit + 1), tw)
    bmax = [int(bp[s : s + tw + th - 1].max()) for s in offs.tolist()]
    amax = np.maximum.reduceat(av[:rows], np.arange(0, rows, th))
    # Larger maxima first raise the outputs early.  Among equal maxima (a
    # profile that levels off) the first block's outputs cover the later
    # blocks' in a truncated call, so those can be skipped.
    for blk in np.argsort(-amax, kind="stable").tolist():
        i0 = blk * th
        h = min(th, rows - i0)
        col = av[i0 : i0 + h, None]
        top = min(limit, i0 + h + len(b) - 2)
        ua = int(amax[blk])
        lows = np.minimum.reduceat(out[i0 : top + 1], offs[: (top - i0) // tw + 1])
        for k0, ub, low in zip(range(i0, top + 1, tw), bmax, lows.tolist()):
            if ua + ub <= low:
                continue
            w = min(tw, top + 1 - k0)
            t, m, seg = tile[:h, :w], best[:w], out[k0 : k0 + w]
            np.add(wins[:h, k0 - i0 : k0 - i0 + w], col, out=t)
            np.maximum.reduce(t, axis=0, out=m)
            np.maximum(seg, m, out=seg)
    return out


KERNELS: dict[str, Kernel] = {
    "naive": maxconv_numpy_kernel,
    "python": _maxconv_plain,
}

DEFAULT_KERNEL = "naive"


def resolve_kernel(kernel: str | None = None) -> Kernel:
    """The registered kernel of that name (``DEFAULT_KERNEL`` for None),
    looked up when called."""
    try:
        return KERNELS[DEFAULT_KERNEL if kernel is None else kernel]
    except KeyError:
        raise ValueError(f"unknown kernel {kernel!r}; available: {sorted(KERNELS)}")


def maxconv_values(
    a: list, b: list, limit: int | None = None, kernel: str | None = None
) -> list:
    """(max,+)-convolution of raw integer lists, truncated at index ``limit``.

    Operands get Sequence's integer check (TypeError on floats, bools and
    other non-integers) and may have any magnitude: both kernels are exact
    on every integer input.
    """
    a, b = _int_values(a), _int_values(b)
    if not a or not b:
        raise ValueError("convolution operands must be non-empty")
    full = len(a) + len(b) - 2
    hi = full if limit is None else min(limit, full)
    if hi < 0:
        raise ValueError("limit must be non-negative")
    if not isinstance(a, list):
        a = list(a)
    if not isinstance(b, list):
        b = list(b)
    return resolve_kernel(kernel)(a, b, hi)


def max_conv(
    a: SequenceLike,
    b: SequenceLike,
    limit: int | None = None,
    kernel: str | None = None,
) -> Sequence:
    """Max-plus convolution; output index k runs over 0..min(limit, len(a)+len(b)-2)."""
    return Sequence(maxconv_values(as_values(a), as_values(b), limit, kernel))


def min_conv(
    a: SequenceLike,
    b: SequenceLike,
    limit: int | None = None,
    kernel: str | None = None,
) -> Sequence:
    """Min-plus convolution, computed through the negation identity."""
    av = [-v for v in as_values(a)]
    bv = [-v for v in as_values(b)]
    return Sequence([-v for v in maxconv_values(av, bv, limit, kernel)])


# ---------------------------------------------------------------------------
# decision predicates


@dataclass(frozen=True)
class Decision:
    """Boolean verdict plus an optional witness of the violating position."""

    holds: bool
    witness: Union[tuple[int, int], int, None] = None

    def __bool__(self) -> bool:
        return self.holds


def _require_equal_lengths(first: list, *rest: list) -> int:
    n = len(first)
    for seq in rest:
        if len(seq) != n:
            raise ValueError("sequences must have equal lengths")
    return n


def check_upper_bound(a: SequenceLike, b: SequenceLike, c: SequenceLike) -> Decision:
    """Does c dominate the convolution, i.e. a[i]+b[j] <= c[i+j] for all i+j < n?

    On failure the witness is the violating (i, j) with the smallest i + j,
    and among those the smallest i.
    """
    av, bv, cv = as_values(a), as_values(b), as_values(c)
    _require_equal_lengths(av, bv, cv)
    return _dominates(av, bv, cv)


def _dominates(av: list, bv: list, cv: list) -> Decision:
    """check_upper_bound on non-empty, equal-length lists that have already
    passed the Sequence checks; it runs no check of its own."""
    return _dominance_verdict(av, bv, cv, resolve_kernel()(av, bv, len(av) - 1))


def _dominance_verdict(av: list, bv: list, cv: list, conv: list) -> Decision:
    """_dominates' verdict on av, bv, cv, read off ``conv``: the convolution
    of av and bv, or of shorter prefixes of them when every sum with an
    entry left out is below every entry of cv (the outputs past the end
    of ``conv`` are then never violated)."""
    if not any(map(gt, conv, cv)):
        return Decision(True)
    for k, (best, cap) in enumerate(zip(conv, cv)):
        if best > cap:
            for i in range(k + 1):
                if av[i] + bv[k - i] > cap:
                    return Decision(False, (i, k - i))
    return Decision(True)


def check_lower_bound(a: SequenceLike, b: SequenceLike, c: SequenceLike) -> Decision:
    """Is every c[k] reachable, i.e. some a[i]+b[j] >= c[k] with i+j = k?

    On failure the witness is the smallest k with no adequate decomposition.
    """
    av, bv, cv = as_values(a), as_values(b), as_values(c)
    n = _require_equal_lengths(av, bv, cv)
    conv = maxconv_values(av, bv, n - 1)
    for k in range(n):
        if conv[k] < cv[k]:
            return Decision(False, k)
    return Decision(True)


def is_superadditive(a: SequenceLike) -> Decision:
    """Test a[i] + a[j] <= a[i+j] for every pair with i+j < n.

    Note the pair (0, 0) is included, so a[0] > 0 always fails.
    """
    av = as_values(a)
    n = len(av)
    # The convolution finds every violated k at once; the witness is then
    # the first violating pair in scan order (k ascending, then i).
    conv = maxconv_values(av, av, n - 1)
    for k in range(n):
        if conv[k] > av[k]:
            for i in range(k // 2 + 1):
                if av[i] + av[k - i] > av[k]:
                    return Decision(False, (i, k - i))
    return Decision(True)


def normalize_nonneg_monotone(a: SequenceLike) -> tuple[Sequence, int] | None:
    """Rewrite a sequence with the same superadditivity verdict, zeroing the
    head and adding C*i with C = max|a[i]| + 1 (the smallest legal slope).

    The result is always non-negative with a zero head.  Whenever the
    verdict can be YES it is also strictly increasing: superadditivity of
    the rewrite forces a'[i] + a'[1] <= a'[i+1] with a'[1] >= 1.  Inputs
    that swing down faster than C produce a non-monotone rewrite, but such
    inputs are never superadditive, so every consumer that needs
    monotonicity gets it exactly when it matters.

    Returns None when a[0] > 0: that alone already refutes superadditivity,
    no rewrite can represent it.
    """
    av = as_values(a)
    if av[0] > 0:
        return None
    c = max(abs(v) for v in av) + 1
    out = [0] + [c * i + av[i] for i in range(1, len(av))]
    return Sequence(out), c
