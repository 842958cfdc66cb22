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
from math import gcd
from operator import gt
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
# it can raise one, so the skip is exact.  Every tile's bound is first
# taken at once against chunk minima of _TILE_ROWS outputs, a sliding
# minimum of about _TILE_COLS // _TILE_ROWS chunks wide: outputs only rise,
# so a tile that bound skips stays skippable, and a block with no live
# tile is not visited.
_TILE_ROWS = 16
_TILE_COLS = 4096

# The numpy kernel folds on at most one run per _ROWS_PER_RUN rows of the
# shorter operand up to the limit: at n = 16384 a fold takes about 6.5 us
# a run, the tiles 21-76 ms on a profile against 16 to 4096 runs.
_ROWS_PER_RUN = 16

# The tiled kernel first runs the rows // _PASS_SHARE largest rows of the
# shorter operand as contiguous single-row passes when they spread over
# more than twice the blocks they would fill, then lowers them to 0.  On
# uniform rows at n = 16384 that leaves 51-65 of 2,560 tiles live; on a
# profile's last rows, in a few blocks, the passes would only add work.
_PASS_SHARE = 16


def _int_values(values: Iterable) -> Union[list, tuple]:
    """The one integer-sequence check, behind Sequence and as_values.

    Returns ``values`` itself when it is a non-empty list or tuple of plain
    ints (one pass at C speed), else a list with ``np.integer`` values
    converted.  Bools and non-integers raise TypeError, emptiness ValueError.
    """
    if not isinstance(values, (list, tuple)):
        values = tuple(values)
    if not values:
        raise ValueError("sequences must be non-empty")
    if set(map(type, values)) == {int}:
        return values
    vals = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise TypeError(f"sequence values must be integers, got {v!r}")
        vals.append(int(v))
    return vals


def _check_int(v, what: str, minimum: int | None = 0, error: type = ValueError) -> int:
    """``v`` as a Python int: the one scalar-integer check.  Ints and numpy
    integers pass; bool, np.bool_ and every other type raise ``error``, and
    values below ``minimum`` raise ValueError (``None`` skips that test)."""
    if type(v) is not int:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise error(f"{what} must be an integer, got {v!r}")
        v = int(v)
    if minimum is not None and v < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {v}")
    return v


class Sequence:
    """Immutable, non-empty sequence of signed integers of any magnitude.

    Construction runs ``_int_values``: ints and numpy integers are kept as
    Python ints, so downstream arithmetic is exact at every size; bools and
    every other type raise TypeError.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[int]):
        self.values: tuple[int, ...] = tuple(_int_values(values))

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
    """A new list of the values, checked by ``_int_values`` unless ``seq``
    is a Sequence (checked when it was built).  Builds no Sequence."""
    return list(seq.values if isinstance(seq, Sequence) else _int_values(seq))


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
    """The same quadratic enumeration, by one of three paths.

    Plain loop: calls of at most ``_VECTOR_CUTOFF`` cells, and operands
    whose span, values or extreme sums (``min a + min b``,
    ``max a + max b``) leave the 64-bit word; it is exact on Python ints.
    Every other call shifts both operands by their minimum, into int32
    when the shifted span ``(max a - min a) + (max b - min b)`` fits, else
    int64, so no sum wraps, and shifts the output back once at the end.

    Fold: if one operand x is non-decreasing on ``x[0..limit]`` and
    ``limit < len(x)``, a row of the other operand y loses to any earlier
    row at least as large (``x[k - i]`` only grows as i falls), so up to
    the limit y can be replaced by its running maximum.  The product is
    then ``_merge`` of two non-decreasing arrays, the one join the
    knapsack solver runs: the jumps of whichever has fewer, folded into
    the other.  It runs, in either orientation, when y's running maximum
    has at most one run per ``_ROWS_PER_RUN`` rows.

    Tiles: ``_TILE_ROWS`` values of the shorter operand plus reversed
    sliding windows of the longer one, ``_TILE_COLS`` output columns at a
    time.  A tile whose largest possible sum (its rows' max plus the max
    of the b window it reads) is at most every output it folds into
    cannot raise one, so it is skipped.  Row tiles run in decreasing
    order of their max, ties in row order, so the outputs rise early.
    When the largest sixteenth of the shorter operand's rows (the top
    ``rows // _PASS_SHARE``) spreads over more than twice the blocks it
    would fill, each of those rows first runs as one contiguous pass over
    b, every sum it has up to the limit, and is then lowered to 0, the
    least shifted value: its sums in the tiles are then at most the real
    ones, already in the outputs, so they change nothing, and the tile
    bounds see only the rows left.  Every tile's bound is then checked
    against the outputs in one numpy pass (chunk minima and a sliding
    minimum), and only blocks with a live tile are visited; outputs only
    rise, so a tile skipped on older outputs is skipped exactly.
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
    lane = np.int32 if span <= np.iinfo(np.int32).max else np.int64
    av, bv = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    av -= lo_a
    bv -= lo_b
    av, bv = av.astype(lane, copy=False), bv.astype(lane, copy=False)
    cap = min(len(a), limit + 1) // _ROWS_PER_RUN
    for x, y in ((av, bv), (bv, av)):
        if limit < len(x) and (x[1 : limit + 1] >= x[:limit]).all():
            top = np.maximum.accumulate(y[: limit + 1])
            if np.count_nonzero(top[1:] != top[:-1]) < cap:
                out = _merge(x, top, limit)
                break
    else:
        out = _tiled_maxconv(av, bv, limit)
    out = out.astype(np.int64, copy=False)
    out += lo_a + lo_b
    return out.tolist()


def _tiled_maxconv(av: np.ndarray, bv: np.ndarray, limit: int) -> np.ndarray:
    """(max,+)-convolution of the non-negative arrays ``av`` (the shorter)
    and ``bv`` of one lane dtype, up to ``limit``, in that dtype; the caller
    has checked that every sum fits the lane."""
    th, lane = _TILE_ROWS, av.dtype
    rows = min(len(av), limit + 1)
    av = av[:rows]
    tw = min(_TILE_COLS, limit + 1)
    # b between th - 1 sentinels (the lane's minimum) on each side: a
    # sentinel plus any value stays negative and cannot wrap.
    sentinel = np.iinfo(lane).min
    bp = np.full(len(bv) + 2 * (th - 1), sentinel, dtype=lane)
    bp[th - 1 : th - 1 + len(bv)] = bv
    # wins[r, j] = bp[j + th - 1 - r], so row r of the tile at i0 reads
    # b[k - i0 - r] in output column k = i0 + j: the sum for a[i0 + r].
    wins = np.lib.stride_tricks.sliding_window_view(bp, th)[:, ::-1].T
    out = np.full(limit + 1, sentinel, dtype=lane)
    starts = np.arange(0, rows, th)
    # The rows // _PASS_SHARE largest rows (of tied rows at the cut, the
    # last) run first as single rows when they spread over more than twice
    # the blocks they would fill; rows that sit in a few blocks are left to
    # those blocks.  The ascending sort reads a profile as one run; its
    # slice is copied, so the whole sort is freed before the buffer below.
    picked = np.argsort(av, kind="stable")[rows - rows // _PASS_SHARE :].copy()
    hit = np.zeros(len(starts), dtype=bool)
    hit[picked // th] = True
    passes = np.count_nonzero(hit) > 2 * -(-len(picked) // th)
    # One buffer holds a tile or a row pass.
    h0 = min(th, rows)
    buf = np.empty(max(h0 * tw, min(limit + 1, len(bv))), dtype=lane)
    tile = buf[: h0 * tw].reshape(h0, tw)
    best = np.empty(tw, dtype=lane)
    if passes:
        # Row i adds b[0..e - i - 1] to out[i..e - 1], every sum it has up
        # to the limit.  Lowered to 0 (no shifted value is smaller) its
        # sums in the tiles are at most those: only the rest are bounded.
        for i, v in zip(picked.tolist(), av[picked].tolist()):
            e = min(limit, i + len(bv) - 1) + 1
            s = np.add(bv[: e - i], v, out=buf[: e - i])
            np.maximum(out[i:e], s, out=out[i:e])
        av = av.copy()
        av[picked] = 0
    # Column tile m of every block reads b from bp[m*tw : (m+1)*tw + th - 1],
    # so none of its sums exceeds its block's max plus that window's max.
    # Every output is a real sum or the sentinel, so a tile whose bound is at
    # most the least output it folds into cannot change one: it is skipped.
    offs = np.arange(0, min(len(bv) + th - 1, limit + 1), tw)
    bmax = np.array([bp[s : s + tw + th - 1].max() for s in offs.tolist()], dtype=lane)
    amax = np.maximum.reduceat(av, starts)
    tops = np.minimum(limit, starts + np.minimum(th, rows - starts) + len(bv) - 2)
    # Larger maxima first raise the outputs early.  Among equal maxima (a
    # profile that levels off) the first block's outputs cover the later
    # blocks' in a truncated call, so those can be skipped.
    order = np.argsort(-amax, kind="stable")
    if passes:
        # Every tile's bound against the outputs the passes left, at once:
        # a tile of tw columns from a multiple of gcd(tw, th) meets at most
        # q chunks of th columns, so the least of q chunk minima from its
        # first chunk is at most its least output (chunks past the last
        # output read the lane's maximum).  Outputs only rise, so a tile
        # that is dead here stays dead: only blocks with a live tile are
        # visited.
        q = (tw + th - gcd(tw, th) - 1) // th + 1
        cmin = np.minimum.reduceat(out, np.arange(0, limit + 1, th))
        cmin = np.concatenate((cmin, np.full(q - 1, np.iinfo(lane).max, dtype=lane)))
        least = np.lib.stride_tricks.sliding_window_view(cmin, q).min(axis=1)
        first = starts[:, None] + offs
        least = least[np.minimum(first // th, len(least) - 1)]
        live = (first <= tops[:, None]) & (amax[:, None] + bmax > least)
        order = order[live.any(axis=1)[order]]
    bmax = bmax.tolist()
    for blk in order.tolist():
        i0 = blk * th
        h = min(th, rows - i0)
        col = av[i0 : i0 + h, None]
        top = int(tops[blk])
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


def _fold(x: np.ndarray, steps: list[tuple[int, int]], limit: int) -> np.ndarray:
    """(max,+) join of a non-decreasing x with a step profile, truncated at
    ``limit``, in x's dtype: the kernel's fold on lane arrays, and every
    join in ``colorcoding`` on its profiles.

    ``steps`` are the step profile's jumps (w, value) in increasing w, the
    first at w = 0 and none past ``limit``.  Inside the stretch [w, e) of
    one jump, every split of an output k adds the same value and x is
    non-decreasing, so the best split takes the largest index of x there:
    the join is the maximum over the jumps of x shifted right by w plus the
    value.  Past its end x is read as its last entry.  That is exact for
    ``limit <= len(x) + len(other) - 2``, where other is the step profile's
    length: where the split that x[-1] stands for leaves [w, e), x[-1] plus
    the other profile's entry at that split is a real sum at least as large.
    """
    (_, head), *rest = steps
    if len(x) <= limit:
        x = np.concatenate((x, np.full(limit + 1 - len(x), x[-1], dtype=x.dtype)))
    out = x[: limit + 1].copy()
    # Part joins start at (0, 0), so head is nearly always 0, and the copy
    # beats `x[: limit + 1] + head` by about 0.45 us a fold.
    if head:
        out += head
    buf = np.empty_like(out)
    for w, v in rest:
        shifted = np.add(x[: limit + 1 - w], v, out=buf[: limit + 1 - w])
        np.maximum(out[w:], shifted, out=out[w:])
    return out


def _merge(p: np.ndarray, q: np.ndarray, limit: int) -> np.ndarray:
    """(max,+)-convolution of two non-decreasing arrays of one dtype, cut at
    ``limit <= len(p) + len(q) - 2``: the jumps of the one with fewer up to
    ``limit`` folded into the other.  The kernel's fold and every merge."""
    assert limit <= len(p) + len(q) - 2
    p, q = p[: limit + 1], q[: limit + 1]
    jp, jq = (np.flatnonzero(y[1:] != y[:-1]) + 1 for y in (p, q))
    if len(jp) < len(jq):
        p, q, jq = q, p, jp
    at = [0, *jq.tolist()]
    return _fold(p, list(zip(at, q[at].tolist())), limit)


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

    Operands get ``as_values``' check and may have any magnitude: both
    kernels are exact on every integer input.  ``limit`` follows the same
    rule: numpy integers pass as ints, bools and non-integers raise.
    """
    a, b = as_values(a), as_values(b)
    if limit is not None:
        limit = _check_int(limit, "limit", None, TypeError)
    full = len(a) + len(b) - 2
    hi = full if limit is None else min(limit, full)
    if hi < 0:
        raise ValueError("limit must be non-negative")
    return resolve_kernel(kernel)(a, b, hi)


def max_conv(
    a: SequenceLike,
    b: SequenceLike,
    limit: int | None = None,
    kernel: str | None = None,
) -> Sequence:
    """Max-plus convolution; output index k runs over 0..min(limit, len(a)+len(b)-2)."""
    return Sequence(maxconv_values(a, b, limit, kernel))


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


def _equal_lists(*seqs: SequenceLike) -> tuple:
    """``as_values`` of each argument, then their common length.  Every
    argument is checked before the lengths are compared, so a non-integer
    raises TypeError ahead of any length mismatch (ValueError)."""
    vals = [as_values(s) for s in seqs]
    n = len(vals[0])
    if any(len(v) != n for v in vals):
        raise ValueError("sequences must have equal lengths")
    return (*vals, n)


def check_upper_bound(a: SequenceLike, b: SequenceLike, c: SequenceLike) -> Decision:
    """Does c dominate the convolution, i.e. a[i]+b[j] <= c[i+j] for all i+j < n?

    On failure the witness is the violating (i, j) with the smallest i + j,
    and among those the smallest i, found by a scan of that output after
    one kernel call on the whole lists.  The decision route's default
    oracle, ``_dominates``, makes the same call and returns only the verdict.
    """
    av, bv, cv, _ = _equal_lists(a, b, c)
    return _witnessed(av, bv, cv)


def _witnessed(av: list, bv: list, cv: list) -> Decision:
    """check_upper_bound on checked lists: one kernel call on the lists as
    handed, then a scan of the first violated output for its witness.
    Shared by check_upper_bound and is_superadditive."""
    conv = resolve_kernel()(av, bv, len(cv) - 1)
    for k, (best, cap) in enumerate(zip(conv, cv)):
        if best > cap:
            i = next(i for i in range(k + 1) if av[i] + bv[k - i] > cap)
            return Decision(False, (i, k - i))
    return Decision(True)


def _dominates(av: list, bv: list, cv: list) -> bool:
    """The verdict of check_upper_bound, and nothing else, on non-empty,
    equal-length lists that have already passed ``as_values``: one kernel
    call on the lists as handed, and no check, Decision or witness search
    of its own.  This is the decision route's default oracle."""
    return not any(map(gt, resolve_kernel()(av, bv, len(cv) - 1), cv))


def check_lower_bound(a: SequenceLike, b: SequenceLike, c: SequenceLike) -> Decision:
    """Is every c[k] reachable, i.e. some a[i]+b[j] >= c[k] with i+j = k?

    On failure the witness is the smallest k with no adequate decomposition.
    """
    av, bv, cv, n = _equal_lists(a, b, c)
    conv = resolve_kernel()(av, bv, n - 1)
    for k in range(n):
        if conv[k] < cv[k]:
            return Decision(False, k)
    return Decision(True)


def is_superadditive(a: SequenceLike) -> Decision:
    """Test a[i] + a[j] <= a[i+j] for every pair with i+j < n.

    Note the pair (0, 0) is included, so a[0] > 0 always fails.  This is
    check_upper_bound on (a, a, a), so the witness (i, j) has i <= j.
    """
    av = as_values(a)
    return _witnessed(av, av, av)

