"""Kernels and decision predicates."""

import enum
import random

import numpy as np
import pytest

import maxconv
from maxconv import core
from maxconv import (
    KERNELS,
    Sequence,
    check_lower_bound,
    check_upper_bound,
    is_superadditive,
    max_conv,
    maxconv_values,
    min_conv,
)

from helpers import brute_maxconv, brute_superadd, rand_seq, rand_superadd_candidate

WORD_MAX = 2**63 - 1


def test_maxconv_identity_case():
    assert max_conv([0], [0]) == [0]


def test_maxconv_with_limit():
    assert max_conv([0, 1], [0, 2], limit=1) == [0, 2]


def test_negative_limit_rejected():
    with pytest.raises(ValueError, match="limit must be non-negative"):
        maxconv_values([1, 2], [3, 4], limit=-1)


def test_maxconv_against_enumeration():
    a, b = [1, 5, 2], [0, 3, 1]
    expected = brute_maxconv(a, b)
    assert expected == [1, 5, 8, 6, 3]
    assert max_conv(a, b) == expected


def test_minconv_examples():
    assert min_conv([0], [0]) == [0]
    assert min_conv([0, 1], [0, 2]) == [0, 1, 3]


def test_minconv_duality_identity_seed1002():
    rng = random.Random(1002)
    for _ in range(300):
        n = rng.randint(1, 24)
        m = rng.randint(1, 24)
        a = rand_seq(rng, n, 50)
        b = rand_seq(rng, m, 50)
        neg = max_conv([-v for v in a], [-v for v in b])
        assert min_conv(a, b) == [-v for v in neg]


def test_kernels_agree_with_bruteforce_seed1001():
    rng = random.Random(1001)
    for _ in range(300):
        n = rng.randint(1, 64)
        m = rng.randint(1, 64)
        a = rand_seq(rng, n, 100)
        b = rand_seq(rng, m, 100)
        limit = rng.choice([None, rng.randint(0, n + m - 2)])
        want = brute_maxconv(a, b, limit)
        for name in KERNELS:
            assert maxconv_values(a, b, limit, name) == want, name


def _spread(rng, n, lo, hi):
    """n values in [lo, hi] that include both ends."""
    vals = [lo, hi] + [rng.randint(lo, hi) for _ in range(n - 2)]
    rng.shuffle(vals)
    return vals


_HALF = 2**62


def _boundary_cases():
    """name -> (a, b, limit, the lane the numpy kernel must take: a numpy
    dtype, or None for the plain loop)."""
    rng = random.Random(1008)
    span32 = 2**31 - 1
    return {
        # shifted span (max a - min a) + (max b - min b) at the lane switch
        "span 2^31-1": (
            _spread(rng, 70, -5, span32 - 1005), _spread(rng, 40, 7, 1007), None, np.int32
        ),
        "span 2^31": (
            _spread(rng, 70, -5, span32 - 1004), _spread(rng, 40, 7, 1007), None, np.int64
        ),
        # span exactly 2^63 - 1, with min a + min b = -2^63
        "span 2^63-1": (
            _spread(rng, 33, -_HALF, -1), _spread(rng, 50, -_HALF, 0), None, np.int64
        ),
        "span 2^63": (_spread(rng, 33, -_HALF, _HALF), [7] * 50, None, None),
        "near +2^62": (
            _spread(rng, 47, _HALF - 1000, _HALF - 1),
            _spread(rng, 47, _HALF - 900, _HALF - 1),
            None,
            np.int32,
        ),
        "near -2^62": (
            _spread(rng, 47, -_HALF, -_HALF + 1000),
            _spread(rng, 47, -_HALF, -_HALF + 900),
            None,
            np.int32,
        ),
        # narrow spans whose extreme sums sit on either side of the word:
        # shifted back in int64, a sum past it would wrap
        "sums up to 2^63-1": (
            _spread(rng, 47, _HALF - 1000, _HALF - 1),
            _spread(rng, 47, _HALF - 900, _HALF),
            None,
            np.int32,
        ),
        "sums up to 2^63": (
            _spread(rng, 47, _HALF - 1000, _HALF),
            _spread(rng, 47, _HALF - 900, _HALF),
            None,
            None,
        ),
        "sums down to -2^63-1": (
            _spread(rng, 47, -_HALF - 1, -_HALF + 1000),
            _spread(rng, 47, -_HALF, -_HALF + 900),
            None,
            None,
        ),
        # sums inside the word, operands not: only the plain loop holds them
        "a value past the word": (_spread(rng, 40, 1, 2**63), [-1] * 60, None, None),
        "a value below the word": (
            _spread(rng, 40, -(2**63) - 40, -(2**63) - 1), [40] * 60, None, None
        ),
        "b wider than a column chunk": (
            _spread(rng, 18, -100, 100), _spread(rng, 4500, -100, 100), None, np.int32
        ),
        "at the cutoff": (_spread(rng, 32, -9, 9), _spread(rng, 50, -9, 9), 63, None),
        "past the cutoff": (_spread(rng, 32, -9, 9), _spread(rng, 50, -9, 9), 64, np.int32),
        "limit past the shorter operand": (
            _spread(rng, 100, -50, 50), _spread(rng, 35, -50, 50), 60, np.int32
        ),
    }


KERNEL_BOUNDARY_CASES = _boundary_cases()


@pytest.fixture(params=["16x4096", "1x3", "5x7"])
def tiles(request, monkeypatch):
    """Run the numpy kernel with the given tile height and column chunk."""
    rows, cols = map(int, request.param.split("x"))
    monkeypatch.setattr(core, "_TILE_ROWS", rows)
    monkeypatch.setattr(core, "_TILE_COLS", cols)


@pytest.fixture
def lanes(monkeypatch):
    """The lane of every tiled call; the plain loop records nothing."""
    seen = []
    tiled = core._tiled_maxconv

    def record(av, bv, limit):
        seen.append(av.dtype.type)
        return tiled(av, bv, limit)

    monkeypatch.setattr(core, "_tiled_maxconv", record)
    return seen


@pytest.mark.parametrize("name", sorted(KERNEL_BOUNDARY_CASES))
def test_kernels_at_the_lane_boundaries(name, tiles, lanes):
    a, b, limit, lane = KERNEL_BOUNDARY_CASES[name]
    want = brute_maxconv(a, b, limit)
    for kernel in KERNELS:
        assert maxconv_values(a, b, limit, kernel) == want, kernel
    assert lanes == ([] if lane is None else [lane])


def test_kernels_at_every_limit_seed1009(tiles):
    rng = random.Random(1009)
    for la, lb in ((37, 100), (100, 37), (16, 160), (17, 33)):
        a = rand_seq(rng, la, 1000)
        b = rand_seq(rng, lb, 1000)
        for limit in range(la + lb - 1):
            want = brute_maxconv(a, b, limit)
            for kernel in KERNELS:
                assert maxconv_values(a, b, limit, kernel) == want, (la, lb, limit, kernel)


LANES = pytest.mark.parametrize("lane", [np.int32, np.int64], ids=["int32", "int64"])


def _in_lane(values: list, lane) -> list:
    """values, scaled so that a tiled call with span >= 1 runs in ``lane``."""
    return values if lane is np.int32 else [v << 33 for v in values]


def _profile(rng: random.Random, n: int, step: int) -> list:
    """Non-decreasing from 0: flat runs broken by jumps of up to ``step``."""
    out = [0]
    for _ in range(n - 1):
        out.append(out[-1] + (rng.randint(1, step) if rng.random() < 0.5 else 0))
    return out


class _CountingNumpy:
    """numpy, counting np.add calls: the tiled kernel makes one 2-D add per
    tile it does not skip and one 1-D add per single-row pass."""

    def __init__(self):
        self.tiles = self.passes = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def add(self, x, *args, **kwargs):
        if np.ndim(x) == 2:
            self.tiles += 1
        else:
            self.passes += 1
        return np.add(x, *args, **kwargs)


def _tile_count(la: int, lb: int, limit: int) -> int:
    """Tiles the kernel visits for operands of lengths la <= lb."""
    th = core._TILE_ROWS
    rows, tw = min(la, limit + 1), min(core._TILE_COLS, limit + 1)
    tops = (min(limit, i0 + min(th, rows - i0) + lb - 2) for i0 in range(0, rows, th))
    return sum((top - i0) // tw + 1 for i0, top in zip(range(0, rows, th), tops))


def _tiles_run(
    monkeypatch, a: list, b: list, lane, limit: int | None = None
) -> tuple[int, int, int]:
    """(tiles added, tiles visited, single-row passes) by the tiled path on
    a, b in ``lane``.  Its answer and the default kernel's are checked
    against brute force."""
    want = brute_maxconv(a, b, limit)
    assert maxconv_values(a, b, limit) == want
    if len(a) > len(b):
        a, b = b, a
    hi = len(a) + len(b) - 2 if limit is None else limit
    av, bv = (np.array(x, dtype=np.int64) - min(x) for x in (a, b))
    counting = _CountingNumpy()
    monkeypatch.setattr(core, "np", counting)
    out = core._tiled_maxconv(av.astype(lane), bv.astype(lane), hi)
    assert [v + min(a) + min(b) for v in out.tolist()] == want
    return counting.tiles, _tile_count(len(a), len(b), hi), counting.passes


@LANES
@pytest.mark.parametrize("end", ["first", "last"])
def test_tile_bound_sees_the_largest_b_at_either_window_end(end, lane, tiles, lanes):
    # Column tile m reads b[m*tw - th + 1 : (m+1)*tw].  With a constant and
    # b zero but for one spike at an end of that window, the spike's sum is
    # computed in that tile alone, after other blocks have filled its
    # outputs: a bound that missed the spike would skip the tile.
    th, tw = core._TILE_ROWS, core._TILE_COLS
    la, lb = max(3 * th + 2, 40), max(3 * tw + 5, 100)
    for m in (1, 2):
        j = m * tw - th + 1 if end == "first" else (m + 1) * tw - 1
        b = [0] * lb
        b[j] = 5
        a, b = _in_lane([3] * la, lane), _in_lane(b, lane)
        want = brute_maxconv(a, b)
        assert maxconv_values(a, b) == maxconv_values(b, a) == want, (m, j)
    assert lanes == [lane] * 4


@LANES
def test_tile_bounds_that_tie_the_outputs_seed1011(lane, tiles, lanes):
    # a constant, b zero but for spikes of 1: every tile's bound equals the
    # least output it folds into, or exceeds it by 1 where it holds a spike.
    # For int64, one far-low b[0] widens the span and keeps the ties.
    rng = random.Random(1011)
    th, tw = core._TILE_ROWS, core._TILE_COLS
    la, lb = max(3 * th + 2, 40), max(3 * tw + 5, 100)
    a = [-2] * la
    for spikes in (1, 3, 10):
        b = [0 if lane is np.int32 else -(2**40)] + [0] * (lb - 1)
        for j in rng.sample(range(1, lb), spikes):
            b[j] = 1
        want = brute_maxconv(a, b)
        assert maxconv_values(a, b) == want, spikes
        for limit in (lb - 1, la + 2 * tw + 20):
            assert maxconv_values(b, a, limit) == want[: limit + 1], (spikes, limit)
    assert lanes == [lane] * 9
    # Constant operands: every bound after the first block ties exactly.
    assert maxconv_values([7] * la, [-4] * lb) == [3] * (la + lb - 1)


@LANES
def test_uniform_by_profile_skips_nearly_every_tile_seed1012(lane, tiles, monkeypatch):
    # b rises slowly next to a's spread: once the blocks with the largest
    # a values have run, every other block's bound is below its outputs.
    # Those largest values are spread over many blocks, so they run as
    # single-row passes first, but for one-row tiles, which are single rows.
    rng = random.Random(1012)
    la, lb = max(16 * core._TILE_ROWS, 60), max(2 * core._TILE_COLS + 100, 200)
    a = _in_lane(rand_seq(rng, la, 10**6), lane)
    b = _in_lane(_profile(rng, lb, 2), lane)
    added, visited, passes = _tiles_run(monkeypatch, a, b, lane)
    assert added <= visited // 5, (added, visited)
    assert passes == (0 if core._TILE_ROWS == 1 else la // core._PASS_SHARE)


@LANES
def test_profile_by_profile_skips_almost_no_tile(lane, tiles, monkeypatch):
    # On linear profiles every split of k ties, so a tile's bound exceeds
    # the least output it folds into unless the tile is one column wide.
    la, lb = max(16 * core._TILE_ROWS, 60), max(2 * core._TILE_COLS + 100, 200)
    a, b = _in_lane(list(range(la)), lane), _in_lane(list(range(lb)), lane)
    added, visited, passes = _tiles_run(monkeypatch, a, b, lane)
    assert added >= visited * 9 // 10, (added, visited)
    assert passes == 0  # the largest rows are the last ones, in few blocks


@LANES
def test_truncated_profiles_that_level_off_skip_the_later_blocks(lane, tiles, monkeypatch):
    # Both profiles level off early.  The first block with the top value
    # runs first and lifts every output it covers to the top sum, so the
    # later blocks, whose bounds equal that sum, are skipped.
    la = max(16 * core._TILE_ROWS, 60)
    a = _in_lane([min(i, 3) for i in range(la)], lane)
    b = _in_lane([min(2 * j, 9) for j in range(la + 5)], lane)
    added, visited, passes = _tiles_run(monkeypatch, a, b, lane, la - 1)
    assert added <= visited // 5, (added, visited)
    assert passes == 0  # the tied largest rows at the cut are adjacent


def _pass_cases(th: int, tw: int) -> dict:
    """name -> (a, b, limit, gate) for tiles of th rows by tw columns: a is
    the shorter operand, its la // _PASS_SHARE largest rows are picked, and
    ``gate`` says whether they spread over more than twice the blocks they
    would fill when th > 1 (one-row blocks never do)."""
    rng = random.Random(1018)
    la = 16 * max(th, 2)
    lb = max(tw + 3 * th + 40, la + 40)
    k = la // core._PASS_SHARE

    def placed(a: list, values: list, blocks: int = 0) -> list:
        """a with ``values`` on rows of ``blocks`` distinct blocks (as many
        as values when 0), dealt round-robin."""
        at = rng.sample(range(la // th), blocks or len(values))
        for t, v in enumerate(values):
            a[at[t % len(at)] * th + (t // len(at) if blocks else rng.randrange(th))] = v
        return a

    def background() -> list:
        return [rng.randint(0, 1000) for _ in range(la)]

    def noise() -> list:
        return [rng.randint(-1000, 1000) for _ in range(lb)]

    def top_rows() -> list:
        return rng.sample(range(2000, 3000), k)

    cases = {
        "spread rows": (placed(background(), top_rows()), noise(), None, True),
        # Three rows above the rest: the cut falls among the tied 9s.
        "ties at the cut": (
            placed([rng.randint(0, 9) for _ in range(la)], [20, 21, 22]), noise(), None, True
        ),
        # Every row but three holds the minimum, so the cut picks such rows.
        "picked rows at the minimum": (placed([0] * la, [500, 600, 700]), noise(), None, True),
        "monotone rows": (_profile(rng, la, 9), noise(), None, False),
        # The picked rows fill exactly twice the blocks they need.
        "rows in few blocks": (
            placed(background(), top_rows(), 2 * -(-k // th)), noise(), None, False
        ),
    }
    # One sum of 10^5 is the only one to reach its output: the largest
    # row's last sum, at the limit or at the end of b, or a row left to the
    # tiles at a limit inside a chunk of th columns.
    inside = th * (lb // th) + th // 2
    for name, limit in (
        ("passes clipped by the limit", lb - 1),
        ("passes to the end of b", None),
        ("limit inside a chunk", inside),
    ):
        a, b = placed(background(), top_rows()), noise()
        if limit == inside:
            b[limit - max(i for i, v in enumerate(a) if v <= 1000)] = 10**5
        else:
            b[lb - 1 if limit is None else limit - a.index(max(a))] = 10**5
        cases[name] = (a, b, limit, True)
    # The rows of 100, row 0 among them, pass; row 1 then holds the only
    # sum 200 at output tw - 1, the last column of block 0's first tile,
    # where b is 0 under every pass.  Up to the limit, block 0's last
    # output, the passes reach 200 everywhere else through b's 100s: block
    # 0's bounds see the one low output only in its first window's last
    # chunk.
    a = placed([0] * la, [100] * (k - 1))
    a[0], a[1] = 100, 50
    limit = lb + th - 2
    last = min(tw, limit + 1) - 1
    b = [100] * lb
    for i, v in enumerate(a):
        if v == 100 and 0 <= last - i < lb:
            b[last - i] = 0
    b[last - 1] = 150
    cases["low output in a window's last chunk"] = (a, b, limit, True)
    return cases


@LANES
@pytest.mark.parametrize("name", sorted(_pass_cases(core._TILE_ROWS, core._TILE_COLS)))
def test_row_passes_match_brute_force(name, lane, tiles, lanes, monkeypatch):
    a, b, limit, gate = _pass_cases(core._TILE_ROWS, core._TILE_COLS)[name]
    a, b = _in_lane(a, lane), _in_lane(b, lane)
    want = brute_maxconv(a, b, limit)
    counting = _CountingNumpy()
    monkeypatch.setattr(core, "np", counting)
    assert maxconv_values(a, b, limit) == want
    assert maxconv_values(b, a, limit) == want
    assert lanes == [lane] * 2
    per_call = len(a) // core._PASS_SHARE if gate and core._TILE_ROWS > 1 else 0
    assert counting.passes == 2 * per_call


def _steps(rng: random.Random, n: int, runs: int, lo: int, hi: int) -> list:
    """Non-decreasing, n entries in exactly ``runs`` runs of equal values,
    from lo up to hi (both taken when runs > 1)."""
    starts = [0] + sorted(rng.sample(range(1, n), runs - 1))
    heads = [lo] if runs == 1 else sorted([lo, hi, *rng.sample(range(lo + 1, hi), runs - 2)])
    ends = starts[1:] + [n]
    return [v for s, e, v in zip(starts, ends, heads) for _ in range(e - s)]


def _step_cases():
    """name -> (a, b, limits): non-decreasing pairs with long runs of equal
    values, at the limits listed (None is the full product)."""
    rng = random.Random(1013)
    edge = WORD_MAX // 2
    return {
        # the shorter operand is shorter than limit + 1, so outputs past its
        # end pair its last entry with long runs of the other
        "clipped, long runs": (
            _steps(rng, 40, 9, 0, 500), _steps(rng, 300, 3, 0, 50), (None, 250, 60)
        ),
        "clipped, short runs": (
            _steps(rng, 64, 2, -7, 7), _steps(rng, 90, 30, 0, 900), (None, 100, 64)
        ),
        "truncated": (_steps(rng, 200, 5, 0, 99), _steps(rng, 230, 11, 3, 70), (20, 150, 199)),
        "constant": ([7] * 100, [-3] * 90, (None, 30, 120)),
        "single run by rising": ([4] * 70, _steps(rng, 80, 40, 0, 10**6), (None, 69, 100)),
        "runs at both ends": (
            [0] + [5] * 60 + [9], [-2] + [1] * 70 + [3], (None, 60, 61, 62, 100)
        ),
        "negative": (
            _steps(rng, 120, 6, -(10**9), -5), _steps(rng, 100, 4, -300, -200), (None, 99, 150)
        ),
        # sums reach both ends of the word: 2 * (-2^62) and 2 * edge + 1
        "word edge, top": (
            _steps(rng, 100, 4, edge - 90, edge), _steps(rng, 100, 5, edge - 50, edge + 1),
            (None, 99),
        ),
        "word edge, bottom": (
            _steps(rng, 100, 4, -edge - 1, 0), _steps(rng, 100, 3, -edge - 1, -edge + 9),
            (None, 99),
        ),
    }


STEP_CASES = _step_cases()


@pytest.mark.parametrize("name", sorted(STEP_CASES))
def test_step_pairs_match_brute_force(name):
    a, b, limits = STEP_CASES[name]
    for limit in limits:
        want = brute_maxconv(a, b, limit)
        assert maxconv_values(a, b, limit) == want, limit
        assert maxconv_values(b, a, limit) == want, limit
        assert maxconv_values(a, b, limit, "python") == want, limit


def test_step_pairs_read_only_the_entries_up_to_the_limit():
    # A descent or a jump past the limit changes no output.
    rng = random.Random(1015)
    a, b = _steps(rng, 100, 4, 0, 50), _steps(rng, 150, 6, 10, 80)
    a[90:] = [-(10**6)] * 10
    b[120:] = list(range(10**6, 10**6 + 30))
    assert maxconv_values(a, b, 89) == brute_maxconv(a, b, 89)


@pytest.fixture
def paths(monkeypatch):
    """(path, lane) of every fold and every tiled call; the plain loop
    records nothing."""
    seen = []
    for name, path in (("_fold", "fold"), ("_tiled_maxconv", "tiles")):

        def record(x, y, limit, run=getattr(core, name), path=path):
            seen.append((path, x.dtype.type))
            return run(x, y, limit)

        monkeypatch.setattr(core, name, record)
    return seen


def _records(rng: random.Random, n: int, runs: int, lo: int, hi: int, tie: float = 0.0) -> list:
    """n values whose running maximum has exactly ``runs`` runs, their heads
    rising from lo to at most hi; each other row draws from [lo, head] of
    its run, and equals the head with probability ``tie``."""
    starts = [0] + sorted(rng.sample(range(1, n), runs - 1))
    heads = sorted(rng.sample(range(lo, hi + 1), runs))
    out = []
    for s, e, h in zip(starts, starts[1:] + [n], heads):
        out += [h] + [h if rng.random() < tie else rng.randint(lo, h) for _ in range(e - s - 1)]
    return out


def _fold_cases():
    """name -> (x, y, limit, path, edge): x non-decreasing on x[0..limit]
    unless named otherwise, y the other operand, and the path the kernel
    takes on them in either argument order.  ``edge`` moves both operands
    to the top or bottom of the word after the lane scaling."""
    rng = random.Random(1016)
    rule = 160 // core._ROWS_PER_RUN  # runs allowed at rows = 160
    x = _profile(rng, 160, 9)
    y = _records(rng, 200, 3, -400, 400)
    # A descent right after x[150], and one at x[150] with y[0] the maximum
    # of y: there y[1] + x[149] beats y[0] + x[150], the one sum a fold
    # over the descent would take at output 150.
    past, at = _profile(rng, 200, 9), _profile(rng, 200, 9)
    past[151:] = [-(10**4)] * 49
    at[150] = -(10**4)
    flat = _records(rng, 200, 1, -400, 400)
    # rule runs in y[0..159] with a new maximum at row 160, and rule + 1.
    met = _records(rng, 160, rule, 0, 400) + [401] + _records(rng, 39, 3, 0, 500)
    missed = _records(rng, 160, rule + 1, 0, 400) + _records(rng, 40, 3, 0, 500)
    wide = _profile(rng, 200, 9)
    # rule + 1 and rule runs, all in the first 4 * rule rows: the first is
    # refused on that prefix alone.
    early = [
        _records(rng, 4 * rule, r, 10, 400) + [0] * (200 - 4 * rule) for r in (rule + 1, rule)
    ]
    return {
        "limit len(x) - 1": (x, y, 159, "fold", None),
        "limit len(x)": (x, y, 160, "tiles", None),
        "descent past the limit": (past, y, 150, "fold", None),
        "descent at the limit": (at, flat, 150, "tiles", None),
        "tied running maxima": (wide, _records(rng, 200, 4, -50, 50, tie=0.7), 199, "fold", None),
        "running maximum constant from row 0": (wide, flat, 199, "fold", None),
        "negative": (
            [v - 10**6 for v in wide], _records(rng, 200, 5, -900, -10), 199, "fold", None
        ),
        "word edge, top": (wide, _records(rng, 200, 5, 0, 900), 199, "fold", "top"),
        "word edge, bottom": (wide, _records(rng, 200, 5, 0, 900), 199, "fold", "bottom"),
        "run rule met": (wide, met, 159, "fold", None),
        "run rule missed by one": (wide, missed, 159, "tiles", None),
        "run rule missed in the first 4 * rule rows": (wide, early[0], 159, "tiles", None),
        "run rule met in the first 4 * rule rows": (wide, early[1], 159, "fold", None),
    }


FOLD_CASES = _fold_cases()


def _at_edge(xs: list, ys: list, edge) -> tuple[list, list]:
    """xs and ys moved so that max xs + max ys is 2^63 - 1 (top) or
    min xs + min ys is -2^63 (bottom); spans are kept."""
    if edge == "top":
        return [v - max(xs) + 2**62 for v in xs], [v - max(ys) + 2**62 - 1 for v in ys]
    if edge == "bottom":
        return [v - min(xs) - 2**62 for v in xs], [v - min(ys) - 2**62 for v in ys]
    return xs, ys


@LANES
@pytest.mark.parametrize("name", sorted(FOLD_CASES))
def test_fold_matches_brute_force(name, lane, paths):
    x, y, limit, path, edge = FOLD_CASES[name]
    x, y = _at_edge(_in_lane(x, lane), _in_lane(y, lane), edge)
    want = brute_maxconv(x, y, limit)
    assert maxconv_values(x, y, limit) == want
    assert maxconv_values(y, x, limit) == want
    assert paths == [(path, lane)] * 2


def test_fold_takes_only_a_monotone_operand_against_few_runs_seed1017(paths):
    rng = random.Random(1017)
    n = 200
    uni, uni2 = rand_seq(rng, n, 1000), rand_seq(rng, n, 1000)
    prof, prof2 = _profile(rng, n, 20), _profile(rng, n, 20)
    for a, b, limit, path in (
        (uni, prof, n - 1, "fold"),
        (prof, uni, n - 1, "fold"),
        (uni, uni2, n - 1, "tiles"),
        (prof, prof2, n - 1, "tiles"),
        (uni, prof, None, "tiles"),
        (prof, uni, None, "tiles"),
    ):
        paths.clear()
        assert maxconv_values(a, b, limit) == brute_maxconv(a, b, limit)
        assert paths == [(path, np.int32)], (a is uni, b is uni, limit)


def test_conv_output_is_not_held_to_the_input_headroom_rule():
    # Outputs hold twice the largest |v| the retired rule took at n = 2.
    w = WORD_MAX // 800
    Sequence([w, w])
    for kernel in KERNELS:
        assert max_conv([w, w], [w, w], kernel=kernel) == [2 * w] * 3
        assert min_conv([-w, -w], [-w, -w], kernel=kernel) == [-2 * w] * 3


def test_commutativity_and_associativity_seed1003():
    rng = random.Random(1003)
    for _ in range(200):
        a = rand_seq(rng, rng.randint(1, 16), 40)
        b = rand_seq(rng, rng.randint(1, 16), 40)
        c = rand_seq(rng, rng.randint(1, 16), 40)
        assert max_conv(a, b) == max_conv(b, a)
        assert max_conv(max_conv(a, b), c) == max_conv(a, max_conv(b, c))


def test_superadditive_idempotence_seed1004():
    rng = random.Random(1004)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 20)
        incs = sorted(rng.randint(0, 5) for _ in range(n - 1))
        a = [0]
        for inc in incs:
            a.append(a[-1] + inc)
        assert brute_superadd(a)
        assert list(max_conv(a, a))[:n] == a
        checked += 1


def test_check_upper_bound_examples():
    assert check_upper_bound([0, 0], [0, 0], [0, 0]).holds
    assert check_upper_bound([0, 1], [0, 2], [0, 2]).holds
    dec = check_upper_bound([0, 1], [0, 1], [0, 0])
    assert not dec.holds
    i, j = dec.witness
    assert [0, 1][i] + [0, 1][j] > [0, 0][i + j]


def test_check_upper_bound_matches_convolution_dominance_seed1006():
    rng = random.Random(1006)
    for _ in range(300):
        n = rng.randint(1, 20)
        a = rand_seq(rng, n, 20)
        b = rand_seq(rng, n, 20)
        c = rand_seq(rng, n, 45)
        conv = brute_maxconv(a, b, n - 1)
        assert check_upper_bound(a, b, c).holds == all(
            x <= y for x, y in zip(conv, c)
        )


def test_check_lower_bound_examples():
    assert check_lower_bound([0, 0], [0, 0], [0, 0]).holds
    assert check_lower_bound([0, 3], [0, 0], [0, 3]).holds
    dec = check_lower_bound([0, 0], [0, 0], [0, 1])
    assert not dec.holds and dec.witness == 1


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        check_upper_bound([0, 1], [0], [0, 1])
    with pytest.raises(ValueError):
        check_lower_bound([0], [0, 1], [0])


@pytest.mark.parametrize(
    "name",
    [
        "check_upper_bound",
        "check_lower_bound",
        "detect_single",
        "detect_violations",
        "max_conv_via_upperbound",
        "reduce_upperbound_to_superadditivity",
        "reduce_lowerbound_to_necklace",
        "reduce_upperbound_to_3sumconv",
        "three_sum_conv_brute",
    ],
)
def test_every_equal_length_site_checks_values_before_lengths(name):
    # One rule at each site: every argument gets the integer check
    # (TypeError) before the lengths are compared (ValueError).
    func = getattr(maxconv, name)
    pair = name == "max_conv_via_upperbound"
    with pytest.raises(ValueError, match="sequences must have equal lengths"):
        func(*([[0, 1], [0]] if pair else [[0, 1], [0], [0, 1]]))
    with pytest.raises(TypeError, match="sequence values must be integers"):
        func(*([[0, 1], [0.5]] if pair else [[0, 1], [0], [0.5, 1]]))


def test_is_superadditive_examples():
    assert is_superadditive([0, 1, 2, 3]).holds
    dec = is_superadditive([0, 2, 3])
    assert not dec.holds and dec.witness == (1, 1)
    dec = is_superadditive([1, 0])
    assert not dec.holds
    i, j = dec.witness
    assert [1, 0][i] + [1, 0][j] > [1, 0][i + j]


def _first_superadd_violation(a):
    # Scan order of the witness: k ascending, then i ascending (i <= k - i).
    for k in range(len(a)):
        for i in range(k // 2 + 1):
            if a[i] + a[k - i] > a[k]:
                return (i, k - i)
    return None


def test_predicate_witnesses_are_genuine_seed1005():
    rng = random.Random(1005)
    cases = [rand_seq(rng, rng.randint(1, 16), 10) for _ in range(400)]
    # Lengths around the point where the kernel leaves its plain loop, with
    # near misses so that violations sit deep in the scan.
    cases += [rand_superadd_candidate(rng, n, 10 * n) for n in (255, 256, 300) for _ in range(12)]
    # Values near 2**62: where the span leaves the word the kernel runs its
    # plain loop on Python ints, elsewhere int64 tiles.
    cases += [rand_superadd_candidate(rng, n, 2**62) for n in (5, 300) for _ in range(6)]
    verdicts = set()
    for a in cases:
        dec = is_superadditive(a)
        assert dec == check_upper_bound(a, a, a)
        assert dec.holds == brute_superadd(a)
        verdicts.add((len(a) >= 255, dec.holds))
        if not dec.holds:
            i, j = dec.witness
            assert a[i] + a[j] > a[i + j]
        assert dec.witness == _first_superadd_violation(a)
    assert verdicts == {(False, True), (False, False), (True, True), (True, False)}


def test_sequence_validation():
    with pytest.raises(ValueError):
        Sequence([])
    with pytest.raises(TypeError):
        Sequence([1.5])
    with pytest.raises(TypeError):
        Sequence([True])
    assert Sequence([2**60, -(2**70)]).values == (2**60, -(2**70))  # any magnitude


def test_sequence_equality_hash_and_repr():
    s = Sequence([3, -1])
    assert s == Sequence((3, -1)) and s == [3, -1] and s == (3, -1)
    assert hash(s) == hash(Sequence([3, -1])) and len({s, Sequence([3, -1])}) == 1
    assert repr(s) == "Sequence([3, -1])"
    # Against any other type, equality is left to the other operand.
    for other in (3, "x", {3: -1}, None):
        assert s.__eq__(other) is NotImplemented
        assert s != other


def _reference_sequence_values(values):
    """Sequence's checks as a per-element loop: the reference for the
    shared integer check.  Magnitudes are not bounded."""
    vals = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise TypeError(f"sequence values must be integers, got {v!r}")
        vals.append(int(v))
    if not vals:
        raise ValueError("sequences must be non-empty")
    return tuple(vals)


class _Level(enum.IntEnum):
    HIGH = 7


# The largest |v| Sequence took at n = 3 under the retired headroom rule
# (n * max|v| * 400 <= 2^63 - 1).
_AT_BOUND = WORD_MAX // (400 * 3)

SEQUENCE_INPUTS = {
    "ints": lambda: [3, -1, 0],
    "one zero": lambda: [0],
    "tuple": lambda: (4, 5),
    "np.int64": lambda: [np.int64(5), -2],
    "np.int32": lambda: [1, np.int32(-9)],
    "np.uint64 past the word": lambda: [np.uint64(2**63)],
    "np array": lambda: np.array([2, -3], dtype=np.int64),
    "IntEnum": lambda: [_Level.HIGH, 1],
    "True": lambda: [True],
    "True after int": lambda: [1, True],
    "np.bool_": lambda: [np.bool_(True)],
    "float": lambda: [1.5],
    "float after int": lambda: [1, 1.5],
    "np.float64": lambda: [np.float64(2.0)],
    "str": lambda: ["3"],
    "None": lambda: [None],
    "empty": lambda: [],
    "generator": lambda: (v for v in [2, 4, -6]),
    "empty generator": lambda: (v for v in []),
    "at the bound": lambda: [_AT_BOUND, 0, -_AT_BOUND],
    "negative at the bound": lambda: [0, -_AT_BOUND, 1],
    "one past the bound": lambda: [_AT_BOUND + 1, 0, 0],
    "negative one past the bound": lambda: [0, 0, -_AT_BOUND - 1],
    "np.int64 past the bound": lambda: [np.int64(_AT_BOUND + 1), 0, 0],
}


def _outcome(build, values):
    try:
        vals = build(values)
    except (TypeError, ValueError) as exc:
        return "raised", type(exc), str(exc)
    return "built", vals, [type(v) for v in vals]


@pytest.mark.parametrize("name", sorted(SEQUENCE_INPUTS))
def test_sequence_check_matches_the_reference_loop(name):
    make = SEQUENCE_INPUTS[name]
    want = _outcome(_reference_sequence_values, make())
    assert _outcome(lambda v: Sequence(v).values, make()) == want
    # One rule: the list check and a convolution with [0] say the same.
    assert _outcome(lambda v: tuple(core.as_values(v)), make()) == want
    assert _outcome(lambda v: tuple(maxconv_values(v, [0])), make()) == want


def test_bound_cases_sit_on_the_headroom_rule():
    # The cases at the old bound and one past it build and convolve exactly.
    assert 3 * _AT_BOUND * 400 <= WORD_MAX < 3 * (_AT_BOUND + 1) * 400
    for name in (
        "at the bound",
        "negative at the bound",
        "one past the bound",
        "negative one past the bound",
        "np.int64 past the bound",
    ):
        a = list(Sequence(SEQUENCE_INPUTS[name]()))
        for b in (a, [-v for v in reversed(a)]):
            for kernel in KERNELS:
                assert max_conv(a, b, kernel=kernel) == brute_maxconv(a, b), (name, kernel)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize(
    "bad", [[1.5] * 100, [1.5] * 10, [True, 1], ["3"]], ids=["float100", "float10", "bool", "str"]
)
def test_maxconv_values_rejects_non_integers(kernel, bad):
    # [1.5] * 100 at the full limit runs the numpy row loop, the rest the
    # plain loop; the check comes before either.
    with pytest.raises(TypeError, match="sequence values must be integers"):
        maxconv_values(bad, bad, kernel=kernel)
    with pytest.raises(TypeError, match="sequence values must be integers"):
        maxconv_values([1] * len(bad), bad, kernel=kernel)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_limit_is_checked_where_it_enters(kernel):
    # The rule of sequence values: numpy integers pass as ints, bools and
    # non-integers raise TypeError naming limit, here and past the cutoff.
    small, large = [1, 2, 3], list(range(200))
    for a, b in ((small, [4, 5, 6]), (large, large[::-1])):
        for bad in (True, False, np.bool_(True), 1.0, 151.0, np.float64(2), "3"):
            for run in (maxconv_values, max_conv, min_conv):
                with pytest.raises(TypeError, match="limit must be an integer"):
                    run(a, b, bad, kernel)
        for good in (np.int64(1), np.int32(151), np.uint8(2)):
            assert maxconv_values(a, b, good, kernel) == brute_maxconv(a, b, int(good))
        for neg in (-1, np.int64(-3)):
            with pytest.raises(ValueError, match="limit must be non-negative"):
                maxconv_values(a, b, neg, kernel)


def test_maxconv_values_converts_numpy_integers():
    for kernel in KERNELS:
        got = maxconv_values([np.int64(1), 2], (np.int32(3), 4), kernel=kernel)
        assert got == [4, 5, 6]
        assert all(type(v) is int for v in got)


def test_sums_past_the_word_are_exact():
    # Sums past the word are exact Python ints, never wrapped or refused.
    big = (2**63 - 1) // 2 + 10
    for kernel in KERNELS:
        assert maxconv_values([big], [big], kernel=kernel) == [2 * big]


def test_unknown_kernel_rejected():
    with pytest.raises(ValueError):
        maxconv_values([1], [1], kernel="fancy")
