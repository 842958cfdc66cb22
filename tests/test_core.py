"""Kernels, decision predicates, and normalization."""

import enum
import random

import numpy as np
import pytest

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
    normalize_nonneg_monotone,
)

from helpers import brute_maxconv, brute_superadd, rand_seq, rand_superadd_candidate

WORD_MAX = 2**63 - 1


def test_maxconv_identity_case():
    assert max_conv([0], [0]) == [0]


def test_maxconv_with_limit():
    assert max_conv([0, 1], [0, 2], limit=1) == [0, 2]


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

    def record(*args):
        seen.append(args[-1])
        return tiled(*args)

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
    """numpy, counting np.add calls: the tiled kernel makes one per tile it
    does not skip."""

    def __init__(self):
        self.adds = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def add(self, *args, **kwargs):
        self.adds += 1
        return np.add(*args, **kwargs)


def _tile_count(la: int, lb: int, limit: int) -> int:
    """Tiles the kernel visits for operands of lengths la <= lb."""
    th = core._TILE_ROWS
    rows, tw = min(la, limit + 1), min(core._TILE_COLS, limit + 1)
    tops = (min(limit, i0 + min(th, rows - i0) + lb - 2) for i0 in range(0, rows, th))
    return sum((top - i0) // tw + 1 for i0, top in zip(range(0, rows, th), tops))


def _tiles_run(monkeypatch, a: list, b: list, lane, limit: int | None = None) -> tuple[int, int]:
    """(tiles added, tiles visited) by the tiled path on a, b in ``lane``.
    Its answer and the default kernel's, which may take the run path
    instead, are checked against brute force."""
    want = brute_maxconv(a, b, limit)
    assert maxconv_values(a, b, limit) == want
    if len(a) > len(b):
        a, b = b, a
    hi = len(a) + len(b) - 2 if limit is None else limit
    counting = _CountingNumpy()
    monkeypatch.setattr(core, "np", counting)
    out = core._tiled_maxconv(a, (min(a), max(a)), b, (min(b), max(b)), hi, lane)
    assert [v + min(a) + min(b) for v in out.tolist()] == want
    return counting.adds, _tile_count(len(a), len(b), hi)


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
    rng = random.Random(1012)
    la, lb = max(16 * core._TILE_ROWS, 60), max(2 * core._TILE_COLS + 100, 200)
    a = _in_lane(rand_seq(rng, la, 10**6), lane)
    b = _in_lane(_profile(rng, lb, 2), lane)
    added, visited = _tiles_run(monkeypatch, a, b, lane)
    assert added <= visited // 5, (added, visited)


@LANES
def test_profile_by_profile_skips_almost_no_tile(lane, tiles, monkeypatch):
    # On linear profiles every split of k ties, so a tile's bound exceeds
    # the least output it folds into unless the tile is one column wide.
    la, lb = max(16 * core._TILE_ROWS, 60), max(2 * core._TILE_COLS + 100, 200)
    a, b = _in_lane(list(range(la)), lane), _in_lane(list(range(lb)), lane)
    added, visited = _tiles_run(monkeypatch, a, b, lane)
    assert added >= visited * 9 // 10, (added, visited)


@LANES
def test_truncated_profiles_that_level_off_skip_the_later_blocks(lane, tiles, monkeypatch):
    # Both profiles level off early.  The first block with the top value
    # runs first and lifts every output it covers to the top sum, so the
    # later blocks, whose bounds equal that sum, are skipped.
    la = max(16 * core._TILE_ROWS, 60)
    a = _in_lane([min(i, 3) for i in range(la)], lane)
    b = _in_lane([min(2 * j, 9) for j in range(la + 5)], lane)
    added, visited = _tiles_run(monkeypatch, a, b, lane, la - 1)
    assert added <= visited // 5, (added, visited)


def _steps(rng: random.Random, n: int, runs: int, lo: int, hi: int) -> list:
    """Non-decreasing, n entries in exactly ``runs`` runs of equal values,
    from lo up to hi (both taken when runs > 1)."""
    starts = [0] + sorted(rng.sample(range(1, n), runs - 1))
    heads = [lo] if runs == 1 else sorted([lo, hi, *rng.sample(range(lo + 1, hi), runs - 2)])
    ends = starts[1:] + [n]
    return [v for s, e, v in zip(starts, ends, heads) for _ in range(e - s)]


def _run_cases():
    """name -> (a, b, limits): non-decreasing pairs that take the run path
    at every limit listed (None is the full product)."""
    rng = random.Random(1013)
    edge = WORD_MAX // 2
    return {
        # the shorter operand is shorter than limit + 1, so long runs of the
        # other reach outputs past its end: the clipped candidate x[-1] + v
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


RUN_CASES = _run_cases()


@pytest.fixture
def run_calls(monkeypatch):
    """The (x, y) of every call that takes the run path."""
    seen = []
    fold = core._run_maxconv

    def record(x, y, starts, limit):
        seen.append((x, y))
        return fold(x, y, starts, limit)

    monkeypatch.setattr(core, "_run_maxconv", record)
    return seen


@pytest.mark.parametrize("name", sorted(RUN_CASES))
def test_run_path_matches_brute_force(name, run_calls, lanes):
    a, b, limits = RUN_CASES[name]
    for limit in limits:
        want = brute_maxconv(a, b, limit)
        assert maxconv_values(a, b, limit) == want, limit
        assert maxconv_values(b, a, limit) == want, limit
        assert maxconv_values(a, b, limit, "python") == want, limit
    assert len(run_calls) == 2 * len(limits)
    assert lanes == []


def test_run_path_at_the_run_cap(run_calls, lanes):
    # y may have an eighth as many runs as the shorter operand has entries
    # up to the limit: 80 entries allow 10 runs, not 11.
    rng = random.Random(1014)
    for runs, path in ((10, 1), (11, 0)):
        a, b = _steps(rng, 80, runs, 0, 99), _steps(rng, 200, 60, 0, 999)
        for limit in (None, 79):
            assert maxconv_values(a, b, limit) == brute_maxconv(a, b, limit)
        assert (len(run_calls), len(lanes)) == (2 * path, 2 * (1 - path)), runs
        run_calls.clear()
        lanes.clear()
    # With the limit below the shorter length, the cap follows the limit:
    # 5 runs up to index 36 are too many for 37 entries, though not for 200,
    # and 5 runs up to index 44 are few enough for 45.
    a = [i // 9 for i in range(200)]
    assert maxconv_values(a, a, 36) == brute_maxconv(a, a, 36)
    assert (len(run_calls), len(lanes)) == (0, 1)
    assert maxconv_values(a, a, 44) == brute_maxconv(a, a, 44)
    assert (len(run_calls), len(lanes)) == (1, 1)


def test_run_path_reads_only_the_entries_up_to_the_limit(run_calls, lanes):
    # A descent or a jump past the limit changes no output: the path holds.
    rng = random.Random(1015)
    a, b = _steps(rng, 100, 4, 0, 50), _steps(rng, 150, 6, 10, 80)
    a[90:] = [-(10**6)] * 10
    b[120:] = list(range(10**6, 10**6 + 30))
    assert maxconv_values(a, b, 89) == brute_maxconv(a, b, 89)
    assert len(run_calls) == 1 and lanes == []


@pytest.mark.parametrize("where", ["first", "middle", "last", "far below"])
def test_one_descent_sends_the_call_to_the_tiles(where, run_calls, lanes):
    # A drop of 1 may fall between the kernel's sampled entries, so only its
    # scan of the runs finds it; a drop below b[0] shows in any sample.
    rng = random.Random(1016)
    a, b = _steps(rng, 100, 3, 0, 50), _steps(rng, 150, 4, 10, 80)
    j = {"first": 1, "middle": 75, "last": 149, "far below": 70}[where]
    b[j] = b[0] - 1 if where == "far below" else b[j - 1] - 1
    for x, y in ((a, b), (b, a)):
        assert maxconv_values(x, y) == brute_maxconv(x, y)
    assert run_calls == [] and lanes == [np.int32] * 2


def test_a_drop_in_the_many_run_operand_sends_the_call_to_the_tiles(run_calls, lanes):
    # y has few runs; x has too many to check run by run, so the kernel
    # scans it whole and finds the drop of 1 between its sampled entries.
    rng = random.Random(1018)
    a, b = _steps(rng, 100, 3, 0, 50), list(range(150))
    b[75] = 73
    for x, y in ((a, b), (b, a)):
        assert maxconv_values(x, y) == brute_maxconv(x, y)
    assert run_calls == [] and lanes == [np.int32] * 2


def test_many_run_profiles_send_the_call_to_the_tiles(run_calls, lanes):
    # conv-large's profile x profile shape: about one run per two entries.
    rng = random.Random(1017)
    a, b = _profile(rng, 300, 9), _profile(rng, 400, 9)
    for limit in (None, 299):
        assert maxconv_values(a, b, limit) == brute_maxconv(a, b, limit)
    assert run_calls == [] and lanes == [np.int32] * 2


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
    verdicts = set()
    for a in cases:
        dec = is_superadditive(a)
        assert dec.holds == brute_superadd(a)
        verdicts.add((len(a) >= 255, dec.holds))
        if not dec.holds:
            i, j = dec.witness
            assert a[i] + a[j] > a[i + j]
        assert dec.witness == _first_superadd_violation(a)
    assert verdicts == {(False, True), (False, False), (True, True), (True, False)}


def test_normalize_examples():
    seq, c = normalize_nonneg_monotone([0, 0, 0])
    assert seq == [0, 1, 2] and c == 1
    seq, c = normalize_nonneg_monotone([0, -1, 5])
    assert seq == [0, 5, 17] and c == 6
    assert normalize_nonneg_monotone([1, 0]) is None


def test_normalize_preserves_verdict_seed1007():
    rng = random.Random(1007)
    for _ in range(1000):
        n = rng.randint(1, 14)
        a = rand_seq(rng, n, 8)
        norm = normalize_nonneg_monotone(a)
        if norm is None:
            assert a[0] > 0 and not brute_superadd(a)
            continue
        vals = list(norm[0])
        assert vals[0] == 0 and all(v >= 0 for v in vals)
        assert brute_superadd(vals) == brute_superadd(a)
        if brute_superadd(a):
            # monotonicity is guaranteed exactly on the YES side
            assert all(x < y for x, y in zip(vals, vals[1:]))


def test_sequence_validation():
    with pytest.raises(ValueError):
        Sequence([])
    with pytest.raises(TypeError):
        Sequence([1.5])
    with pytest.raises(TypeError):
        Sequence([True])
    assert Sequence([2**60, -(2**70)]).values == (2**60, -(2**70))  # any magnitude


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
