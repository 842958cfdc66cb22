"""Kernels, decision predicates, and normalization."""

import random

import pytest

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
    with pytest.raises(ValueError):
        Sequence([2**60])  # no headroom for the documented blowups


def test_overflow_is_a_hard_error():
    big = (2**63 - 1) // 2 + 10
    with pytest.raises(OverflowError):
        maxconv_values([big], [big])


def test_unknown_kernel_rejected():
    with pytest.raises(ValueError):
        maxconv_values([1], [1], kernel="fancy")
