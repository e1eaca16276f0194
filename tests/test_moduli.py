import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from bplinks.errors import InvariantViolation, RefusalError
from bplinks.moduli import (
    maslov_index,
    mean_euler,
    moduli_dimension,
    weighted_monomial_count,
)
from bplinks.stability import k_stability
from bplinks.families import exotic_vector


def brute_weighted_count(weights, degree):
    total = 0
    ranges = [range(degree // w + 1) for w in weights]
    for es in itertools.product(*ranges):
        if sum(w * e for w, e in zip(weights, es)) == degree:
            total += 1
    return total


def test_weighted_monomial_count_small():
    assert weighted_monomial_count((1, 2, 3), 6) == brute_weighted_count((1, 2, 3), 6)
    assert weighted_monomial_count((5,), 4) == 0
    assert weighted_monomial_count((2, 3), 1) == 0
    assert weighted_monomial_count((1,), 0) == 1


def test_weighted_monomial_count_random_against_brute():
    rng = random.Random(3)
    for _ in range(60):
        k = rng.randint(1, 4)
        weights = tuple(rng.randint(1, 7) for _ in range(k))
        degree = rng.randint(0, 25)
        assert weighted_monomial_count(weights, degree) == brute_weighted_count(
            weights, degree
        ), (weights, degree)


def test_exotic_weights_shape():
    stab = k_stability(exotic_vector(6, 8, 3))
    assert stab.d == 8 * 9 * 11 == 792
    assert stab.weights == (396, 396, 99, 99, 99, 88, 72)


def test_moduli_dimension_example():
    dim = moduli_dimension(6, 8, 3)
    assert dim.h0_d == 80
    assert dim.dimension == 35
    assert dim.closed_form == 35
    assert dim.agree


def test_moduli_dimension_matches_closed_form_in_regime():
    for p in (8, 14, 20):
        for n in (6, 8):
            dim = moduli_dimension(n, p, 3)
            assert dim.agree, (n, p)


def test_moduli_dimension_rejects_bad_shape():
    with pytest.raises(ValueError):
        moduli_dimension(6, 9, 3)  # p odd
    with pytest.raises(ValueError):
        moduli_dimension(6, 8, 2)  # gcd(p, l) = 2
    with pytest.raises(ValueError):
        moduli_dimension(4, 8, 3)  # n too small


@pytest.mark.parametrize("n, p, l", [(6, 2, 1), (6, 4, 1), (6, 2, 3), (8, 8, 1)])
def test_moduli_dimension_refuses_repeated_exponents(n, p, l):
    # p = 2 repeats the leading 2s and l = 1 gives p + 1 = p + l; the DP
    # then disagrees with the closed form (41 against 35 at (6, 8, 1))
    with pytest.raises(RefusalError, match=r"p >= 4, l >= 2"):
        moduli_dimension(n, p, l)


def test_moduli_dimension_budget(monkeypatch):
    # (6, 8, 3): d = 792, weights (396, 396, 99, 99, 99, 88, 72); the one DP
    # up to degree d adds 2 * 397 + 3 * 694 + 705 + 721 = 4302
    monkeypatch.setenv("BPLINKS_TAU_BUDGET", "4301")
    with pytest.raises(RefusalError, match=r"~4302 .*budget 4301\)"):
        moduli_dimension(6, 8, 3)
    monkeypatch.setenv("BPLINKS_TAU_BUDGET", "4302")
    assert moduli_dimension(6, 8, 3).dimension == 35


def test_maslov_index_examples():
    assert maslov_index(6, 8, 3) == 914  # 2(3*99 + 8*20)
    assert maslov_index(4, 10, 3) == 766  # 2(11*13 + 10*24)
    with pytest.raises(ValueError):
        maslov_index(6, 2, 1)  # l = 1 repeats p + 1; the formula gives 78, 2 * I_a is 26


def test_l_one_is_not_a_family_shape():
    # (2,2,8,8,8,9,9): the formula gives 774, but 2 * I_a is 86
    with pytest.raises(ValueError):
        maslov_index(6, 8, 1)
    with pytest.raises(ValueError):
        mean_euler(6, 2, 1)


def _accepts(fn, *args):
    try:
        fn(*args)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("n", [6, 8])
def test_one_family_shape(n):
    # exotic_vector is the one shape check, so all three accept the same
    for p in range(-2, 40):
        for l in range(-1, 12):
            ok = _accepts(exotic_vector, n, p, l)
            assert _accepts(maslov_index, n, p, l) == ok, (n, p, l)
            assert _accepts(mean_euler, n, p, l) == ok, (n, p, l)


def test_maslov_equals_twice_index_invariant():
    rng = random.Random(17)
    checked = 0
    while checked < 100:
        n = rng.choice([4, 6, 8, 10])
        p = rng.randrange(4, 200, 2)
        l = rng.choice([3, 5, 7, 9, 11])
        if gcd(p, l) != 1 or gcd(p + 1, l - 1) != 1:
            continue
        mu = maslov_index(n, p, l)
        stab = k_stability(exotic_vector(n, p, l))
        assert mu == 2 * stab.index_invariant, (n, p, l)
        checked += 1


def test_mean_euler_example():
    rep = mean_euler(6, 8, 3)
    assert rep.mu_p == 914
    assert rep.phi_2 == 336
    assert tuple(s.frequency for s in rep.strata) == (1, 3, 4, 8, 10, 24, 30, 80, 336)
    assert tuple(s.period for s in rep.strata) == (792, 198, 99, 88, 72, 22, 18, 8, 2)
    assert rep.chi_m == Fraction(2151, 914)
    assert rep.strata[7].chi_s1 == -38  # the p-stratum


def _family_regime():
    for n in (4, 6, 8, 10):
        for p in range(4, 60, 2):
            for l in range(2, 12):
                if gcd(p, l) == 1 and gcd(p + 1, l - 1) == 1:
                    yield n, p, l


def test_rule_gives_the_fixed_strata_their_constants():
    # the eight strata other than the p-stratum (index 7) keep their old constants
    for n, p, l in _family_regime():
        chis = [s.chi_s1 for s in mean_euler(n, p, l).strata]
        assert chis[:7] + chis[8:] == [n, 3, 1, n - 1, n - 1, 2, 2, 2], (n, p, l)


def test_p_stratum_equals_its_closed_form():
    # X_T for T = (2, 2, p^(n-3)) has odd dimension n - 3, m_1 counts the
    # x in (1..p-1)^(n-3) summing to 0 mod p
    for n, p, l in _family_regime():
        m1 = ((p - 1) ** (n - 3) + (-1) ** (n - 3) * (p - 1)) // p
        assert mean_euler(n, p, l).strata[7].chi_s1 == (n - 2) - m1, (n, p, l)


def test_mean_euler_degenerate_guard():
    # tiny p: frequencies are computed and any negativity must be flagged,
    # not silently emitted
    try:
        rep = mean_euler(6, 2, 3)  # the smallest accepted shape
    except InvariantViolation as err:
        assert "frequency" in str(err)
    else:
        assert all(s.frequency >= 0 for s in rep.strata)


def test_frequencies_nonnegative_in_regime():
    for p in range(4, 60, 2):
        for l in (3, 5):
            if gcd(p, l) != 1 or gcd(p + 1, l - 1) != 1:
                continue
            rep = mean_euler(6, p, l)
            assert all(s.frequency >= 0 for s in rep.strata), (p, l)
            assert rep.phi_2 == p * ((p + 1) * (p + l) - 2 * p - l + 4) // 2
            assert rep.phi_2 >= 0


def test_chi_m_pairwise_distinct_along_p():
    values = []
    for p in range(8, 99, 6):  # p = 8, 14, ..., 98: even, coprime to 3
        rep = mean_euler(6, p, 3)
        values.append(rep.chi_m)
    assert len(set(values)) == len(values)
