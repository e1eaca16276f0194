import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from bplinks.errors import RefusalError
from bplinks.report import scan_links
from bplinks.stability import (
    CONTACT_INCONCLUSIVE,
    CONTACT_INDIVISIBLE,
    CONTACT_ODD_DIM,
    contact_obstruction,
    fujita_subset_oracle,
    k_stability,
)


def test_k_stability_examples():
    rep = k_stability((2, 2, 10, 11, 13))
    assert rep.k_polystable and rep.se_metric_exists
    assert rep.sum_recip - 1 == Fraction(383, 1430)

    rep = k_stability((2, 2, 2, 3, 5))
    assert rep.log_fano and not rep.k_semistable
    assert rep.sum_recip == Fraction(61, 30)
    assert rep.d == 30 and rep.weights == (15, 15, 15, 10, 6)
    assert rep.index_invariant == 31  # > 4 * 6


def test_k_stability_boundary_case():
    rep = k_stability((2, 2, 3, 6))
    assert rep.k_semistable and not rep.k_polystable
    assert rep.boundary_semistable
    assert not rep.se_metric_exists


def test_fujita_oracle_examples():
    res = fujita_subset_oracle((3, 3, 3, 3))
    assert res["polystable"]

    res = fujita_subset_oracle((2, 2, 2, 3, 5))
    assert not res["semistable"]
    assert res["min_value"] == Fraction(89, 30) - Fraction(16, 5) == Fraction(-7, 30)

    res = fujita_subset_oracle((2, 2, 3, 6))
    assert res["semistable"] and not res["polystable"]
    assert res["min_value"] == 0


def test_fujita_oracle_refuses_large_n():
    with pytest.raises(RefusalError):
        fujita_subset_oracle((2,) * 14)


def fraction_fujita(a):
    """fujita_subset_oracle restated over Fractions, one value per subset:
    the reference for its integer form."""
    a = tuple(sorted(a))
    n = len(a) - 1
    ones = [1 - Fraction(1, ai) for ai in a]
    total = sum(ones)
    log_fano = sum(Fraction(1, ai) for ai in a) > 1
    min_val = None
    for k in range(1, n):
        for subset in combinations(range(n + 1), k):
            val = k * total - n * sum(ones[i] for i in subset)
            if min_val is None or val < min_val:
                min_val = val
    return {
        "polystable": log_fano and min_val > 0,
        "semistable": log_fano and min_val >= 0,
        "min_value": min_val,
    }


@settings(deadline=None)
@given(st.lists(st.one_of(st.integers(2, 12), st.integers(2, 10**4)), min_size=4, max_size=10))
@example([2, 2, 3, 6])  # min_value 0: semistable, not polystable
@example([2, 3, 7, 42])  # sum 1/a_i == 1: not log Fano
@example([2, 2, 2, 2, 3, 3, 3, 3])  # the boundary at n = 7: min_value 0
@example([10**4] * 13)  # n = 12
@example([2] * 12 + [10**4])
@example(list(range(9_988, 10_001)))
def test_fujita_oracle_equals_its_fraction_restatement(values):
    got = fujita_subset_oracle(values)
    assert type(got["min_value"]) is Fraction
    assert got == fraction_fujita(values)


def test_fujita_oracle_builds_no_fraction_per_subset(fractions_built):
    # 10 subsets at n = 3, 8177 at n = 12
    small, large = (2, 3, 5, 7), tuple(range(2, 15))
    _, small_built = fractions_built(lambda: fujita_subset_oracle(small))
    _, large_built = fractions_built(lambda: fujita_subset_oracle(large))
    assert large_built == small_built


def test_k_stability_equals_the_oracle_on_every_scanned_vector():
    # the 18 564 vectors of scan --n 5 --amax 14 and the 792 of --n 4 --amax 9
    seen = 0
    for n, amax in ((5, 14), (4, 9)):
        for r in scan_links(n, amax):
            res = fujita_subset_oracle(r.vector)
            stab = r.stability
            assert (stab.k_polystable, stab.k_semistable) == (
                res["polystable"],
                res["semistable"],
            ), r.vector
            seen += 1
    assert seen == 18_564 + 792


@given(
    st.lists(
        st.one_of(st.integers(2, 12), st.integers(2, 10**4)), min_size=4, max_size=12
    ),
)
@example([2, 2, 3, 6])  # semistable boundary
@example([2, 3, 7, 42])  # sum 1/a_i == 1: not log Fano
def test_k_stability_fields_match_fraction_formulas(values):
    rep = k_stability(values)
    a = tuple(sorted(values))
    n = len(a) - 1
    s = sum(Fraction(1, ai) for ai in a)
    upper = 1 + Fraction(n, a[-1])
    assert rep.vector == a
    assert rep.sum_recip == s
    assert rep.log_fano == (s > 1)
    assert rep.k_semistable == (s > 1 and s <= upper)
    assert rep.k_polystable == rep.se_metric_exists == (s > 1 and s < upper)
    assert rep.boundary_semistable == (s > 1 and s == upper)
    assert rep.d == lcm(*a)
    assert rep.weights == tuple(rep.d // ai for ai in a)
    assert rep.index_invariant == rep.d * (s - 1)
    assert rep.contact == contact_obstruction(values)


def test_closed_form_matches_oracle_on_randoms():
    rng = random.Random(20260823)
    for _ in range(200):
        n = rng.randint(3, 7)
        a = sorted(rng.randint(2, 15) for _ in range(n + 1))
        rep = k_stability(a)
        res = fujita_subset_oracle(a)
        assert rep.k_polystable == res["polystable"], a
        assert rep.k_semistable == res["semistable"], a


def test_stability_implication_chain():
    rng = random.Random(5)
    for _ in range(400):
        a = sorted(rng.randint(2, 20) for _ in range(rng.randint(4, 8)))
        rep = k_stability(a)
        if rep.k_polystable:
            assert rep.k_semistable
        if rep.k_semistable:
            assert rep.log_fano
        # I_a = d (sum 1/a_i - 1), so log Fano iff the index is positive
        assert rep.log_fano == (rep.index_invariant > 0)


def test_contact_obstruction_examples():
    assert contact_obstruction((2, 2, 3, 5, 7, 11)) == CONTACT_ODD_DIM  # n = 5
    assert contact_obstruction((2, 2, 338, 339, 341)) == CONTACT_INDIVISIBLE
    assert contact_obstruction((2, 2, 2, 2, 3)) == CONTACT_INCONCLUSIVE


def test_contact_indivisible_index_value():
    # I_a for (2,2,338,339,341): d = lcm, weights d/a_i; reduces to an odd
    # number so m = 2 cannot divide it
    a = (2, 2, 338, 339, 341)
    d = lcm(*a)
    index = sum(d // x for x in a) - d
    assert index == 339 * 341 + 338 * 341 + 338 * 339 == 345439
    assert index % 2 == 1
    assert contact_obstruction(a) == CONTACT_INDIVISIBLE


def test_index_congruence_for_exotic_shape():
    # For a = (2,2,p,...,p,p+1,p+l) with n = 2m coordinates +1, p even and
    # the usual coprimality, I_a = (n-3)(p+1)(p+l) + p(2p+l+1) satisfies
    # I_a = -p^2 - 2pl - 2p - 3l (mod m) once p = q l(l-1) + 2 makes the
    # remaining terms multiples of m... checked directly on the formula.
    rng = random.Random(99)
    checked = 0
    for _ in range(300):
        m = rng.randint(2, 6)
        n = 2 * m
        l = rng.choice([3, 5, 9, 11, 15, 17])
        p = rng.randrange(4, 400, 2)
        if gcd(p, l) != 1 or gcd(p + 1, l - 1) != 1:
            continue
        index = (n - 3) * (p + 1) * (p + l) + p * (2 * p + l + 1)
        # (n-3)(p+1)(p+l) = (2m-3)(...) and 2p(p + (l+1)/2...) -- reduce mod m
        assert (index - (-(p * p) - 2 * p * l - 2 * p - 3 * l)) % m == 0
        checked += 1
    assert checked >= 100
