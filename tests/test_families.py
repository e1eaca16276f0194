import time
from fractions import Fraction
from math import gcd

import pytest

from bplinks.errors import RefusalError
from bplinks.families import (
    brieskorn_reference,
    exotic_vector,
    fit_exotic_tau,
    gen_exotic,
    gen_odd_dim,
    gen_standard,
)
from bplinks.lattice import tau_kernel
from bplinks.primes import is_prime
from bplinks.stability import CONTACT_INCONCLUSIVE, contact_obstruction, k_stability
from bplinks.topology import COND2, classify_sphere, diffeo_class_even


def test_is_prime_small_and_carmichael():
    assert [p for p in range(2, 30) if is_prime(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(1)
    assert is_prime(2**61 - 1)


def test_is_prime_agrees_with_a_sieve_below_10_4():
    sieve = [True] * 10**4
    sieve[0] = sieve[1] = False
    for p in range(2, 100):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
    assert [n for n in range(10**4) if is_prime(n)] == [n for n in range(10**4) if sieve[n]]


def test_is_prime_is_proven_below_psi_13_and_refuses_from_there():
    psi_12 = 399165290221 * 798330580441  # a strong pseudoprime to bases 2..37
    psi_13 = 1287836182261 * 2575672364521  # ... and to base 41 too
    assert psi_12 == 318665857834031151167461 and not is_prime(psi_12)
    assert is_prime(41)
    for n in (psi_13, psi_13 + 2):
        with pytest.raises(RefusalError, match="unproven"):
            is_prime(n)


def test_gen_odd_dim_examples():
    spec = gen_odd_dim(2, 101)
    assert spec.vector == (2, 2, 82, 86, 94, 101)
    # the open interval ((n-2) p_n / (2(n-1)), p_n / 2) holds exactly 41, 43, 47
    assert spec.derived["interval"] == (Fraction(303, 8), Fraction(101, 2))
    assert spec.derived["primes"] == (41, 43, 47)
    assert spec.expectations["kervaire"] is True
    assert spec.expectations["se_metric"] is True

    spec = gen_odd_dim(2, 103)
    assert spec.expectations["kervaire"] is False
    assert spec.expectations["se_metric"] is True


def test_gen_odd_dim_refuses_when_primes_run_out():
    with pytest.raises(RefusalError, match=r"only 1 primes .*need 3"):
        gen_odd_dim(2, 7)  # interval too narrow to hold three primes


def test_gen_odd_dim_scans_down_from_the_top():
    assert gen_odd_dim(2, 1000003).vector == (2, 2, 999938, 999946, 999958, 1000003)
    start = time.perf_counter()
    spec = gen_odd_dim(2, 10**9 + 7)
    assert time.perf_counter() - start < 1
    assert spec.derived["primes"] == (499999931, 499999993, 500000003)


def test_gen_standard_example():
    spec = gen_standard(2, 448)  # k = 448 = 16 * 28 forces a standard sphere
    assert spec.vector == (3, 3, 3, 1345, 4034)
    assert spec.expectations["expected_class_zero"] is True

    spec = gen_standard(3, 448)  # modulus 992 needs 16 * 992 | k instead
    assert spec.expectations["expected_class_zero"] is False


def test_gen_standard_members_are_pairwise_coprime_and_ordered():
    for m in range(2, 6):
        for k in range(2, 61):
            d = gen_standard(m, k).derived
            s, p, q = d["s"], d["p"], d["q"]
            assert gcd(s, p) == gcd(s, q) == gcd(p, q) == 1, (m, k)
            assert s < p < q < s * p, (m, k)


def test_gen_exotic_example():
    spec = gen_exotic(2, 1, 3, 56)
    assert spec.vector == (2, 2, 338, 339, 341)
    assert "target_class" not in spec.expectations  # the class varies with q
    assert diffeo_class_even(4, tau_kernel(spec.vector).tau).class_mod_bp == 1
    assert spec.derived["m_divides_index"] is False


def test_gen_exotic_refuses_small_p():
    # q = 1 gives p = 8; for m = 5 (n = 10) the inequality fails
    with pytest.raises(RefusalError):
        gen_exotic(5, 1, 3, 1)


def test_gen_exotic_validates_l():
    with pytest.raises(ValueError):
        gen_exotic(2, 1, 4, 1)  # l must be 6k-3 or 6k-1


def test_exotic_vector_shape():
    assert exotic_vector(6, 8, 3) == (2, 2, 8, 8, 8, 9, 11)
    with pytest.raises(ValueError):
        exotic_vector(5, 8, 3)


def test_brieskorn_reference_examples():
    spec = brieskorn_reference(2, 1, -1)
    assert spec.vector == (2, 2, 2, 3, 5)
    assert spec.expectations["expected_tau"] == 8

    spec = brieskorn_reference(2, 2, -1)
    assert spec.vector == (2, 2, 2, 3, 11)
    assert spec.expectations["expected_tau"] == 16

    spec = brieskorn_reference(3, 1, 1)
    assert spec.vector == (2, 2, 2, 2, 2, 3, 7)
    assert spec.expectations["expected_tau"] == -8


def test_generated_members_are_stable_spheres():
    members = [
        gen_odd_dim(2, 101),
        gen_odd_dim(3, 1009),
        gen_standard(2, 2),
        gen_standard(3, 2),
        gen_exotic(2, 1, 3, 1),
        gen_exotic(3, 1, 5, 1),
        gen_exotic(2, 2, 9, 1),
    ]
    for spec in members:
        assert classify_sphere(spec.vector).is_homotopy_sphere, spec.vector
        assert k_stability(spec.vector).se_metric_exists, spec.vector


def test_odd_dim_members_satisfy_condition_two():
    for p_n in (101, 103, 211):
        spec = gen_odd_dim(2, p_n)
        assert classify_sphere(spec.vector).condition == COND2


def test_exotic_contact_obstruction_when_l_chosen_well():
    # picking l in {6k-3, 6k-1} so that m does not divide the index makes
    # the contact obstruction conclusive
    for m in (2, 3, 4, 5):
        for k in (1, 2, 3):
            chosen = None
            for l in (6 * k - 3, 6 * k - 1):
                for q in (1, 2, 3):
                    try:
                        spec = gen_exotic(m, k, l, q)
                    except RefusalError:
                        continue
                    if not spec.derived["m_divides_index"]:
                        chosen = spec
                        break
                if chosen:
                    break
            assert chosen is not None, (m, k)
            assert contact_obstruction(chosen.vector) != CONTACT_INCONCLUSIVE


def test_fit_exotic_tau_desk_scale():
    fit = fit_exotic_tau(2, 1, 3, samples=7, verify=3)
    assert fit.family["period"] == 6
    assert [p for _, p, _ in fit.samples] == [8, 14, 20, 26, 32, 38, 44]
    assert fit.degree_used == 4
    assert fit.verify is not None
    for p, predicted, actual in fit.verify:
        assert predicted == actual, p
    # spot values against the kernel directly
    assert dict((p, t) for _, p, t in fit.samples)[8] == tau_kernel((2, 2, 8, 9, 11)).tau
