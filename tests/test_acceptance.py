"""Acceptance gate: one pass/fail line per criterion (run with -s to see
them).  Every comparison is exact; the only tolerances are wall-clock
budgets, asserted per criterion."""

import itertools
import random
import sys
import time
from fractions import Fraction
from math import gcd, prod

from bplinks.arith import bp_order
from bplinks.families import fit_exotic_tau, gen_odd_dim, brieskorn_reference
from bplinks.lattice import (
    beta_via_gamma,
    count_box,
    count_spec,
    delta_closed,
    gamma_family_closed,
    gamma_triangle,
    tau_brute,
    tau_kernel,
)
from bplinks.moduli import maslov_index, mean_euler, moduli_dimension
from bplinks.report import classify_link
from bplinks.stability import fujita_subset_oracle, k_stability
from bplinks.topology import diffeo_class_even


def _check(num, desc, limit_s, body):
    start = time.monotonic()
    try:
        body()
    except BaseException:
        print(f"criterion {num:2d}: FAIL - {desc}", file=sys.stderr)
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit_s, f"criterion {num} exceeded {limit_s}s ({elapsed:.1f}s)"
    print(f"criterion {num:2d}: PASS - {desc} [{elapsed:.1f}s]")


def _fields(sig):
    return sig.tau, sig.plus_count, sig.minus_count, sig.boundary_skipped


def test_criterion_01_brieskorn_reference_spheres():
    def body():
        for m in (2, 3):
            for k in range(1, 5):
                for sign in (1, -1):
                    spec = brieskorn_reference(m, k, sign)
                    want = spec.expectations["expected_tau"]
                    assert want == 8 * (-1) ** m * k
                    assert tau_brute(spec.vector).tau == want, spec.vector
                    assert tau_kernel(spec.vector).tau == want, spec.vector

    _check(1, "reference spheres tau/8 = (-1)^m k, brute and kernel", 60, body)


def test_criterion_02_cross_algorithm_equality():
    def body():
        rng = random.Random(20260823)
        done = 0
        while done < 50:
            n1 = rng.randint(4, 6)
            a = tuple(sorted(rng.randint(2, 12) for _ in range(n1)))
            if prod(ai - 1 for ai in a) > 10**6:
                continue
            b = tau_brute(a)
            k = tau_kernel(a)
            assert (b.tau, b.boundary_skipped) == (k.tau, k.boundary_skipped), a
            done += 1

    _check(2, "tau_kernel = tau_brute on 50 random vectors", 600, body)


def test_criterion_03_quasipolynomial_prediction():
    def body():
        fit = fit_exotic_tau(2, 1, 3, samples=7, verify=3)
        assert [p for _, p, _ in fit.samples] == [8, 14, 20, 26, 32, 38, 44]
        assert fit.degree_used <= 4
        held = [(p, pred, act) for p, pred, act in fit.verify]
        assert [p for p, _, _ in held] == [50, 56, 62]
        for p, predicted, actual in held:
            assert predicted == actual, p

    _check(3, "qp fit on 7 samples predicts tau exactly at p in {50,56,62}", 120, body)


def test_criterion_04_exotic_family_end_to_end():
    def body():
        sig = tau_kernel((2, 2, 338, 339, 341))
        assert sig.tau % 8 == 0
        assert (sig.tau // 8) % 28 == 1
        assert sig.boundary_skipped == 0
        assert _fields(tau_brute((2, 2, 338, 339, 341))) == _fields(sig)

    _check(4, "(2,2,338,339,341): 8 | tau and (tau/8) mod 28 = 1, brute = kernel", 300, body)


def test_criterion_05_standard_family_divisibility():
    def body():
        sig = tau_kernel((3, 3, 3, 1345, 4034))
        assert sig.tau % 8 == 0
        assert (sig.tau // 8) % 28 == 0
        assert diffeo_class_even(4, sig.tau).is_standard
        assert _fields(tau_brute((3, 3, 3, 1345, 4034))) == _fields(sig)

    _check(5, "(3,3,3,1345,4034) with k = 16*28 lands in class 0 mod 28, brute = kernel", 300, body)


def test_criterion_06_k_stability_equivalence():
    def body():
        rng = random.Random(17)
        for _ in range(500):
            n = rng.randint(3, 7)
            a = tuple(sorted(rng.randint(2, 15) for _ in range(n + 1)))
            rep = k_stability(a)
            res = fujita_subset_oracle(a)
            assert rep.k_polystable == res["polystable"], a
            assert rep.k_semistable == res["semistable"], a
        boundary = k_stability((2, 2, 3, 6))
        assert boundary.k_semistable and not boundary.k_polystable

    _check(6, "closed form = Fujita oracle on 500 vectors; (2,2,3,6) boundary", 600, body)


def test_criterion_07_counting_lemmas():
    def oracle_triangle(p, l, j):
        bound = Fraction(j, p)
        total, x = 0, 0
        while Fraction(x, p + 1) <= bound:
            rest = (bound - Fraction(x, p + 1)) * (p + l)
            total += rest.numerator // rest.denominator + 1
            x += 1
        return total

    def oracle_strip(A, B, u):
        # x/A + y/B < u, compared in integers: (Bx + Ay) u.den < u.num AB
        u = Fraction(u)
        cap = u.numerator * A * B
        return sum(
            1
            for x in range(1, A)
            for y in range(1, B)
            if (B * x + A * y) * u.denominator < cap
        )

    def body():
        rng = random.Random(23)
        for _ in range(200):
            p, l = rng.randint(1, 120), rng.randint(2, 9)
            j = rng.randint(0, 3 * p)
            assert gamma_triangle(p, l, j).total == oracle_triangle(p, l, j), (p, l, j)
        for _ in range(200):
            s = rng.choice([3, 5, 7])
            k = rng.randint(1, 20)
            j = rng.randint(1, s)
            want = oracle_strip(s * k + 1, s * (s * k + 1) - 1, Fraction(j, s))
            assert gamma_family_closed(s, k, j) == want, (s, k, j)
        for _ in range(200):
            p, l = rng.randint(1, 6), rng.randint(0, 4)
            n, eta = rng.randint(2, 4), rng.randint(0, 2)
            spec = count_spec((p,) * (n - 1) + (p + l,), eta)
            assert delta_closed(p, l, eta, n) == count_box(spec), (p, l, eta, n)
        for _ in range(200):
            p, l = rng.randint(1, 6), rng.randint(2, 5)
            n, eta = rng.randint(4, 5), rng.randint(0, 2)
            spec = count_spec((p,) * (n - 3) + (p + 1, p + l), eta)
            assert beta_via_gamma(p, l, eta, n) == count_box(spec), (p, l, eta, n)

    _check(7, "gamma/delta/beta counters = enumeration on 200 instances each", 600, body)


def test_criterion_08_moduli_identity():
    def body():
        dim = moduli_dimension(6, 8, 3)
        assert dim.h0_d == 80
        assert dim.dimension == 35
        for p in (8, 14, 20):
            for n in (6, 8):
                assert moduli_dimension(n, p, 3).agree, (n, p)

    _check(8, "moduli DP: h0 = 80, dim 35 at (6,8,3); closed form matches", 30, body)


def test_criterion_09_bp_orders_and_maslov():
    def body():
        assert (bp_order(2).order, bp_order(3).order, bp_order(4).order) == (28, 992, 8128)
        rng = random.Random(31)
        checked = 0
        while checked < 100:
            n = rng.choice([4, 6, 8, 10])
            p = rng.randrange(4, 200, 2)
            l = rng.choice([3, 5, 7, 9, 11])
            if gcd(p, l) != 1 or gcd(p + 1, l - 1) != 1:
                continue
            stab = k_stability((2, 2) + (p,) * (n - 3) + (p + 1, p + l))
            assert maslov_index(n, p, l) == 2 * stab.index_invariant, (n, p, l)
            checked += 1
        rep = mean_euler(6, 8, 3)
        assert rep.phi_2 == 336
        assert all(s.frequency >= 0 for s in rep.strata)

    _check(9, "bp orders (28,992,8128); mu = 2 I_a x100; phi_2(8,3) = 336", 600, body)


def test_criterion_10_odd_dimension_family():
    def body():
        rep = classify_link(gen_odd_dim(2, 101).vector)
        assert rep.vector == (2, 2, 82, 86, 94, 101)
        assert rep.sphere.is_homotopy_sphere
        assert rep.diffeo.arf == 1  # Kervaire sphere
        assert rep.stability.se_metric_exists

        rep = classify_link(gen_odd_dim(2, 103).vector)
        assert rep.sphere.is_homotopy_sphere
        assert rep.diffeo.arf == 0  # standard sphere
        assert rep.stability.se_metric_exists

    _check(10, "gen_odd_dim(2,101) Kervaire / (2,103) standard, both SE", 600, body)
