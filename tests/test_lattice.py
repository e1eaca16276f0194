import itertools
import random
import time
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bplinks import lattice
from bplinks.errors import InvariantViolation, RefusalError
from bplinks.lattice import (
    _count_eq_2d,
    _dedekind_d,
    _open_box_below,
    _tau_residue_dp,
    _window_counts,
    beta_via_gamma,
    count_box,
    count_spec,
    delta_closed,
    gamma_family_closed,
    gamma_triangle,
    strip_count_2d,
    tau_brute,
    tau_kernel,
)
from bplinks.topology import classify_sphere, exponent_vector


# ---------------------------------------------------------------------------
# independent oracles (deliberately naive)


def oracle_tau(a):
    """Signature by direct rational enumeration of the open box."""
    plus = minus = boundary = 0
    for point in itertools.product(*(range(1, ai) for ai in a)):
        s = sum(Fraction(x, ai) for x, ai in zip(point, a))
        r = s % 2
        if r == 0 or r == 1:
            boundary += 1
        elif r < 1:
            plus += 1
        else:
            minus += 1
    return plus - minus, boundary


def oracle_triangle(p, l, j):
    """#{(x, y) >= 0 : x/(p+1) + y/(p+l) <= j/p} by row enumeration."""
    bound = Fraction(j, p)
    total = 0
    x = 0
    while Fraction(x, p + 1) <= bound:
        rest = bound - Fraction(x, p + 1)
        total += (rest * (p + l)).numerator // (rest * (p + l)).denominator + 1
        x += 1
    return total


def oracle_strip(A, B, u):
    """Open-open strict strip count by full enumeration."""
    u = Fraction(u)
    return sum(
        1
        for x in range(1, A)
        for y in range(1, B)
        if Fraction(x, A) + Fraction(y, B) < u
    )


def oracle_rows(A, B, u, x_open, y_open, x_bounded, y_bounded, strict):
    """x/A + y/B < u (strict) or <= u counted row by row in O(A), on
    integers: with u = p/q, row x holds the y >= y0 with
    qAy < pAB - qBx (strict) or <= it, capped at B - 1 when y is bounded."""
    p, q = u.numerator, u.denominator
    x = 1 if x_open else 0
    y0 = 1 if y_open else 0
    total = 0
    while not (x_bounded and x >= A):
        room = p * A * B - q * B * x
        ymax = (room - 1) // (q * A) if strict else room // (q * A)
        if y_bounded:
            ymax = min(B - 1, ymax)
        if ymax < y0:
            break  # rows only get shorter as x grows
        total += ymax - y0 + 1
        x += 1
    return total


def oracle_on_line(A, B, M):
    """#{0 < x < A, 0 < y < B : Bx + Ay = M} by one division per x."""
    total = 0
    for x in range(1, A):
        y, rem = divmod(M - B * x, A)
        if rem == 0 and 0 < y < B:
            total += 1
    return total


def oracle_box(denoms, threshold, strict, lower_open, upper_bounded):
    """Full enumeration of a CountSpec region, one exact comparison per
    point in integers: over D = lcm(denoms) and t = threshold,
    sum x_i/d_i < t reads sum x_i (D/d_i) t.den < t.num D."""
    threshold = Fraction(threshold)
    D = lcm(*denoms)
    weights = [D // d * threshold.denominator for d in denoms]
    cap = threshold.numerator * D
    axes = []
    for d, lo, ub in zip(denoms, lower_open, upper_bounded):
        start = 1 if lo else 0
        stop = d if ub else (threshold * d).numerator // (threshold * d).denominator + 1
        axes.append(range(start, stop))
    total = 0
    for point in itertools.product(*axes):
        s = sum(x * w for x, w in zip(point, weights))
        if s < cap or (not strict and s == cap):
            total += 1
    return total


# ---------------------------------------------------------------------------
# strip / window kernels


def test_strip_count_examples():
    assert strip_count_2d(7, 20, Fraction(1, 3)) == 3
    assert strip_count_2d(7, 20, 0) == 0
    assert strip_count_2d(7, 20, 2) == 114  # full open box 6 * 19


def test_strip_count_matches_enumeration():
    rng = random.Random(41)
    for _ in range(150):
        A, B = rng.randint(2, 25), rng.randint(2, 25)
        u = Fraction(rng.randint(0, 50), rng.randint(1, 30))
        assert strip_count_2d(A, B, u) == oracle_strip(A, B, u), (A, B, u)


# thresholds u = p/q in [0, 3], so the u >= 2 rows past the box are covered
thresholds = st.integers(1, 40).flatmap(
    lambda q: st.builds(Fraction, st.integers(0, 3 * q), st.just(q))
)


@settings(max_examples=300, deadline=None)
@given(
    A=st.integers(2, 60),
    B=st.integers(2, 60),
    u=thresholds,
    lower_open=st.tuples(st.booleans(), st.booleans()),
)
@example(A=999_983, B=1_000_003, u=Fraction(1, 7), lower_open=(True, True))
@example(A=1_000_000, B=999_999, u=Fraction(5, 3), lower_open=(False, True))
@example(A=999_983, B=1_000_003, u=Fraction(1, 7), lower_open=(False, False))
@example(A=1_000_000, B=999_999, u=Fraction(7, 3), lower_open=(False, False))  # N > AB
@example(A=999_999, B=1_000_002, u=Fraction(5, 2), lower_open=(True, False))
def test_strip_count_matches_row_oracle(A, B, u, lower_open):
    want = oracle_rows(A, B, u, *lower_open, True, True, True)
    assert strip_count_2d(A, B, u, lower_open) == want


@settings(max_examples=400, deadline=None)
@given(
    A=st.integers(2, 60),
    B=st.integers(2, 60),
    x=st.integers(0, 60),
    y=st.integers(0, 60),
    d=st.integers(-1, 1),
)
@example(A=999_999, B=1_000_002, x=5, y=7, d=0)  # gcd 3, a line through the box
def test_count_eq_2d_matches_line_oracle(A, B, x, y, d):
    M = B * x + A * y + d
    assert _count_eq_2d(A, B, M) == oracle_on_line(A, B, M)


# (A, B, N) with N from below the box to past its top corner, 2AB
open_boxes = st.tuples(st.integers(1, 60), st.integers(1, 60)).flatmap(
    lambda ab: st.tuples(st.just(ab[0]), st.just(ab[1]), st.integers(-2, 2 * ab[0] * ab[1] + 2))
)


@settings(max_examples=400, deadline=None)
@given(case=open_boxes)
@example(case=(12, 18, 12 * 18 - 1))  # gcd 6; the edges around N = AB
@example(case=(12, 18, 12 * 18))
@example(case=(12, 18, 12 * 18 + 1))
@example(case=(12, 18, 2 * 12 * 18 - 1))
@example(case=(1, 7, 8))  # an empty box just past N = AB
@example(case=(13, 17, 13 * 17))
@example(case=(13, 17, 2 * 13 * 17 - 1))
@example(case=(999_983, 1_000_003, 999_983 * 1_000_003 // 7))
@example(case=(999_999, 1_000_002, 2 * 999_999 * 1_000_002 - 999_999 * 1_000_002 // 5))
def test_open_box_below_matches_row_oracle(case):
    # the one-floor-sum edge count against the O(A) row count of
    # x/A + y/B <= N/(AB) over the open box
    A, B, N = case
    want = oracle_rows(A, B, Fraction(N, A * B), True, True, True, True, False)
    assert _open_box_below(A, B, N) == want


def test_window_counts_examples():
    assert _window_counts(1, 2, 3, 5) == (0, 8, 0)  # offset 1/2
    assert _window_counts(0, 1, 2, 2) == (0, 0, 1)
    assert _window_counts(0, 1, 2, 3) == (1, 1, 0)  # 5/6 -> +1, 7/6 -> -1


def oracle_window(c, A, B):
    """(plus, minus, boundary) of c + x/A + y/B over 0 < x < A, 0 < y < B
    by enumeration."""
    plus = minus = boundary = 0
    for x in range(1, A):
        for y in range(1, B):
            r = (c + Fraction(x, A) + Fraction(y, B)) % 2
            if r == 0 or r == 1:
                boundary += 1
            elif r < 1:
                plus += 1
            else:
                minus += 1
    return plus, minus, boundary


def test_window_counts_matches_enumeration():
    rng = random.Random(42)
    for _ in range(150):
        A, B = rng.randint(2, 12), rng.randint(2, 12)
        L = rng.randint(1, 12)
        r = rng.randrange(L)
        assert _window_counts(r, L, A, B) == oracle_window(Fraction(r, L), A, B), (r, L, A, B)


# The residue DP's window table is keyed by (num, den, A, B) with num/den
# the offset folded into [0, 1/2] in lowest terms; these are the three
# facts that make it exact.
@settings(max_examples=300, deadline=None)
@given(L=st.integers(1, 12), r=st.integers(0, 11), A=st.integers(2, 9), B=st.integers(2, 9))
@example(L=1, r=0, A=2, B=2)
@example(L=12, r=6, A=4, B=6)
def test_window_counts_depend_on_the_reduced_offset_only(L, r, A, B):
    r %= L
    g = gcd(r, L)
    got = _window_counts(r, L, A, B)
    assert got == _window_counts(r // g, L // g, A, B)
    assert got == oracle_window(Fraction(r, L), A, B)


@settings(max_examples=300, deadline=None)
@given(L=st.integers(1, 12), r=st.integers(0, 11), A=st.integers(2, 9), B=st.integers(2, 9))
@example(L=1, r=0, A=2, B=2)
@example(L=6, r=3, A=2, B=3)
def test_window_counts_shift_by_one_swaps_plus_and_minus(L, r, A, B):
    r %= L
    plus, minus, boundary = _window_counts(r, L, A, B)
    assert (minus, plus, boundary) == oracle_window(Fraction(r + L, L), A, B)


@settings(max_examples=300, deadline=None)
@given(L=st.integers(1, 12), r=st.integers(0, 11), A=st.integers(2, 9), B=st.integers(2, 9))
@example(L=1, r=0, A=2, B=2)
@example(L=6, r=3, A=2, B=3)
@example(L=5, r=2, A=5, B=5)
def test_window_counts_are_the_same_at_c_and_one_minus_c(L, r, A, B):
    # the inner flip (x, y) -> (A - x, B - y) sends (1 - c) + x/A + y/B
    # to 3 - (c + x/A + y/B), whose window is the same
    r %= L
    assert _window_counts(r, L, A, B) == oracle_window(Fraction(L - r, L), A, B)


# ---------------------------------------------------------------------------
# signature


def test_tau_examples():
    assert tau_brute((2, 2, 2, 3, 5)).tau == 8
    assert tau_brute((2, 2, 2, 3, 7)).tau == 8
    assert tau_brute((2, 2, 2, 3, 11)).tau == 16
    assert tau_kernel((2, 2, 2, 3, 5)).tau == 8


def test_tau_kernel_matches_brute_on_cross_validation_instance():
    assert prod(ai - 1 for ai in (3, 3, 3, 7, 20)) == 912
    vectors = [(3, 3, 3, 7, 20)]
    vectors += itertools.combinations_with_replacement(range(2, 10), 5)
    assert len(vectors) == 1 + 792
    for a in vectors:
        b = tau_brute(a)
        k = tau_kernel(a)
        assert (k.tau, k.plus_count, k.minus_count, k.boundary_skipped) == (
            b.tau,
            b.plus_count,
            b.minus_count,
            b.boundary_skipped,
        ), a


def test_tau_kernel_matches_brute_with_even_outer_length():
    # with an even number of outer exponents the mirror of offset c is -c,
    # so a lone vector meets both c and 1 - c, which the fold merges; with
    # an odd number (n = 4) the mirror is 1 - c itself
    vectors = [
        *itertools.combinations_with_replacement(range(2, 10), 4),
        *itertools.combinations_with_replacement(range(2, 8), 6),
    ]
    assert len(vectors) == 330 + 462
    for a in vectors:
        b = tau_brute(a)
        k = tau_kernel(a)
        assert (k.tau, k.plus_count, k.minus_count, k.boundary_skipped) == (
            b.tau,
            b.plus_count,
            b.minus_count,
            b.boundary_skipped,
        ), a


def test_lone_tau_kernel_counts_each_reduced_offset_once(monkeypatch):
    seen = []

    def counting(r, L, A, B):
        seen.append((r, L, A, B))
        return _window_counts(r, L, A, B)

    monkeypatch.setattr(lattice, "_window_counts", counting)
    for a in itertools.combinations_with_replacement(range(2, 8), 5):
        seen.clear()
        k = tau_kernel(a)
        assert len(seen) == len(set(seen)), a  # r and r + L share one count
        assert all(r < L and gcd(r, L) == 1 or (r, L) == (0, 1) for r, L, _, _ in seen), a
        b = tau_brute(a)
        assert (k.tau, k.plus_count, k.minus_count) == (b.tau, b.plus_count, b.minus_count), a


def test_lone_tau_kernel_folds_every_offset_into_the_first_half(monkeypatch):
    # n = 3 and n = 5 have an even number of outer exponents, the case
    # where a vector's residues reach both c and 1 - c
    seen = []

    def counting(r, L, A, B):
        seen.append((r, L, A, B))
        return _window_counts(r, L, A, B)

    monkeypatch.setattr(lattice, "_window_counts", counting)
    vectors = [
        *itertools.combinations_with_replacement(range(2, 12), 4),
        *itertools.combinations_with_replacement(range(2, 8), 6),
    ]
    for a in vectors:
        seen.clear()
        lattice._window_memo.cache_clear()  # a lone vector: nothing counted before it
        tau_kernel(a)
        assert all(2 * r <= L for r, L, _, _ in seen), a
        assert not any((L - r, L, A, B) in seen for r, L, A, B in seen if 2 * r != L), a


def test_outer_residues_fold_each_residue_into_its_reduced_offset():
    outer_residues = lattice._outer_residues.__wrapped__  # the memo would hide repeats
    for m in (1, 2, 3):
        for outer in itertools.combinations_with_replacement(range(2, 9), m):
            entries = outer_residues(outer, lcm(*outer))
            offsets = [(num, den) for num, den, *_ in entries]
            assert len(offsets) == len(set(offsets)), outer  # c, c + 1, 1 - c share one entry
            assert all(2 * num <= den and gcd(num, den) == 1 for num, den in offsets), outer
            points = prod(ai - 1 for ai in outer)
            assert sum(same + other for _, _, same, other in entries) == points, outer


def test_residue_memos_are_bounded():
    assert lattice._window_memo.cache_info().maxsize == 1 << 14
    assert lattice._outer_residues.cache_info().maxsize == 1


def test_residue_dp_still_checks_the_mirror_pairs(monkeypatch):
    # an lcm that the outer exponents do not divide breaks the flip's pairing
    monkeypatch.setattr(lattice, "lcm", lambda *v: lcm(*v) + 1)
    with pytest.raises(InvariantViolation, match="the flip x -> a - x pairs them"):
        tau_kernel((2, 3, 4, 5, 7))


def test_tau_matches_rational_oracle_small():
    rng = random.Random(77)
    for _ in range(25):
        a = tuple(sorted(rng.randint(2, 7) for _ in range(4)))
        tau, boundary = oracle_tau(a)
        b = tau_brute(a)
        k = tau_kernel(a)
        assert (b.tau, b.boundary_skipped) == (tau, boundary), a
        assert (k.tau, k.boundary_skipped) == (tau, boundary), a


def _sawtooth(x: Fraction) -> Fraction:
    """((x)): x - floor(x) - 1/2 off the integers, 0 on them."""
    if x.denominator == 1:
        return Fraction(0)
    return x - x.numerator // x.denominator - Fraction(1, 2)


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 200), h=st.integers(0, 10**6))
@example(k=1, h=0)
@example(k=200, h=199)
def test_dedekind_d_matches_sawtooth_sum(k, h):
    while gcd(h, k) != 1:
        h += 1
    s = sum(_sawtooth(Fraction(i, k)) * _sawtooth(Fraction(h * i, k)) for i in range(1, k))
    assert _dedekind_d(h, k) == 6 * k * s


def _fields(sig):
    return sig.tau, sig.plus_count, sig.minus_count, sig.boundary_skipped


def test_tetrahedron_form_matches_residue_dp_on_small_triples():
    triples = [
        (a, b, c)
        for a, b, c in itertools.combinations(range(2, 46), 3)
        if gcd(a, b) == gcd(a, c) == gcd(b, c) == 1
    ]
    assert len(triples) > 3000
    for t in triples:
        a = (2, 2, *t)
        assert _fields(tau_kernel(a)) == _fields(_tau_residue_dp(a, None)), a


def _next_coprime(x: int, m: int) -> int:
    while gcd(x, m) != 1:
        x += 1
    return x


@settings(max_examples=100, deadline=None)
@given(a=st.integers(2, 3000), b=st.integers(2, 10**6), c=st.integers(2, 10**6))
@example(a=338, b=339, c=341)
@example(a=2, b=3, c=5)
@example(a=2999, b=10**6 - 1, c=10**6)
def test_tetrahedron_form_matches_residue_dp_on_large_triples(a, b, c):
    # the residue DP over the outer (2, 2, a) is O(a); b and c cost O(log)
    b = _next_coprime(b, a)
    c = _next_coprime(c, a * b)
    vec = exponent_vector((2, 2, a, b, c))
    assert _fields(tau_kernel(vec)) == _fields(_tau_residue_dp(vec, None)), vec


def test_tetrahedron_form_takes_no_budget_on_the_large_exotic_member():
    # n = 4 exotic family at p = 812002 (l = 3): the residue DP takes seconds
    start = time.perf_counter()
    sig = tau_kernel((2, 2, 812002, 812003, 812005), budget=1)
    assert time.perf_counter() - start < 0.01
    assert sig.tau == 178464640487578672  # the residue DP's value
    assert sig.boundary_skipped == 0 and sig.method == "kernel"
    with pytest.raises(RefusalError):  # the shape test is exact: (2, 3, 3) is not coprime
        tau_kernel((2, 2, 3, 3, 812005), budget=1)


def test_tau_brute_budget_refusal():
    with pytest.raises(RefusalError):
        tau_brute((2, 2, 338, 339, 341), budget=10**6)


def test_tau_budget_env_override(monkeypatch):
    monkeypatch.setenv("BPLINKS_TAU_BUDGET", "5")
    with pytest.raises(RefusalError):
        tau_brute((2, 2, 2, 3, 5))  # 8 box points > 5
    monkeypatch.setenv("BPLINKS_TAU_BUDGET", "1000")
    assert tau_brute((2, 2, 2, 3, 5)).tau == 8


def test_tau_kernel_budget_env_override(monkeypatch):
    # outer (3, 3, 3) mod 2L = 6: DP steps 2 + 4 + 8, then 6 residues -> 20
    a = (3, 3, 3, 7, 20)
    monkeypatch.setenv("BPLINKS_TAU_BUDGET", "19")
    with pytest.raises(RefusalError, match=r"~20 .*budget 19\)"):
        tau_kernel(a)
    assert tau_kernel(a, budget=20).method == "kernel"  # an explicit budget wins
    monkeypatch.setenv("BPLINKS_TAU_BUDGET", "20")
    assert tau_kernel(a).tau == tau_brute(a, budget=912).tau


def test_tau_kernel_refuses_eleven_primes_quickly(monkeypatch):
    # about 10^9 outer combos; the estimate is the sum of the partial
    # products of (a_i - 1) over the 9 outer primes plus the final one
    monkeypatch.delenv("BPLINKS_TAU_BUDGET", raising=False)
    start = time.perf_counter()
    with pytest.raises(RefusalError) as err:
        tau_kernel((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    assert time.perf_counter() - start < 1
    assert "~2081992858 " in str(err.value)
    assert "(budget 100000000)" in str(err.value)


def test_sphere_signatures_are_boundary_free_and_divisible():
    rng = random.Random(123)
    seen = 0
    for _ in range(300):
        a = tuple(sorted(rng.randint(2, 9) for _ in range(5)))
        if not classify_sphere(a).is_homotopy_sphere:
            continue
        sig = tau_kernel(a)
        assert sig.boundary_skipped == 0, a
        assert sig.tau % 8 == 0, a
        seen += 1
    assert seen > 20


# ---------------------------------------------------------------------------
# generic box counting


def test_count_box_examples():
    # beta_1 for denominators (4,5,7), all lower-closed, unbounded
    assert count_box(count_spec((4, 5, 7), 1)) == 52

    # delta_1 shapes
    assert count_box(count_spec((3, 4), 1)) == 11
    assert count_box(count_spec((2, 2, 3), 1)) == 11


def test_count_box_matches_oracle_on_randoms():
    rng = random.Random(314)
    for _ in range(120):
        k = rng.randint(2, 4)
        denoms = tuple(rng.randint(2, 9) for _ in range(k))
        threshold = Fraction(rng.randint(0, 12), rng.randint(1, 6))
        strict = rng.random() < 0.5
        lower_open = tuple(rng.random() < 0.5 for _ in range(k))
        upper_bounded = tuple(rng.random() < 0.5 for _ in range(k))
        spec = count_spec(denoms, threshold, strict, lower_open, upper_bounded)
        want = oracle_box(denoms, threshold, strict, lower_open, upper_bounded)
        assert count_box(spec) == want, spec


def test_count_box_enumeration_budget_refusal():
    spec = count_spec((100, 100, 100), 3)
    with pytest.raises(RefusalError):
        count_box(spec, budget=1000)
    # 3 * 4 * 6 points; the estimate is exact on a bounded open box
    spec = count_spec((4, 5, 7), 3, lower_open=True, upper_bounded=True)
    with pytest.raises(RefusalError, match=r"~72 .*budget 71\)"):
        count_box(spec, budget=71)
    assert count_box(spec, budget=72) == 72


def test_count_box_refuses_a_huge_box_quickly(monkeypatch):
    # the estimate is the product of the four coordinate ranges, ~8 * 10^25
    monkeypatch.delenv("BPLINKS_TAU_BUDGET", raising=False)
    spec = count_spec((10**6, 10**6 + 1, 10**6 + 3, 10**6 + 7), 3)
    start = time.perf_counter()
    with pytest.raises(RefusalError, match=r"~81000999003456003684000880 .*budget 100000000\)"):
        count_box(spec)
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# closed-form counters


def test_gamma_triangle_examples():
    g = gamma_triangle(5, 2, 1)
    assert (g.R, g.total) == (0, 3)
    assert gamma_triangle(5, 2, 0).total == 1
    g = gamma_triangle(5, 2, 5)
    assert g.R == 2 and g.total == 29


def test_gamma_triangle_matches_enumeration():
    rng = random.Random(2718)
    for _ in range(200):
        p = rng.randint(1, 200)
        l = rng.randint(2, 9)
        j = rng.randint(0, 3 * p)
        assert gamma_triangle(p, l, j).total == oracle_triangle(p, l, j), (p, l, j)


def test_gamma_triangle_rejects_small_l():
    with pytest.raises(ValueError):
        gamma_triangle(5, 1, 2)


def test_gamma_family_closed_examples():
    assert gamma_family_closed(3, 2, 1) == 3
    assert gamma_family_closed(3, 2, 2) == 22
    assert gamma_family_closed(3, 2, 3) == 57


def test_gamma_family_closed_matches_strip_count():
    rng = random.Random(6)
    for _ in range(200):
        s = rng.choice([3, 5, 7])
        k = rng.randint(1, 20)
        j = rng.randint(1, s)
        p = s * k + 1
        q = s * p - 1
        assert gamma_family_closed(s, k, j) == strip_count_2d(p, q, Fraction(j, s)), (
            s,
            k,
            j,
        )


def test_gamma_family_divisible_by_half_k():
    # for even k the strip count is a multiple of k/2
    for k in range(2, 41, 2):
        for s in (3, 5, 7):
            for j in range(1, s + 1):
                assert gamma_family_closed(s, k, j) % (k // 2) == 0, (s, k, j)


def test_delta_closed_examples():
    assert delta_closed(3, 1, 1, 2) == 11
    assert delta_closed(3, 0, 1, 2) == 10
    assert delta_closed(2, 1, 1, 3) == 11


def test_delta_closed_matches_count_box():
    rng = random.Random(8)
    for _ in range(200):
        p = rng.randint(1, 7)
        l = rng.randint(0, 4)
        n = rng.randint(2, 4)
        eta = rng.randint(0, 2)
        spec = count_spec((p,) * (n - 1) + (p + l,), eta)
        assert delta_closed(p, l, eta, n) == count_box(spec), (
            p,
            l,
            eta,
            n,
        )


def test_beta_via_gamma_examples():
    assert beta_via_gamma(4, 3, 1, 4) == 52
    assert beta_via_gamma(4, 3, 0, 4) == 1
    spec = count_spec((10, 10, 11, 13), 1)
    assert beta_via_gamma(10, 3, 1, 5) == count_box(spec)


def test_beta_via_gamma_matches_count_box():
    rng = random.Random(9)
    for _ in range(200):
        p = rng.randint(1, 6)
        l = rng.randint(2, 5)
        n = rng.randint(4, 5)
        eta = rng.randint(0, 2)
        spec = count_spec((p,) * (n - 3) + (p + 1, p + l), eta)
        assert beta_via_gamma(p, l, eta, n) == count_box(spec), (
            p,
            l,
            eta,
            n,
        )


def test_parity_window_identity():
    # For a = (2, 2, b_2, ..., b_n) the half-integer offsets collapse the
    # windows to consecutive integers:
    # tau = sum_{eta=1}^{n-1} (-1)^eta (alpha_eta - alpha_{eta-1}) with
    # alpha_eta the open-bounded box count of sum x_i/b_i <= eta.
    rng = random.Random(10)
    checked = 0
    for _ in range(120):
        b = tuple(sorted(rng.randint(2, 8) for _ in range(rng.randint(2, 4))))
        a = (2, 2) + b
        n = len(a) - 1
        sig = tau_brute(a)
        if sig.boundary_skipped:
            continue  # integer-sum points sit on a window edge; out of scope

        def alpha(eta):
            if eta < 0:
                return 0
            spec = count_spec(b, eta, strict_upper=False, lower_open=True, upper_bounded=True)
            return count_box(spec)

        identity = sum(
            (-1) ** eta * (alpha(eta) - alpha(eta - 1)) for eta in range(1, n)
        )
        assert identity == sig.tau, a
        checked += 1
    assert checked >= 30


def test_min_branch_sign_property():
    # the min in the triangle decomposition is resolved by the sign of
    # l(p+1)r - lj - R: nonpositive picks floor(R/l), positive picks the
    # (l-1)-floor branch
    rng = random.Random(12)
    for _ in range(1000):
        p = rng.randint(1, 120)
        l = rng.randint(2, 9)
        j = rng.randint(0, 3 * p)
        R = l * j // p
        r = rng.randint(0, R) if R > 0 else 0
        left = R // l
        right = (j - (p + 1) * r + R) // (l - 1)
        sign = l * (p + 1) * r - l * j - R
        if sign <= 0:
            assert min(left, right) == left, (p, l, j, r)
        else:
            assert min(left, right) == right, (p, l, j, r)
