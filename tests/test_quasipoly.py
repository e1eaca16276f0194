from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from bplinks.arith import to_jsonable
from bplinks.errors import NotQuasiPolynomialError
from bplinks.quasipoly import DifferenceTable, qp_fit, qp_verify


def lagrange(points, q):
    """Value at q of the polynomial through the points (q_i, y_i), in
    Fractions: the reference the integer table is checked against."""
    total = Fraction(0)
    for i, (qi, yi) in enumerate(points):
        term = Fraction(yi)
        for j, (qj, _) in enumerate(points):
            if j != i:
                term *= Fraction(q - qj, qi - qj)
        total += term
    return total


# (differences, degree bound >= their degree, surplus samples, q0, x0, step)
cases = st.tuples(
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=7),
    st.integers(0, 2),
    st.integers(1, 4),
    st.integers(-5, 5),
    st.integers(-50, 50),
    st.integers(1, 30),
).map(lambda c: (c[0], len(c[0]) - 1 + c[1], *c[2:]))


def sampled(case):
    """The integer samples sum_j D_j C(t, j), t = 0, 1, ..., and the points
    that fix the fit, (q0 + t, sample) for t <= degree bound."""
    diffs, degree, surplus, q0, _, _ = case
    values = [
        sum(d * comb(t, j) for j, d in enumerate(diffs))
        for t in range(degree + 1 + surplus)
    ]
    fixed = [(q0 + t, v) for t, v in enumerate(values[: degree + 1])]
    return values, fixed


@settings(max_examples=200, deadline=None)
@given(case=cases)
def test_fit_then_eval_is_identity_on_fit_points(case):
    diffs, degree, _, q0, x0, step = case
    values, fixed = sampled(case)
    table = qp_fit(values, degree, q0=q0, x0=x0, step=step)
    assert table.diffs == tuple(diffs) + (0,) * (degree + 1 - len(diffs))
    for q in range(q0 - 3, q0 + len(values) + 3):
        assert table(q) == lagrange(fixed, q), q


@settings(max_examples=200, deadline=None)
@given(case=cases)
def test_power_basis_in_x_agrees_with_the_table(case):
    diffs, degree, _, q0, x0, step = case
    values, fixed = sampled(case)
    table = qp_fit(values, degree, q0=q0, x0=x0, step=step)
    coeffs = table.power_basis()
    true_degree = max((j for j, d in enumerate(diffs) if d), default=0)
    assert len(coeffs) == true_degree + 1
    for q in range(q0 - 3, q0 + len(values) + 3):
        x = x0 + step * (q - q0)
        assert sum(c * x**i for i, c in enumerate(coeffs)) == table(q) == lagrange(fixed, q)


@settings(max_examples=200, deadline=None)
@given(case=cases, data=st.data())
def test_a_perturbed_surplus_sample_is_named_as_the_witness(case, data):
    _, degree, _, q0, x0, step = case
    values, fixed = sampled(case)
    t = data.draw(st.integers(degree + 1, len(values) - 1), label="t")
    delta = data.draw(st.integers(-5, 5).filter(bool), label="delta")
    values[t] += delta
    with pytest.raises(NotQuasiPolynomialError) as exc:
        qp_fit(values, degree, q0=q0, x0=x0, step=step)
    err = exc.value
    assert (err.x, err.expected, err.actual) == (
        x0 + step * t,
        lagrange(fixed, q0 + t),
        values[t],
    )


def test_fit_rejects_non_quasipolynomial():
    # 2^q is not a polynomial in q
    with pytest.raises(NotQuasiPolynomialError):
        qp_fit([2**q for q in range(10)], 2)


def test_fit_requires_enough_points():
    with pytest.raises(ValueError, match="3 samples; need 4"):
        qp_fit([1, 2, 3], 3)
    with pytest.raises(ValueError):
        qp_fit([1, 2, 3], -1)
    with pytest.raises(ValueError):
        qp_fit([1, 2, 3], 1, step=0)


def test_eval_examples():
    # q^2 = C(q, 1) + 2 C(q, 2), also at negative q
    square = DifferenceTable(q0=0, x0=0, step=1, diffs=(0, 1, 2))
    assert [square(q) for q in (-3, 0, 12)] == [9, 0, 144]
    # the same parabola started at q0 = 5: (q - 5)^2 + 3
    shifted = DifferenceTable(q0=5, x0=0, step=1, diffs=(3, 1, 2))
    assert shifted(2) == 12


def test_verify_reports_matches_and_mismatches():
    table = qp_fit([q * q for q in range(4)], 2, x0=8, step=6)
    assert qp_verify(table, [(5, 25), (6, 35)]) == ((38, 25, 25), (44, 36, 35))


def test_json_serialization_round_trips_coefficients():
    # tau of (2, 2, p, p+1, p+3) at p = 8, 14, ..., 32 (q = 1..5): p^3/3 + 4p^2/3
    table = qp_fit([256, 1176, 3200, 6760, 12288], 4, q0=1, x0=8, step=6)
    assert to_jsonable(table.power_basis()) == ["0/1", "0/1", "4/3", "1/3"]
