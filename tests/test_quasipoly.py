import random
from fractions import Fraction

import pytest

from bplinks.errors import NotQuasiPolynomialError
from bplinks.quasipoly import (
    QuasiPolynomial,
    qp_eval,
    qp_fit,
    qp_verify,
)


def test_fit_floor_half():
    qp = qp_fit([(p, p // 2) for p in range(10)], period=2, degree_bound=1)
    assert qp.branches[0] == (Fraction(0), Fraction(1, 2))
    assert qp.branches[1] == (Fraction(-1, 2), Fraction(1, 2))


def test_fit_floor_square_thirds():
    qp = qp_fit([(p, p * p // 3) for p in range(21)], period=3, degree_bound=2)
    assert len(qp.branches) == 3
    for p in range(200):
        assert qp_eval(qp, p) == p * p // 3


def test_fit_then_eval_is_identity_on_fit_points():
    rng = random.Random(1)
    for _ in range(50):
        period = rng.randint(1, 5)
        deg = rng.randint(0, 3)
        polys = {
            r: [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg + 1)]
            for r in range(period)
        }

        def f(x):
            return sum(c * x**i for i, c in enumerate(polys[x % period]))

        samples = [(x, f(x)) for x in range(period * (deg + 2))]
        qp = qp_fit(samples, period, deg)
        for x, v in samples:
            assert qp_eval(qp, x) == v


def test_fit_rejects_non_quasipolynomial():
    # 2^p is not polynomial on any residue class
    with pytest.raises(NotQuasiPolynomialError):
        qp_fit([(p, 2**p) for p in range(10)], period=2, degree_bound=2)


def test_fit_requires_enough_points():
    with pytest.raises(ValueError):
        qp_fit([(0, 1), (1, 2), (2, 3)], period=2, degree_bound=2)


def test_eval_examples():
    qp = QuasiPolynomial(
        period=2,
        degree_bound=1,
        branches={0: (Fraction(0), Fraction(1, 2)), 1: (Fraction(-1, 2), Fraction(1, 2))},
    )
    assert qp_eval(qp, 7) == 3
    single = QuasiPolynomial(
        period=1, degree_bound=2, branches={0: (Fraction(0), Fraction(0), Fraction(1))}
    )
    assert qp_eval(single, 12) == 144


def test_eval_missing_branch():
    qp = QuasiPolynomial(period=2, degree_bound=0, branches={0: (Fraction(1),)})
    with pytest.raises(ValueError):
        qp_eval(qp, 3)


def test_verify_reports_matches_and_mismatches():
    qp = qp_fit([(p, p // 2) for p in range(8)], period=2, degree_bound=1)
    rep = qp_verify(qp, lambda x: x // 2, [101, 202])
    assert rep.all_match

    # negative control: a deliberately wrong branch must be reported
    wrong = QuasiPolynomial(
        period=2,
        degree_bound=1,
        branches={0: (Fraction(1), Fraction(1, 2)), 1: (Fraction(-1, 2), Fraction(1, 2))},
    )
    rep = qp_verify(wrong, lambda x: x // 2, [10, 11])
    assert not rep.all_match
    assert rep.mismatches == ((10, Fraction(6), Fraction(5)),)


def test_json_serialization_round_trips_coefficients():
    qp = qp_fit([(p, p // 2) for p in range(8)], period=2, degree_bound=1)
    d = qp.to_json_dict()
    assert d["period"] == 2 and d["degree"] == 1
    assert d["branches"]["1"] == ["-1/2", "1/2"]
