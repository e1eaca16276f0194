"""Exact quasi-polynomial fitting, evaluation and verification.

A quasi-polynomial of period L agrees with an ordinary polynomial on each
residue class mod L.  Branches are per-residue coefficient lists of exact
rationals (ascending powers); residues never sampled stay absent rather
than extrapolated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .arith import to_jsonable
from .errors import NotQuasiPolynomialError

__all__ = [
    "QuasiPolynomial",
    "QpVerifyReport",
    "qp_fit",
    "qp_eval",
    "qp_verify",
]

Poly = tuple  # tuple of Fraction coefficients, ascending powers


def _poly_eval(coeffs: Sequence[Fraction], x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_add(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    n = max(len(p), len(q))
    return tuple(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def _poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _trim(p: Sequence[Fraction]) -> Poly:
    coeffs = list(p)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(Fraction(c) for c in coeffs)


def _newton_interpolate(xs: Sequence[int], ys: Sequence[Fraction]) -> Poly:
    """Exact interpolation through distinct nodes, returned in power basis."""
    k = len(xs)
    coef = [Fraction(y) for y in ys]  # divided differences, in place
    for level in range(1, k):
        for i in range(k - 1, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - level])
    # expand the Newton basis
    poly: Poly = (Fraction(0),)
    basis: Poly = (Fraction(1),)
    for i in range(k):
        poly = _poly_add(poly, tuple(coef[i] * v for v in basis))
        basis = _poly_mul(basis, (Fraction(-xs[i]), Fraction(1)))
    return _trim(poly)


@dataclass
class QuasiPolynomial:
    period: int
    degree_bound: int
    branches: dict  # residue -> Poly

    def degree(self) -> int:
        return max(len(p) - 1 for p in self.branches.values())

    def to_json_dict(self) -> dict:
        return {
            "period": self.period,
            "degree": self.degree(),
            "branches": {
                str(r): to_jsonable(poly)
                for r, poly in sorted(self.branches.items())
            },
        }


def qp_fit(samples: Iterable, period: int, degree_bound: int) -> QuasiPolynomial:
    """Fit per-residue polynomials of degree <= degree_bound through exact
    samples (x, value).  Each residue class present needs at least
    degree_bound + 1 points; surplus points in a class must be reproduced
    exactly or NotQuasiPolynomialError is raised with the witness."""
    if period < 1:
        raise ValueError("period must be >= 1")
    if degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    pts = sorted((int(x), Fraction(v)) for x, v in samples)
    if len(set(x for x, _ in pts)) != len(pts):
        raise ValueError("sample points must be distinct")
    classes: dict[int, list] = {}
    for x, v in pts:
        classes.setdefault(x % period, []).append((x, v))

    branches = {}
    need = degree_bound + 1
    for r, cls in sorted(classes.items()):
        if len(cls) < need:
            raise ValueError(
                f"residue class {r} mod {period} has {len(cls)} samples; "
                f"need {need} for degree bound {degree_bound}"
            )
        xs = [x for x, _ in cls[:need]]
        ys = [v for _, v in cls[:need]]
        poly = _newton_interpolate(xs, ys)
        for x, v in cls[need:]:
            pred = _poly_eval(poly, x)
            if pred != v:
                raise NotQuasiPolynomialError(x, pred, v)
        branches[r] = poly
    return QuasiPolynomial(period=period, degree_bound=degree_bound, branches=branches)


def qp_eval(qp: QuasiPolynomial, x: int) -> Fraction:
    r = x % qp.period
    if r not in qp.branches:
        raise ValueError(f"no branch fitted for residue {r} mod {qp.period}")
    return _poly_eval(qp.branches[r], x)


@dataclass(frozen=True)
class QpVerifyReport:
    entries: tuple  # (x, qp_value, oracle_value)

    @property
    def mismatches(self):
        return tuple(e for e in self.entries if e[1] != e[2])

    @property
    def all_match(self) -> bool:
        return not self.mismatches


def qp_verify(qp: QuasiPolynomial, oracle: Callable, points: Iterable) -> QpVerifyReport:
    """Exact comparison of the fit against an oracle at held-out points.
    Mismatches are reported, not raised."""
    entries = []
    for x in points:
        entries.append((x, qp_eval(qp, x), Fraction(oracle(x))))
    return QpVerifyReport(entries=tuple(entries))
