"""The signature along the exotic family as one integer forward-difference
table.

The family is sampled at consecutive integers q, at the points
x = x0 + step*(q - q0) (for the family x is p and step is l(l-1)).  A
polynomial of degree <= D in q is fixed by its forward differences
D_j = Delta^j tau(q0), j <= D:

    tau(q) = sum_j D_j * C(q - q0, j),

the binomial basis of integer-valued polynomials (Stanley, EC1 section
1.9).  Differences of integer samples are integers, so the fit, the check
of surplus samples and the evaluation at held-out q are integer arithmetic.
Exact Fraction coefficients in the power basis of x are made only for
printing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NotQuasiPolynomialError

__all__ = ["DifferenceTable", "qp_fit", "qp_verify"]


@dataclass(frozen=True)
class DifferenceTable:
    q0: int
    x0: int
    step: int
    diffs: tuple  # Delta^j tau(q0) for j = 0..degree bound, integers

    def x(self, q: int) -> int:
        return self.x0 + self.step * (q - self.q0)

    def __call__(self, q: int) -> int:
        t = q - self.q0
        value, binom = 0, 1  # binom = C(t, j); exact for t < 0 as well
        for j, d in enumerate(self.diffs):
            value += d * binom
            binom = binom * (t - j) // (j + 1)
        return value

    def power_basis(self) -> tuple:
        """Ascending Fraction coefficients in x, up to the true degree.

        C(q - q0, j) = prod_{i<j} (x - x(q0 + i)) / (j! step^j), so the
        table is a Newton form in x, expanded by Horner's rule.  The degree
        is that of the last nonzero difference (0 for the zero polynomial).
        """
        degree = max((j for j, d in enumerate(self.diffs) if d), default=0)
        scale = [1]  # j! * step^j
        for j in range(1, degree + 1):
            scale.append(scale[-1] * j * self.step)
        poly: list = []
        for j in range(degree, -1, -1):
            node = self.x(self.q0 + j)
            poly = [Fraction(self.diffs[j], scale[j])] + poly
            for i in range(len(poly) - 1):
                poly[i] -= node * poly[i + 1]
        return tuple(poly)


def qp_fit(
    values: Sequence[int], degree: int, q0: int = 0, x0: int = 0, step: int = 1
) -> DifferenceTable:
    """The table of the polynomial of degree <= `degree` through the integer
    samples values[i] = tau(q0 + i), taken at x = x0 + step*i.  The first
    degree + 1 samples fix it; each surplus sample must be reproduced
    exactly, or NotQuasiPolynomialError names its x, the table's value and
    the sample."""
    if degree < 0:
        raise ValueError("degree bound must be >= 0")
    if step < 1:
        raise ValueError("step must be >= 1")
    if len(values) <= degree:
        raise ValueError(
            f"{len(values)} samples; need {degree + 1} for degree bound {degree}"
        )
    row = list(values[: degree + 1])
    diffs = []
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    table = DifferenceTable(q0=q0, x0=x0, step=step, diffs=tuple(diffs))
    for q, v in enumerate(values[degree + 1 :], start=q0 + degree + 1):
        predicted = table(q)
        if predicted != v:
            raise NotQuasiPolynomialError(table.x(q), predicted, v)
    return table


def qp_verify(table: DifferenceTable, held: Iterable) -> tuple:
    """Rows (x, table value, sample) for held-out samples (q, sample).
    Mismatches are reported in their rows, not raised."""
    return tuple((table.x(q), table(q), v) for q, v in held)
