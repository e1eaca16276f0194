"""K-polystability / K-semistability of the Brieskorn-Pham Fano cone,
the index invariant, and the contact-structure obstruction.

The production test is the closed-form inequality

    1 < sum 1/a_i < (resp. <=) 1 + n/a_n      (a sorted ascending)

decided in integers by clearing the denominator P = prod a_i: with
N = sum P/a_i, log Fano is N > P and polystable is N*a_n < P*(a_n + n).
It is equivalent to 0 < I_a < n*d_n with d = lcm(a_i), d_i = d/a_i and
I_a = sum d_i - d; every call computes both forms and raises
InvariantViolation if they disagree.  The exponential subset criterion
they were reduced from is kept as a test-scale oracle,
fujita_subset_oracle, which shares no code with them and also enumerates
in integers over P.  A Fraction is built only for what is returned,
StabilityReport.sum_recip and the oracle's min_value, and for the text of
an InvariantViolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from typing import Sequence

from .errors import InvariantViolation, RefusalError
from .topology import exponent_vector

__all__ = [
    "StabilityReport",
    "k_stability",
    "fujita_subset_oracle",
    "contact_obstruction",
    "CONTACT_ODD_DIM",
    "CONTACT_INDIVISIBLE",
    "CONTACT_INCONCLUSIVE",
]

CONTACT_ODD_DIM = "obstructed_odd_dimension"
CONTACT_INDIVISIBLE = "obstructed_index_indivisible"
CONTACT_INCONCLUSIVE = "inconclusive"

_SUBSET_ORACLE_MAX_N = 12


@dataclass(slots=True)
class StabilityReport:
    vector: tuple
    sum_recip: Fraction
    log_fano: bool
    k_semistable: bool
    k_polystable: bool
    se_metric_exists: bool
    boundary_semistable: bool  # semistable but not polystable (equality case)
    d: int  # lcm of the a_i
    weights: tuple  # Reeb weights d_i = d / a_i
    index_invariant: int  # I_a = sum d_i - d
    contact: str


def k_stability(a: Sequence[int]) -> StabilityReport:
    """Exact integer stability decision.  se_metric_exists is exactly the
    polystability flag; the semistable boundary reports False with
    boundary_semistable set."""
    a = exponent_vector(a)
    p = prod(a)
    return _stability_report(a, len(a) - 1, p, sum(p // ai for ai in a), lcm(*a))


def _stability_report(a: tuple, n: int, p: int, num: int, d: int) -> StabilityReport:
    """k_stability of the sorted, validated vector a of length n + 1, given
    p = prod a_i, num = sum p/a_i (so sum 1/a_i = num/p) and d = lcm a_i."""
    log_fano, semi, poly, boundary, weights, index = _stability_values(a, n, p, num, d)
    contact = _contact(n, index)
    return StabilityReport(
        a, Fraction(num, p), log_fano, semi, poly, poly, boundary, d, weights, index, contact
    )


def _stability_values(a: tuple, n: int, p: int, num: int, d: int) -> tuple:
    """The decisions of _stability_report(a, n, p, num, d): (log_fano,
    k_semistable, k_polystable, boundary_semistable, weights,
    index_invariant).  se_metric_exists is k_polystable."""
    an = a[-1]
    log_fano = num > p
    lhs, rhs = num * an, p * (an + n)  # sum 1/a_i vs 1 + n/a_n, times p*a_n
    semi = log_fano and lhs <= rhs
    poly = log_fano and lhs < rhs

    weights = tuple([d // ai for ai in a])
    index = sum(weights) - d
    # the index form is equivalent to the inequality form; check every call
    if poly != (0 < index < n * weights[-1]):
        raise InvariantViolation(
            f"inequality form and index form disagree on {a}: "
            f"sum={Fraction(num, p)}, I={index}, n*d_n={n * weights[-1]}"
        )
    return log_fano, semi, poly, semi and not poly, weights, index


def fujita_subset_oracle(a: Sequence[int]) -> dict:
    """Independent oracle: evaluate

        k * sum_i (1 - 1/a_i) - n * sum_{j in S} (1 - 1/a_j)

    over every subset S of size 1 <= k <= n-1.  Polystable iff log Fano and
    all values > 0; semistable iff log Fano and all values >= 0.

    It enumerates in integers over P = prod a_i: 1 - 1/a_i is
    (P - P/a_i)/P, so every value is an integer over P and log Fano is
    sum P/a_i > P.  The one Fraction it builds is min_value, the least
    value, in lowest terms.  It shares no code with k_stability.
    Exponential; refused beyond n = 12.
    """
    a = exponent_vector(a)
    n = len(a) - 1
    if n > _SUBSET_ORACLE_MAX_N:
        raise RefusalError(
            f"subset oracle is exponential; n={n} exceeds the test-scale cap "
            f"{_SUBSET_ORACLE_MAX_N} (use k_stability instead)"
        )
    p = prod(a)
    ones = [p - p // ai for ai in a]  # P * (1 - 1/a_i)
    total = sum(ones)
    log_fano = sum(p // ai for ai in a) > p
    # the least value of size k takes the greatest subset sum of size k
    min_val = min(k * total - n * max(map(sum, combinations(ones, k))) for k in range(1, n))
    return {
        "polystable": log_fano and min_val > 0,
        "semistable": log_fano and min_val >= 0,
        "min_value": Fraction(min_val, p),
    }


def contact_obstruction(a: Sequence[int]) -> str:
    """Orbifold contact-structure obstruction: obstructed when n is odd, or
    when n = 2m and m does not divide the index invariant."""
    a = exponent_vector(a)
    d = lcm(*a)
    return _contact(len(a) - 1, sum(d // ai for ai in a) - d)


def _contact(n: int, index: int) -> str:
    """contact_obstruction of a vector with n and index invariant index."""
    if n % 2 == 1:
        return CONTACT_ODD_DIM
    if index % (n // 2) != 0:
        return CONTACT_INDIVISIBLE
    return CONTACT_INCONCLUSIVE
