"""Moduli dimension by one weighted-monomial DP, and the mean Euler
characteristic table, for the exotic family; exotic_vector checks its shape.

Every stratum's circle-equivariant Euler characteristic comes from one exact
rule in the eigenvalue-1 count of its sub-vector of the exponents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Sequence

from .errors import InvariantViolation, RefusalError, check_budget
from .stability import k_stability
from .families import exotic_vector
from .topology import _eigenvalue_one_count

__all__ = [
    "weighted_monomial_count",
    "ModuliDimension",
    "moduli_dimension",
    "maslov_index",
    "OrbitStratum",
    "MeanEulerReport",
    "mean_euler",
]


def _monomial_table(weights: Sequence[int], degree: int) -> list:
    """table[k] = #{e in Z_{>=0}^len(weights) : sum w_i e_i = k} for every
    k <= degree, by one coin-counting DP."""
    table = [0] * (degree + 1)
    table[0] = 1
    for w in weights:
        for deg in range(w, degree + 1):
            table[deg] += table[deg - w]
    return table


def weighted_monomial_count(weights: Sequence[int], degree: int) -> int:
    """#{e in Z_{>=0}^k : sum w_i e_i = degree} by coin-counting DP."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if any(w < 1 for w in weights):
        raise ValueError("weights must be positive")
    return _monomial_table(weights, degree)[degree]


@dataclass(frozen=True)
class ModuliDimension:
    n: int
    p: int
    l: int
    h0_d: int
    h0_weights_sum: int
    dimension: int  # h0(d) - sum h0(d_i), by DP
    closed_form: int  # C(p+n-4, n-4) - (n-3)^2 - 1

    @property
    def agree(self) -> bool:
        return self.dimension == self.closed_form


def moduli_dimension(n: int, p: int, l: int) -> ModuliDimension:
    """Lower bound for the dimension of the Sasaki-Einstein family on the
    exotic member: h^0(O(d)) - sum_i h^0(O(d_i)), computed by DP over the
    Reeb weights and independently by the closed form; a mismatch is
    reported, never averaged away.

    One coin DP over the weights d_i = d/a_i fills h^0 up to d = lcm(a),
    so it holds every h^0(d_i) too.  The closed form needs p, p+1, p+l
    distinct from 2 and from each other, so p < 4 or l < 2 is refused before
    exotic_vector checks the shape.  The DP's table steps are estimated first
    and checked by check_budget against the package budget (default 10^8,
    env override BPLINKS_TAU_BUDGET)."""
    if n < 6:
        raise ValueError("moduli_dimension requires n >= 6")
    if p < 4 or l < 2:
        raise RefusalError(
            f"(p, l) = ({p}, {l}) is outside the closed form's regime p >= 4, l >= 2 "
            "(an exponent repeats)"
        )
    stab = k_stability(exotic_vector(n, p, l))
    d, weights = stab.d, stab.weights
    # one addition per table entry at or past each weight
    check_budget("moduli_dimension", sum(d - w + 1 for w in weights), "table steps")
    table = _monomial_table(weights, d)
    h0_sum = sum(table[w] for w in weights)
    closed = comb(p + n - 4, n - 4) - (n - 3) ** 2 - 1
    return ModuliDimension(
        n=n,
        p=p,
        l=l,
        h0_d=table[d],
        h0_weights_sum=h0_sum,
        dimension=table[d] - h0_sum,
        closed_form=closed,
    )


def maslov_index(n: int, p: int, l: int) -> int:
    """Maslov index of the principal orbit, mu_P = 2((n-3)(p+1)(p+l) +
    p(2p+l+1)), cross-checked against twice the index invariant on every
    call; exotic_vector checks the shape."""
    stab = k_stability(exotic_vector(n, p, l))
    mu = 2 * ((n - 3) * (p + 1) * (p + l) + p * (2 * p + l + 1))
    if mu != 2 * stab.index_invariant:
        raise InvariantViolation(
            f"Maslov index {mu} != 2 * I_a = {2 * stab.index_invariant} "
            f"for (n, p, l) = ({n}, {p}, {l})"
        )
    return mu


@dataclass(frozen=True)
class OrbitStratum:
    orbit_space: str
    period: int
    chi_s1: Fraction  # equivariant Euler characteristic of the stratum
    frequency: int


@dataclass(frozen=True)
class MeanEulerReport:
    n: int
    p: int
    l: int
    mu_p: int
    phi_2: int
    chi_m: Fraction
    strata: tuple


def mean_euler(n: int, p: int, l: int) -> MeanEulerReport:
    """Mean Euler characteristic table for the exotic family member.

    Each stratum is L(T) for a sub-vector T of the exponents, of period
    lcm(T).  Its chi^{S^1} is the Euler characteristic of the orbit space X_T,
    a quasi-smooth hypersurface of dimension |T| - 2 whose rational cohomology
    is |T| - 1 hyperplane powers plus m_1(T) primitive middle classes
    (Steenbrink 1977; Dolgachev 1982): chi = |T| - 1 + (-1)^|T| m_1(T).
    chi_m = -(N1 + N2)/mu_P exactly as displayed in the two-line sum.
    """
    mu = maslov_index(n, p, l)  # checks the family shape
    d = p * (p + 1) * (p + l)
    phi_2 = d // 2 + 2 * p - p * p - p * l // 2
    ps = (p,) * (n - 3)
    rows = [
        ("L(2,2,p,...,p,p+1,p+l)", (2, 2, *ps, p + 1, p + l), 1),
        ("L(2,2,p+1,p+l)", (2, 2, p + 1, p + l), p // 2 - 1),
        ("L(p+1,p+l)", (p + 1, p + l), p // 2),
        ("L(2,2,p,...,p,p+l)", (2, 2, *ps, p + l), p),
        ("L(2,2,p,...,p,p+1)", (2, 2, *ps, p + 1), p + l - 1),
        ("L(2,2,p+l)", (2, 2, p + l), p * (p + 1) // 2 - 3 * p // 2),
        ("L(2,2,p+1)", (2, 2, p + 1), p * (p + l) // 2 - 3 * p // 2 - l + 1),
        ("L(2,2,p,...,p)", (2, 2, *ps), (p + 1) * (p + l) - 2 * p - l),
        ("L(2,2)", (2, 2), phi_2),
    ]
    strata = []
    for orbit_space, t, freq in rows:
        if freq < 0:
            raise InvariantViolation(
                f"negative frequency {freq} for stratum {orbit_space} at "
                f"(n, p, l) = ({n}, {p}, {l})"
            )
        chi = len(t) - 1 + (-1) ** len(t) * _eigenvalue_one_count(t)
        strata.append(OrbitStratum(orbit_space, lcm(*t), Fraction(chi), freq))

    total = sum(s.chi_s1 * s.frequency for s in strata)
    chi_m = -total / mu
    return MeanEulerReport(
        n=n,
        p=p,
        l=l,
        mu_p=mu,
        phi_2=phi_2,
        chi_m=chi_m,
        strata=tuple(strata),
    )
