"""Generators for the three infinite families of Sasaki-Einstein homotopy
spheres and the Brieskorn reference spheres.

Generators validate everything by exact arithmetic (no asymptotic "large
enough" assumptions) and attach expectations; they never compute the
signature themselves, leaving that to the lattice module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Optional

from .arith import bp_order, to_jsonable
from .errors import InvariantViolation, RefusalError
from .lattice import tau_kernel
from .primes import is_prime
from .quasipoly import DifferenceTable, qp_fit, qp_verify
from .stability import k_stability
from .topology import COND1, COND2, classify_sphere, exponent_vector

__all__ = [
    "FamilySpec",
    "gen_odd_dim",
    "gen_standard",
    "gen_exotic",
    "brieskorn_reference",
    "exotic_vector",
    "TauFit",
    "fit_exotic_tau",
]


@dataclass(frozen=True)
class FamilySpec:
    variant: str  # "odd_dim" | "standard" | "exotic" | "brieskorn_ref"
    params: dict
    vector: tuple
    derived: dict
    expectations: dict


def gen_odd_dim(m: int, p_n: int) -> FamilySpec:
    """Odd-dimension family (n = 2m+1): a = (2, 2, 2p_2, ..., 2p_{n-1}, p_n)
    with the n-2 largest primes in ((n-2) p_n / (2(n-1)), p_n / 2).

    The result is a Kervaire sphere when p_n = +-3 mod 8, a standard sphere
    when p_n = +-1 mod 8, always with a Sasaki-Einstein metric.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if not is_prime(p_n):
        raise ValueError(f"p_n = {p_n} is not prime")
    n = 2 * m + 1
    lo = Fraction((n - 2) * p_n, 2 * (n - 1))
    hi = Fraction(p_n, 2)
    # scan down from the largest integer below hi: the largest primes give
    # the slackest inequality, and the scan stops after the n-2 it needs
    chosen = []
    cand = (p_n - 1) // 2
    while cand > lo and len(chosen) < n - 2:
        if is_prime(cand):
            chosen.insert(0, cand)
        cand -= 1
    if len(chosen) < n - 2:
        raise RefusalError(
            f"only {len(chosen)} primes in the open interval ({lo}, {hi}); "
            f"need {n - 2}"
        )
    vector = exponent_vector([2, 2] + [2 * p for p in chosen] + [p_n])

    stab = k_stability(vector)
    if not stab.k_polystable:
        raise InvariantViolation(f"odd-dim family member {vector} is not K-polystable")
    cls = classify_sphere(vector)
    if cls.condition != COND2:
        raise InvariantViolation(f"odd-dim family member {vector} fails condition (2)")
    kervaire = p_n % 8 in (3, 5)
    return FamilySpec(
        variant="odd_dim",
        params={"m": m, "p_n": p_n},
        vector=vector,
        derived={
            "n": n,
            "interval": (lo, hi),
            "primes": tuple(chosen),
            "d": stab.d,
        },
        expectations={
            "sphere_condition": COND2,
            "kervaire": kervaire,
            "se_metric": True,
        },
    )


def gen_standard(m: int, k: int) -> FamilySpec:
    """Standard-sphere family (n = 2m, s = n-1): a = (s, ..., s, p, q) with
    p = sk+1, q = sp-1.  For k a multiple of 16|bP_{4m}| the class tau/8 is
    divisible by |bP_{4m}|, i.e. the sphere is standard.

    s, p, q are pairwise coprime and s < p < q < sp by construction:
    gcd(s, p) = gcd(s, 1), gcd(s, q) = gcd(s, -1) and gcd(p, q) = gcd(p, -1),
    and with s >= 3 and k >= 2, p = sk + 1 > s and p < q = sp - 1 < sp."""
    if m < 2 or k < 2:
        raise ValueError("gen_standard requires m >= 2 and k >= 2")
    bp = bp_order(m)  # refuses a huge m before the vector is classified
    n = 2 * m
    s = n - 1
    p = s * k + 1
    q = s * p - 1
    vector = exponent_vector([s] * (n - 1) + [p, q])
    stab = k_stability(vector)
    if not stab.k_polystable:
        raise InvariantViolation(f"standard family member {vector} is not K-polystable")
    cls = classify_sphere(vector)
    if not cls.is_homotopy_sphere:
        raise InvariantViolation(f"standard family member {vector} is not a sphere")
    return FamilySpec(
        variant="standard",
        params={"m": m, "k": k},
        vector=vector,
        derived={"n": n, "s": s, "p": p, "q": q, "d": stab.d},
        expectations={
            "sphere_condition": cls.condition,
            "se_metric": True,
            "bp_modulus": bp.order,
            "expected_class_zero": k % (16 * bp.order) == 0,
        },
    )


def exotic_vector(n: int, p: int, l: int) -> tuple:
    """The exotic-family exponent vector (2, 2, p, ..., p, p+1, p+l), and
    the one check of the family's shape: n even and >= 4, l >= 1, p even,
    gcd(p, l) = 1 and gcd(p+1, l-1) = 1 (l = 1 fails: p + 1 repeats).  Then
    d = lcm = p(p+1)(p+l).  Every failure raises ValueError."""
    if n < 4 or n % 2 != 0:
        raise ValueError("n must be even and >= 4")
    if l < 1 or p % 2 != 0 or gcd(p, l) != 1 or gcd(p + 1, l - 1) != 1:
        raise ValueError(
            f"(p, l) = ({p}, {l}) violates the family shape: l >= 1, p even, "
            "gcd(p, l) = 1, gcd(p+1, l-1) = 1"
        )
    return exponent_vector([2, 2] + [p] * (n - 3) + [p + 1, p + l])


def gen_exotic(m: int, k: int, l: int, q: int) -> FamilySpec:
    """Exotic-sphere family (n = 2m): l = 6k-3 or 6k-1, p = q*l*(l-1) + 2,
    a = (2, 2, p, ..., p, p+1, p+l).  The K-stability inequality is the
    admission gate, checked exactly.  The class in bP_{4m} varies with q
    (at (m, k, l) = (2, 1, 3) it is 4, 7, 8, 5, 24 mod 28 for q = 1..5), so
    no class is claimed; classify_link or tau_kernel computes it."""
    if m < 2 or k < 1 or q < 1:
        raise ValueError("gen_exotic requires m >= 2, k >= 1, q >= 1")
    if l not in (6 * k - 3, 6 * k - 1):
        raise ValueError(f"l must be 6k-3 or 6k-1 for k={k}; got {l}")
    bp = bp_order(m)  # refuses a huge m before the vector is classified
    n = 2 * m
    p = q * l * (l - 1) + 2
    vector = exotic_vector(n, p, l)
    stab = k_stability(vector)
    if not stab.k_polystable:
        deficit = stab.sum_recip - (1 + Fraction(n, vector[-1]))
        raise RefusalError(
            f"K-stability inequality fails for {vector}: sum 1/a_i exceeds "
            f"1 + n/a_n by {deficit} (p too small for n={n}, l={l})"
        )
    return FamilySpec(
        variant="exotic",
        params={"m": m, "k": k, "l": l, "q": q},
        vector=vector,
        derived={
            "n": n,
            "p": p,
            "d": stab.d,
            "index_invariant": stab.index_invariant,
            "m_divides_index": stab.index_invariant % m == 0,
        },
        expectations={
            "se_metric": True,
            "bp_modulus": bp.order,
        },
    )


def brieskorn_reference(m: int, k: int, sign: int) -> FamilySpec:
    """Brieskorn's reference spheres (2, ..., 2, 3, 6k +- 1) with
    tau/8 = (-1)^m k."""
    if m < 2 or k < 1 or sign not in (1, -1):
        raise ValueError("brieskorn_reference requires m >= 2, k >= 1, sign in {+1, -1}")
    last = 6 * k + sign
    if last < 5:
        raise ValueError(f"6k + sign must be >= 5, got {last}")
    n = 2 * m
    vector = exponent_vector([2] * (n - 1) + [3, last])
    bp = bp_order(m)
    expected_tau = 8 * (-1) ** m * k
    return FamilySpec(
        variant="brieskorn_ref",
        params={"m": m, "k": k, "sign": sign},
        vector=vector,
        derived={"n": n},
        expectations={
            "expected_tau": expected_tau,
            "bp_modulus": bp.order,
            "expected_class": (expected_tau // 8) % bp.order,
        },
    )


@dataclass
class TauFit:
    table: DifferenceTable
    family: dict
    samples: tuple  # (q, p, tau)
    degree_used: int
    verify: Optional[tuple] = field(default=None)  # (p, table value, tau)

    def to_json_dict(self) -> dict:
        # the record keeps its quasi-polynomial layout: one branch, the
        # residue of p mod l(l-1), in the power basis of p
        coeffs = self.table.power_basis()
        out = {
            "family": self.family,
            "samples": [list(s) for s in self.samples],
            "degree_used": self.degree_used,
            "quasi_polynomial": {
                "period": self.table.step,
                "degree": len(coeffs) - 1,
                "branches": {str(self.table.x0 % self.table.step): to_jsonable(coeffs)},
            },
        }
        if self.verify is not None:
            out["verify"] = [
                {"p": p, "predicted": str(pred), "actual": act, "match": pred == act}
                for (p, pred, act) in self.verify
            ]
        return out


def fit_exotic_tau(m: int, k: int, l: int, samples: int, verify: int = 0) -> TauFit:
    """Sample tau on the exotic family at p = q*l*(l-1)+2 for `samples`
    consecutive q from the least admissible q0, and fit it as one integer
    forward-difference table in q of degree bound n = 2m (printed in the
    power basis of p).

    Fewer than 2m + 1 samples cannot fix the table: that is a ValueError
    before any member is generated, once bp_order has refused a huge m.
    q0 is the first q that gen_exotic admits: the K-stability gate fails
    exactly below a threshold in p (q0 = 1 at m = 2, 2 at m = 3).  A
    surplus sample the table does not reproduce refuses with qp_fit's
    NotQuasiPolynomialError, which names the witness p.  Held-out
    verification points (q = q0+samples, ...) are compared exactly against
    tau_kernel.
    """
    n = 2 * m
    period = l * (l - 1)

    # gen_exotic's own bp_order is then a table lookup, so the refusals the
    # loop below skips are the K-stability gate's, never the bP order's
    bp_order(m)
    if samples < n + 1:
        raise ValueError(
            f"{samples} samples cannot fix tau at degree bound 2m = {n}; need at least {n + 1}"
        )
    q0 = 1
    while True:
        try:
            first = gen_exotic(m, k, l, q0)
            break
        except RefusalError:
            q0 += 1  # below the gate's threshold in p; it holds from q0 on

    def member_tau(qv: int):
        spec = first if qv == q0 else gen_exotic(m, k, l, qv)
        return spec.derived["p"], tau_kernel(spec.vector).tau

    pts = []
    for qv in range(q0, q0 + samples):
        p, t = member_tau(qv)
        pts.append((qv, p, t))

    table = qp_fit([t for _, _, t in pts], n, q0=q0, x0=pts[0][1], step=period)

    verify_rows = None
    if verify > 0:
        held = range(q0 + samples, q0 + samples + verify)
        verify_rows = qp_verify(table, [(qv, member_tau(qv)[1]) for qv in held])

    return TauFit(
        table=table,
        family={"m": m, "k": k, "l": l, "period": period},
        samples=tuple(pts),
        degree_used=n,
        verify=verify_rows,
    )
