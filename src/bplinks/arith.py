"""Exact integer/rational utilities: Bernoulli numbers, bP group orders,
bounded compositions, and the JSON form of exact values.

Everything here is exact; there is deliberately no floating point anywhere
in this package.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from math import comb, gcd

from .errors import check_budget

__all__ = ["BPOrder", "bernoulli_even", "bp_order", "bounded_compositions", "to_jsonable"]


# Memo table for Bernoulli numbers B_0..B_max computed so far.
# Convention: B_1 = -1/2 (the even-index values, the only ones we expose,
# agree in both conventions).
_bernoulli_lock = threading.Lock()
_bernoulli: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def _sum_even_squares(hi: int) -> int:
    """Sum of k^2 over the even k with 2 <= k <= hi."""
    j = hi // 2
    return 4 * (j * (j + 1) * (2 * j + 1) // 6)


def _extend_bernoulli(upto: int) -> None:
    # Defining recurrence: sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1.
    # Adding B_k sums k Fractions whose numerators grow like k log k bits, so
    # the work of the even k still to add is estimated as the sum of k^2.
    estimate = _sum_even_squares(upto) - _sum_even_squares(len(_bernoulli) - 1)
    check_budget(f"Bernoulli numbers up to B_{upto}", estimate, "term steps")
    while len(_bernoulli) <= upto:
        n = len(_bernoulli)
        if n % 2 == 1:
            _bernoulli.append(Fraction(0))
            continue
        s = sum(comb(n + 1, k) * _bernoulli[k] for k in range(n))
        _bernoulli.append(Fraction(-s, n + 1))


def bernoulli_even(m2: int) -> Fraction:
    """Bernoulli number B_{m2} for even m2 >= 2 (B_2 = 1/6, B_4 = -1/30).

    Values are memoised, and a value already in the table is returned
    before anything is estimated or the budget read.  Extending the table is
    estimated first and checked by check_budget against the package budget
    (default 10^8, env override BPLINKS_TAU_BUDGET), so bp_order(100000)
    refuses at once."""
    if m2 < 2 or m2 % 2 != 0:
        raise ValueError(f"bernoulli_even requires an even integer >= 2, got {m2}")
    table = _bernoulli
    if m2 < len(table):  # entries are only ever appended, so no lock is needed
        return table[m2]
    with _bernoulli_lock:
        _extend_bernoulli(m2)
        return _bernoulli[m2]


@dataclass(frozen=True)
class BPOrder:
    """Order of the cyclic group bP_{4m} of exotic (4m-1)-spheres bounding
    parallelizable manifolds."""

    m: int
    order: int


def bp_order(m: int) -> BPOrder:
    """|bP_{4m}| = 2^(2m-2) (2^(2m-1) - 1) * numerator(|4 B_{2m} / m|).

    The numerator is taken of the absolute value in lowest terms; group
    orders are positive.  With B_{2m} = p/q in lowest terms it is
    |4p| / gcd(4p, mq), one integer gcd.  bp_order(2).order == 28 (the 28
    exotic 7-spheres).
    """
    if m < 2:
        raise ValueError(f"bp_order requires m >= 2, got {m}")
    b = bernoulli_even(2 * m)
    num = abs(4 * b.numerator)
    num //= gcd(num, m * b.denominator)
    order = 2 ** (2 * m - 2) * (2 ** (2 * m - 1) - 1) * num
    return BPOrder(m, order)


def bounded_compositions(sigma: int, parts: int, lo: int, hi: int | None = None) -> int:
    """Number of x in Z^parts with lo <= x_i <= hi and sum(x) == sigma.

    hi=None means no upper bound.  Computed by inclusion-exclusion over the
    upper bounds; with lo=0, hi=None this is stars-and-bars
    C(sigma + parts - 1, parts - 1).
    """
    if parts < 0:
        raise ValueError("parts must be >= 0")
    if hi is not None and lo > hi:
        raise ValueError(f"need lo <= hi, got lo={lo}, hi={hi}")
    t = sigma - parts * lo
    if t < 0:
        return 0
    if parts == 0:
        return 1 if t == 0 else 0
    if hi is None:
        return comb(t + parts - 1, parts - 1)
    w = hi - lo
    total = 0
    for i in range(parts + 1):
        rem = t - i * (w + 1)
        if rem < 0:
            break
        term = comb(parts, i) * comb(rem + parts - 1, parts - 1)
        total += term if i % 2 == 0 else -term
    return total


def to_jsonable(x):
    """The JSON form of an exact value or record, the one place that decides it.

    A Fraction becomes the string "num/den" in lowest terms (an integral
    Fraction too: Fraction(3) is "3/1"), a tuple becomes a list, dicts and
    lists are converted item by item (dict keys are kept as they are), and
    a dataclass record is read field by field, in field order as
    dataclasses.asdict reads it, into a dict.  Anything else is returned
    unchanged, so ints stay JSON numbers.
    """
    if isinstance(x, Fraction):
        return _ratio(x.numerator, x.denominator)
    if isinstance(x, dict):
        return {k: to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_jsonable(v) for v in x]
    if is_dataclass(x):
        return {f.name: to_jsonable(getattr(x, f.name)) for f in fields(x)}
    return x


def _ratio(num: int, den: int) -> str:
    """to_jsonable of Fraction(num, den), for num/den already in lowest terms
    with den > 0, with no Fraction built."""
    return f"{num}/{den}"
