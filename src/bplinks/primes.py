"""Deterministic primality testing."""

from __future__ import annotations

from .errors import RefusalError

__all__ = ["is_prime"]

# Miller-Rabin with the first 13 primes as bases is proven for n < psi_13
# (Sorenson-Webster 2015); 2..37 alone pass the composite psi_12 =
# 399165290221 * 798330580441.  The bases are the trial divisors too.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, proven for n < psi_13; a larger n is refused."""
    if n >= _PSI_13:
        raise RefusalError(f"{n} >= {_PSI_13}: the primality test is unproven there")
    if n < 2:
        return False
    for p in _BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
