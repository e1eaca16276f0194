"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: usage errors exit 2 (argparse),
RefusalError exits 1, InvariantViolation exits 3.

The work budget that every estimate-then-refuse computation checks against
lives here too: arith, lattice and moduli all read it, and this module
imports nothing of the package, so none of them needs another's import.
"""

from __future__ import annotations

import os

DEFAULT_BUDGET = 10**8
_BUDGET_ENV = "BPLINKS_TAU_BUDGET"


def _resolve_budget(budget: int | None) -> int:
    """An explicit budget, else BPLINKS_TAU_BUDGET, else DEFAULT_BUDGET.  A
    variable that is not an integer is a ValueError that names it."""
    if budget is not None:
        return budget
    env = os.environ.get(_BUDGET_ENV)
    if not env:
        return DEFAULT_BUDGET
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{_BUDGET_ENV} must be an integer, got {env!r}") from None


class RefusalError(RuntimeError):
    """A well-formed request the tool declines to compute (budget, missing
    primes, parameter regime).  The message says why and what to do instead."""

    exit_code = 1


class InvariantViolation(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""

    exit_code = 3


class NotQuasiPolynomialError(RefusalError):
    """Raised when samples contradict the assumed quasi-polynomial structure.

    Carries the witness point so callers can report both values.
    """

    def __init__(self, x, expected, actual):
        self.x = x
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"samples are not quasi-polynomial: at x={x} "
            f"interpolation gives {expected} but sample is {actual}"
        )
