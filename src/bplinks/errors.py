"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: usage errors exit 2 (argparse),
RefusalError exits 1, InvariantViolation exits 3.

The work budget lives here too, with check_budget, the one decision of
every estimate-then-refuse computation.  This module imports nothing of the
package, so arith, lattice, moduli and topology all call it directly.
"""

from __future__ import annotations

import os

DEFAULT_BUDGET = 10**8
_BUDGET_ENV = "BPLINKS_TAU_BUDGET"


def _resolve_budget(budget: int | None) -> int:
    """An explicit budget, else BPLINKS_TAU_BUDGET, else DEFAULT_BUDGET.  A
    variable that is not an integer >= 0 is a ValueError that names it."""
    if budget is not None:
        return budget
    env = os.environ.get(_BUDGET_ENV)
    if not env:
        return DEFAULT_BUDGET
    try:
        value = int(env)
    except ValueError:
        raise ValueError(f"{_BUDGET_ENV} must be an integer, got {env!r}") from None
    if value < 0:
        raise ValueError(f"{_BUDGET_ENV} must be >= 0, got {value}")
    return value


def check_budget(work, estimate, unit, budget=None, hint="raise BPLINKS_TAU_BUDGET") -> None:
    """Refuse work of ~estimate units past the limit _resolve_budget(budget),
    as "<work> would take ~<estimate> <unit> (budget <limit>); <hint>"."""
    limit = _resolve_budget(budget)
    if estimate > limit:
        err = RefusalError(f"{work} would take ~{estimate} {unit} (budget {limit}); {hint}")
        err.estimate, err.budget = estimate, limit
        raise err


class RefusalError(RuntimeError):
    """A well-formed request the tool declines to compute (budget, missing
    primes, parameter regime).  The message says why and what to do instead;
    a budget refusal also keeps its estimate and budget, else both are None."""

    exit_code = 1
    estimate = budget = None  # set by check_budget on a budget refusal


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
