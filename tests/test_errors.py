from fractions import Fraction

import pytest

from bplinks import arith
from bplinks.arith import bp_order
from bplinks.errors import NotQuasiPolynomialError, RefusalError, check_budget
from bplinks.lattice import count_box, count_spec, tau_brute, tau_kernel
from bplinks.moduli import moduli_dimension
from bplinks.topology import build_gcd_graph


def _bp_order_from_two_entries(monkeypatch):
    # from an empty table, B_2..B_10 cost 2^2 + 4^2 + ... + 10^2 = 220 term steps
    monkeypatch.setattr(arith, "_bernoulli", [Fraction(1), Fraction(-1, 2)])
    monkeypatch.setenv("BPLINKS_TAU_BUDGET", "219")
    bp_order(5)


def _past_env(limit, call, *args):
    """call(*args) under BPLINKS_TAU_BUDGET = limit."""

    def run(monkeypatch):
        monkeypatch.setenv("BPLINKS_TAU_BUDGET", str(limit))
        call(*args)

    return run


_BOX = count_spec((4, 5, 7), 3, lower_open=True, upper_bounded=True)


@pytest.mark.parametrize(
    "call, estimate, budget",
    [
        (_past_env(7, tau_brute, (2, 2, 2, 3, 5)), 8, 7),
        (_past_env(19, tau_kernel, (3, 3, 3, 7, 20)), 20, 19),
        (_past_env(71, count_box, _BOX), 72, 71),
        (_bp_order_from_two_entries, 220, 219),
        (_past_env(4301, moduli_dimension, 6, 8, 3), 4302, 4301),
        # 20 000 distinct entries: 20000 * 19999 / 2 gcd tests
        (lambda mp: build_gcd_graph(range(2, 20002)), 199990000, 10**8),
    ],
    ids=["tau_brute", "tau_kernel", "count_box", "bp_order", "moduli_dimension", "gcd_graph"],
)
def test_budget_refusal_carries_its_estimate_and_budget(monkeypatch, call, estimate, budget):
    monkeypatch.delenv("BPLINKS_TAU_BUDGET", raising=False)
    with pytest.raises(RefusalError) as err:
        call(monkeypatch)
    assert (err.value.estimate, err.value.budget) == (estimate, budget)
    assert f"~{estimate} " in str(err.value)
    assert f"(budget {budget})" in str(err.value)


def test_check_budget_message_and_limit(monkeypatch):
    monkeypatch.setenv("BPLINKS_TAU_BUDGET", "10")
    assert check_budget("work", 10, "steps") is None  # the limit itself is allowed
    with pytest.raises(RefusalError) as err:
        check_budget("work", 11, "steps")
    assert str(err.value) == "work would take ~11 steps (budget 10); raise BPLINKS_TAU_BUDGET"
    with pytest.raises(RefusalError, match=r"^work would take ~4 steps \(budget 3\); try less$"):
        check_budget("work", 4, "steps", budget=3, hint="try less")  # explicit budget wins


def test_other_refusals_carry_no_budget_fields():
    err = RefusalError("not enough primes")
    assert (err.estimate, err.budget) == (None, None)
    quasi = NotQuasiPolynomialError(3, 1, 2)
    assert (quasi.estimate, quasi.budget) == (None, None)
    assert (quasi.x, quasi.expected, quasi.actual) == (3, 1, 2)
    assert "at x=3" in str(quasi)
