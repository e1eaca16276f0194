import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from bplinks import arith
from bplinks.arith import bernoulli_even, bounded_compositions, bp_order, to_jsonable
from bplinks.errors import RefusalError


def test_bernoulli_small_values():
    assert bernoulli_even(2) == Fraction(1, 6)
    assert bernoulli_even(4) == Fraction(-1, 30)
    assert bernoulli_even(12) == Fraction(-691, 2730)


def test_bernoulli_extension_refuses_past_the_budget(monkeypatch):
    # from an empty table, B_2..B_10 cost 2^2 + 4^2 + ... + 10^2 = 220 term steps
    monkeypatch.setattr(arith, "_bernoulli", [Fraction(1), Fraction(-1, 2)])
    monkeypatch.setenv("BPLINKS_TAU_BUDGET", "219")
    with pytest.raises(RefusalError, match=r"B_10 would take ~220 .*\(budget 219\)"):
        bp_order(5)
    monkeypatch.setenv("BPLINKS_TAU_BUDGET", "220")
    assert bp_order(5).order == 261632
    # what the table holds costs nothing: B_12 adds 12^2 = 144 only
    monkeypatch.setenv("BPLINKS_TAU_BUDGET", "144")
    assert bernoulli_even(12) == Fraction(-691, 2730)


def test_bernoulli_defining_recurrence():
    # sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1, with B_1 = -1/2
    bs = {0: Fraction(1), 1: Fraction(-1, 2)}
    for k in range(2, 31):
        bs[k] = bernoulli_even(k) if k % 2 == 0 else Fraction(0)
    for n in range(1, 31):
        assert sum(comb(n + 1, k) * bs[k] for k in range(n + 1)) == 0


def test_bernoulli_rejects_odd_and_nonpositive():
    for bad in (0, -2, 3, 7):
        with pytest.raises(ValueError):
            bernoulli_even(bad)


def test_bp_orders_match_literature():
    assert bp_order(2).order == 28
    assert bp_order(3).order == 992
    assert bp_order(4).order == 8128


def test_bp_order_rejects_small_m():
    with pytest.raises(ValueError):
        bp_order(1)


def test_bounded_compositions_examples():
    assert bounded_compositions(4, 3, 1, 2) == 3
    assert bounded_compositions(3, 3, 1, 2) == 1
    assert bounded_compositions(7, 3, 1, 2) == 0


def test_bounded_compositions_against_enumeration():
    for parts in range(0, 5):
        for lo in (0, 1, 2):
            for hi in range(lo, 8):
                tally = {}
                for xs in itertools.product(range(lo, hi + 1), repeat=parts):
                    s = sum(xs)
                    tally[s] = tally.get(s, 0) + 1
                for sigma in range(0, 31):
                    assert bounded_compositions(sigma, parts, lo, hi) == tally.get(sigma, 0)


@given(st.integers(0, 40), st.integers(1, 6))
def test_bounded_compositions_stars_and_bars(sigma, parts):
    assert bounded_compositions(sigma, parts, 0, None) == comb(sigma + parts - 1, parts - 1)


def test_bounded_compositions_rejects_bad_bounds():
    with pytest.raises(ValueError):
        bounded_compositions(3, 2, 5, 4)


def test_to_jsonable_writes_fractions_as_num_den():
    value = {"x": Fraction(-6, 4), "pair": (Fraction(3), 2), "rows": [{"k": True}], "s": "7"}
    assert to_jsonable(value) == {
        "x": "-3/2",
        "pair": ["3/1", 2],
        "rows": [{"k": True}],
        "s": "7",
    }
    assert to_jsonable(5) == 5
