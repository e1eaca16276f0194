import itertools
import random
import time
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from bplinks import topology
from bplinks.errors import InvariantViolation, RefusalError
from bplinks.lattice import tau_brute
from bplinks.report import scan_links
from bplinks.topology import (
    COND1,
    COND2,
    arf_class,
    build_gcd_graph,
    classify_sphere,
    diffeo_class_even,
    exponent_vector,
)


def test_exponent_vector_sorts_and_validates():
    assert exponent_vector([5, 2, 3, 2]) == (2, 2, 3, 5)
    with pytest.raises(ValueError):
        exponent_vector([2, 2, 2])
    with pytest.raises(ValueError):
        exponent_vector([1, 2, 3, 4])
    for bad in ([2.9, 3, 5, 7], [2, 3, 5, "7"], [2, 3, 5, 7.0]):
        with pytest.raises(ValueError, match="integers"):
            exponent_vector(bad)


def test_gcd_graph_examples():
    g = build_gcd_graph((2, 2, 2, 3, 5))
    assert [[g.vertices[i] for i in c] for c in g.components] == [[2, 2, 2], [3], [5]]
    assert tuple(g.vertices[i] for i in g.isolated) == (3, 5)

    g = build_gcd_graph((2, 2, 2, 2, 2))
    assert len(g.components) == 1
    assert g.isolated == ()

    g = build_gcd_graph((2, 2, 82, 86, 94, 101))
    assert tuple(g.vertices[i] for i in g.ev_component) == (2, 2, 82, 86, 94)
    assert tuple(g.vertices[i] for i in g.isolated) == (101,)


def oracle_gcd_graph(a):
    """Components by the transitive closure of the pairwise gcd relation."""
    a = sorted(a)
    size = len(a)
    reach = [[i == j or gcd(a[i], a[j]) > 1 for j in range(size)] for i in range(size)]
    for k in range(size):
        for i in range(size):
            for j in range(size):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    components = sorted({tuple(j for j in range(size) if reach[i][j]) for i in range(size)})
    isolated = [c[0] for c in components if len(c) == 1]
    evens = [i for i in range(size) if a[i] % 2 == 0]
    ev = [c for c in components if evens and evens[0] in c]
    return tuple(a), tuple(components), tuple(isolated), ev[0] if ev else ()


@given(
    st.lists(
        st.one_of(st.integers(2, 12), st.integers(2, 500)), min_size=4, max_size=12
    ),
)
def test_gcd_graph_matches_closure_oracle(values):
    g = build_gcd_graph(values)
    assert (g.vertices, g.components, g.isolated, g.ev_component) == oracle_gcd_graph(values)


@pytest.mark.parametrize("n, amax", [(5, 8), (4, 9)])
def test_scan_walk_graphs_match_closure_oracle(n, amax):
    # the walk's leaf finds the ev-component from the parity of each
    # component's lcm; the oracle looks at the entries themselves
    for rep in scan_links(n, amax):
        g = rep.sphere.graph
        assert (g.vertices, g.components, g.isolated, g.ev_component) == oracle_gcd_graph(
            rep.vector
        ), rep.vector


def test_gcd_graph_split_even_entries_raise_without_assert(monkeypatch):
    # a gcd that never joins anything puts the even entries in separate
    # components; the check is an exception, so it also runs under -O
    monkeypatch.setattr(topology, "gcd", lambda x, y: 1)
    with pytest.raises(InvariantViolation):
        build_gcd_graph((2, 3, 4, 5))


def test_gcd_graph_refuses_many_distinct_entries_quickly(monkeypatch):
    # 20 000 distinct entries: at most 20000 * 19999 / 2 gcd tests
    monkeypatch.delenv("BPLINKS_TAU_BUDGET", raising=False)
    start = time.perf_counter()
    with pytest.raises(RefusalError) as err:
        classify_sphere(range(2, 20002))
    assert time.perf_counter() - start < 1
    assert (err.value.estimate, err.value.budget) == (199990000, 10**8)


def oracle_condition(a):
    """Brieskorn's trichotomy with condition (2)'s ev-component checked pair
    by pair, on the closure oracle's graph."""
    vertices, _, isolated, ev = oracle_gcd_graph(a)
    if len(isolated) >= 2:
        return COND1
    if len(isolated) == 1 and vertices[isolated[0]] % 2 == 1 and len(ev) % 2 == 1:
        vals = [vertices[i] for i in ev]
        if all(gcd(x, y) == 2 for k, x in enumerate(vals) for y in vals[k + 1:]):
            return COND2
    return None


# halves of the even entries: 1, primes and composites, so the halves are
# sometimes pairwise coprime (condition 2) and sometimes not
_HALVES = (1, 1, 2, 3, 5, 7, 11, 13, 4, 6, 9, 10, 15, 21, 25, 35)


@given(
    st.integers(1, 60).map(lambda k: 2 * k + 1),
    st.lists(st.sampled_from(_HALVES).map(lambda b: 2 * b), min_size=3, max_size=11),
)
def test_ev_component_matches_pairwise_oracle(odd, evens):
    a = evens + [odd]
    assert classify_sphere(a).condition == oracle_condition(a)


def test_long_ev_component_classifies_quickly():
    start = time.perf_counter()
    cls = classify_sphere((2,) * 20001 + (3,))
    assert time.perf_counter() - start < 1
    assert cls.condition == COND2


def test_classify_sphere_examples():
    assert classify_sphere((2, 2, 2, 3, 5)).condition == COND1
    assert not classify_sphere((2, 2, 2, 2, 2)).is_homotopy_sphere
    assert classify_sphere((2, 2, 82, 86, 94, 101)).condition == COND2


@given(
    st.lists(st.integers(2, 20), min_size=4, max_size=8),
    st.randoms(use_true_random=False),
)
def test_classify_sphere_permutation_invariant(values, rng):
    base = classify_sphere(values)
    shuffled = list(values)
    rng.shuffle(shuffled)
    other = classify_sphere(shuffled)
    assert other.is_homotopy_sphere == base.is_homotopy_sphere
    assert other.condition == base.condition


def test_conditions_mutually_exclusive():
    # COND2 requires a unique isolated point; COND1 requires two, so the
    # classifier can never satisfy both.  Exercised over a dense sweep.
    rng = random.Random(7)
    for _ in range(500):
        a = sorted(rng.randint(2, 14) for _ in range(rng.randint(4, 7)))
        cls = classify_sphere(a)
        g = cls.graph
        cond1 = len(g.isolated) >= 2
        if cls.condition == COND2:
            assert not cond1
        if cls.condition == COND1:
            assert cond1


def test_arf_examples():
    c = arf_class((2, 2, 82, 86, 94, 101))
    assert (c.arf, c.group, c.dimension) == (1, "order2", 9)
    c = arf_class((2, 2, 82, 86, 94, 103))
    assert (c.arf, c.group) == (0, "order2")
    c = arf_class((2, 2, 2, 3, 5, 5))
    assert c.arf == 0  # component {5,5} is neither ev nor the isolated point


def test_arf_is_zero_under_condition_one():
    rng = random.Random(11)
    seen = 0
    for _ in range(2000):
        a = sorted(rng.randint(2, 16) for _ in range(6))
        cls = classify_sphere(a)
        if cls.condition == COND1:
            assert arf_class(a).arf == 0
            seen += 1
    assert seen > 0


def oracle_arf(cls):
    """The Arf bit by its definition: condition (2), the isolated point
    congruent to +-3 mod 8, and every vertex in the ev-component or the
    isolated point, as sets of indices."""
    g = cls.graph
    if cls.condition != COND2:
        return 0
    covered = set(g.ev_component) | set(g.isolated)
    a0 = g.vertices[g.isolated[0]]
    return int(a0 % 8 in (3, 5) and covered == set(range(len(g.vertices))))


def test_arf_cover_by_sizes_matches_the_set_rule():
    # _odd_diffeo_class decides the cover by len(ev_component) + 1 == len(vertices)
    ones = uncovered = 0
    for n, amax in ((3, 12), (5, 9), (7, 6)):
        for rep in scan_links(n, amax):
            cls = rep.sphere
            if not cls.is_homotopy_sphere:
                continue
            assert rep.diffeo.arf == oracle_arf(cls) == arf_class(rep.vector).arf, rep.vector
            ones += rep.diffeo.arf
            g = cls.graph
            odd_point = g.vertices[g.isolated[0]]
            uncovered += cls.condition == COND2 and odd_point % 8 in (3, 5) and not rep.diffeo.arf
    # both sides of the cover test are reached: 42 spheres with arf 1 and 29
    # with an uncovered vertex and the isolated point +-3 mod 8
    assert (ones, uncovered) == (42, 29)


def test_arf_rejects_even_n_and_non_spheres():
    with pytest.raises(ValueError):
        arf_class((2, 2, 2, 3, 5))  # n = 4
    with pytest.raises(ValueError):
        arf_class((2, 2, 2, 2, 2, 2))  # not a sphere


def test_diffeo_class_even_examples():
    assert diffeo_class_even(4, 8).class_mod_bp == 1
    assert diffeo_class_even(4, 8).bp.order == 28
    cls = diffeo_class_even(4, 8 * 224)
    assert cls.class_mod_bp == 0 and cls.is_standard
    assert diffeo_class_even(6, -16).class_mod_bp == 990


def test_diffeo_class_even_rejects_bad_tau():
    with pytest.raises(InvariantViolation):
        diffeo_class_even(4, 12)
    with pytest.raises(ValueError):
        diffeo_class_even(5, 8)


def _brute_eigenvalue_one_count(t):
    d = lcm(*t)
    weights = [d // a for a in t]
    boxes = itertools.product(*(range(1, a) for a in t))
    return sum(1 for x in boxes if sum(xi * w for xi, w in zip(x, weights)) % d == 0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(2, 9), min_size=2, max_size=6))
def test_eigenvalue_one_count_matches_enumeration(t):
    m1 = topology._eigenvalue_one_count(t)
    assert m1 == _brute_eigenvalue_one_count(t)
    if len(t) >= 4:  # tau_brute's boundary points are the same x
        assert m1 == tau_brute(t).boundary_skipped


def test_eigenvalue_one_count_refuses_past_the_budget(monkeypatch):
    # 4 distinct values make 2^4 terms
    monkeypatch.setenv("BPLINKS_TAU_BUDGET", "15")
    with pytest.raises(RefusalError, match="eigenvalue-1 count would take ~16 terms") as exc:
        topology._eigenvalue_one_count((2, 3, 3, 5, 7))
    assert (exc.value.estimate, exc.value.budget) == (16, 15)
    monkeypatch.setenv("BPLINKS_TAU_BUDGET", "16")
    assert topology._eigenvalue_one_count((2, 3, 3, 5, 7)) == 0
