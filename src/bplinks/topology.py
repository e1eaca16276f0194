"""Brieskorn-Pham link topology: gcd graph, homotopy-sphere criterion,
Kervaire/Arf classification, and the bP_{4m} class from the signature.

An exponent vector a = (a_0, ..., a_n) with every a_i >= 2 and n >= 3
describes the link of z_0^{a_0} + ... + z_n^{a_n} = 0, a smooth
(2n-1)-manifold.  All criteria here are permutation-invariant, so vectors
are stored sorted ascending.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional, Sequence

from .arith import BPOrder, bp_order
from .errors import InvariantViolation, check_budget

__all__ = [
    "exponent_vector",
    "GcdGraph",
    "build_gcd_graph",
    "SphereClassification",
    "classify_sphere",
    "OddDiffeoClass",
    "EvenDiffeoClass",
    "arf_class",
    "diffeo_class_even",
    "COND1",
    "COND2",
]

# Homotopy-sphere conditions (Brieskorn's trichotomy).
COND1 = "two_isolated_points"
COND2 = "odd_isolated_point_with_ev_component"

# Dimensions 4m+1 where bP_{4m+2} is trivial; 125 is the open Kervaire case.
_TRIVIAL_BP_DIMS = {1, 5, 13, 29, 61}
_OPEN_KERVAIRE_DIM = 125


def exponent_vector(values: Sequence[int]) -> tuple:
    """Validate and normalize an exponent vector: sorted, each entry an
    integer >= 2, length >= 4 (so the link dimension 2n-1 is >= 5)."""
    a = tuple(sorted(_integers(values)))
    if len(a) < 4:
        raise ValueError(f"need at least 4 exponents (n >= 3), got {len(a)}")
    if a[0] < 2:
        raise ValueError(f"every exponent must be >= 2, got {a}")
    return a


def _integers(values: Sequence[int]) -> tuple:
    """The entries as ints; a non-integral entry (2.9, "3") is an error, not
    truncated."""
    try:
        return tuple(map(operator.index, values))
    except TypeError as err:
        raise ValueError(f"exponents must be integers: {err}") from None


@dataclass(frozen=True)
class GcdGraph:
    """Graph on the entries of a; vertices i, j are adjacent iff
    gcd(a_i, a_j) > 1.  Vertices are tracked by index since values repeat."""

    vertices: tuple
    components: tuple  # tuple of sorted index tuples
    isolated: tuple  # indices of isolated vertices
    ev_component: tuple  # indices of the component holding all even entries

    def component_values(self):
        return tuple(tuple(self.vertices[i] for i in comp) for comp in self.components)

    def isolated_values(self):
        return tuple(self.vertices[i] for i in self.isolated)


def build_gcd_graph(a: Sequence[int]) -> GcdGraph:
    """The gcd graph of a: _join_vertex, the rule scan_links applies at each
    step of its walk, folded over the sorted entries.  A repeated value
    joins the component of its first copy (gcd(v, v) = v > 1) and fuses
    nothing more, so the fold joins the first index of each run of equal
    entries only, and the run's other indices follow it.  With s distinct
    entries the fold makes at most s(s-1)/2 gcd tests, checked first by
    check_budget (default 10^8, env BPLINKS_TAU_BUDGET): s > 14142 refuses."""
    a = exponent_vector(a)
    starts = [i for i in range(len(a)) if i == 0 or a[i] != a[i - 1]]
    check_budget("build_gcd_graph", len(starts) * (len(starts) - 1) // 2, "gcd tests")
    comps = ()
    for i in starts:
        comps = _join_vertex(comps, i, a[i])
    ends = dict(zip(starts, starts[1:] + [len(a)]))
    return _graph_from_components(
        a, tuple(tuple(j for i in c for j in range(i, ends[i])) for c, _ in comps)
    )


def _graph_from_components(a: tuple, components: tuple) -> GcdGraph:
    """The GcdGraph of the sorted, validated vector a whose components (sorted
    index tuples in least-index order) are given."""
    isolated = tuple(c[0] for c in components if len(c) == 1)
    holding_evens = [c for c in components if any(a[i] % 2 == 0 for i in c)]
    # even-even gcd >= 2, so all even entries lie in one component
    if len(holding_evens) > 1:
        raise InvariantViolation(f"even entries of {a} lie in more than one component")
    ev = holding_evens[0] if holding_evens else ()
    return GcdGraph(vertices=a, components=components, isolated=isolated, ev_component=ev)


def _join_vertex(comps: tuple, i: int, v: int) -> tuple:
    """The components after vertex i of value v is added to a graph whose
    components, in least-index order, are comps: (sorted indices, lcm of
    their values) pairs.  v is adjacent to a member of a component iff it
    shares a prime with the component's lcm, so v joins every component
    with gcd(v, lcm) > 1; those fuse at the position of the first, and a v
    that joins none is a new last component.  i exceeds every index in
    comps, so least-index order is kept."""
    out = []
    first = -1
    for comp in comps:
        if gcd(v, comp[1]) == 1:
            out.append(comp)
        elif first < 0:
            first = len(out)
            out.append(comp)
            members, m = comp
        else:
            members = tuple(sorted(members + comp[0]))
            m = lcm(m, comp[1])
    if first < 0:
        out.append(((i,), v))
    else:
        out[first] = (members + (i,), lcm(m, v))
    return tuple(out)


@dataclass(frozen=True)
class SphereClassification:
    is_homotopy_sphere: bool
    condition: Optional[str]  # COND1, COND2, or None
    reason: str
    graph: GcdGraph


def classify_sphere(a: Sequence[int]) -> SphereClassification:
    """Brieskorn's criterion: the link is a homotopy sphere iff the gcd
    graph has (1) at least two isolated points, or (2) a unique odd isolated
    point together with an ev-component of odd size whose pairwise gcds are
    all exactly 2.
    """
    return _sphere_from_graph(build_gcd_graph(a))


def _sphere_from_graph(g: GcdGraph) -> SphereClassification:
    """classify_sphere of the vector whose gcd graph is g."""
    iso = g.isolated
    if len(iso) >= 2:
        return SphereClassification(
            True, COND1, f"{len(iso)} isolated points {g.isolated_values()}", g
        )
    if len(iso) == 1:
        v = g.vertices[iso[0]]
        if v % 2 == 1 and _ev_component_ok(g):
            return SphereClassification(
                True,
                COND2,
                f"unique odd isolated point {v}; ev-component of odd size "
                f"{len(g.ev_component)} with pairwise gcd 2",
                g,
            )
        if v % 2 == 1:
            return SphereClassification(
                False, None, "unique odd isolated point but ev-component fails", g
            )
        return SphereClassification(False, None, "unique isolated point is even", g)
    return SphereClassification(False, None, "no isolated points", g)


def _ev_component_ok(g: GcdGraph) -> bool:
    """Odd size and pairwise gcds all 2, i.e. every entry is 2b with the
    halves b pairwise coprime: each half is checked against those before."""
    ev = g.ev_component
    if len(ev) % 2 == 0:  # empty or even size fails
        return False
    before = 1
    for i in ev:
        half, odd = divmod(g.vertices[i], 2)
        if odd or gcd(half, before) != 1:
            return False
        before *= half
    return True


@dataclass(frozen=True)
class OddDiffeoClass:
    """Diffeomorphism data for odd n (link dimension 4m+1)."""

    arf: int  # 0 or 1
    group: str  # "trivial", "order2", or "open125"
    dimension: int


@dataclass(frozen=True)
class EvenDiffeoClass:
    """Diffeomorphism data for even n (link dimension 4m-1): the class
    tau/8 in the cyclic group bP_{4m}."""

    tau: int
    class_mod_bp: int
    bp: BPOrder

    @property
    def is_standard(self) -> bool:
        return self.class_mod_bp == 0


def arf_class(a: Sequence[int]) -> OddDiffeoClass:
    """Arf/Kervaire classification for odd n.  arf = 1 iff condition (2)
    holds, the isolated point is congruent to +-3 mod 8, and every vertex
    lies in the ev-component or is the isolated point."""
    a = exponent_vector(a)
    n = len(a) - 1
    if n % 2 == 0:
        raise ValueError(f"arf_class requires odd n, got n={n}")
    cls = classify_sphere(a)
    if not cls.is_homotopy_sphere:
        raise ValueError("arf_class requires a homotopy sphere")
    return _odd_diffeo_class(cls)


def _odd_diffeo_class(cls: SphereClassification) -> OddDiffeoClass:
    """arf_class of the homotopy sphere of odd n that cls classifies."""
    g = cls.graph
    dim = 2 * len(g.vertices) - 3  # = 2n-1 = 4m+1

    arf = 0
    if cls.condition == COND2:
        a0 = g.vertices[g.isolated[0]]
        covered = set(g.ev_component) | set(g.isolated)
        if a0 % 8 in (3, 5) and covered == set(range(len(g.vertices))):
            arf = 1

    if dim in _TRIVIAL_BP_DIMS:
        group = "trivial"
    elif dim == _OPEN_KERVAIRE_DIM:
        group = "open125"
    else:
        group = "order2"
    return OddDiffeoClass(arf=arf, group=group, dimension=dim)


def diffeo_class_even(n: int, tau: int) -> EvenDiffeoClass:
    """Class tau/8 in bP_{4m}, m = n/2.  tau must be divisible by 8 for a
    homotopy sphere; anything else signals a counting bug upstream."""
    if n % 2 != 0 or n < 4:
        raise ValueError(f"diffeo_class_even requires even n >= 4, got {n}")
    if tau % 8 != 0:
        raise InvariantViolation(f"signature {tau} is not divisible by 8")
    order = bp_order(n // 2)
    return EvenDiffeoClass(tau=tau, class_mod_bp=(tau // 8) % order.order, bp=order)
