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

# Dimensions 4m+1 where bP_{4m+2} is trivial: a Kervaire invariant one
# element exists in dimension 4m+2 (126: Lin, Wang and Xu 2024).
_TRIVIAL_BP_DIMS = {1, 5, 13, 29, 61, 125}


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


@dataclass(slots=True)
class GcdGraph:
    """Graph on the entries of a; vertices i, j are adjacent iff
    gcd(a_i, a_j) > 1.  Vertices are tracked by index since values repeat."""

    vertices: tuple
    components: tuple  # tuple of sorted index tuples
    isolated: tuple  # indices of isolated vertices
    ev_component: tuple  # indices of the component holding all even entries


def build_gcd_graph(a: Sequence[int]) -> GcdGraph:
    """The gcd graph of a: _join_vertex, the rule scan_links applies at each
    step of its walk, folded over the sorted entries.  A repeated value
    joins the component of its first copy (gcd(v, v) = v > 1) and fuses
    nothing more, so the fold joins the first index of each run of equal
    entries only, and the run's other indices follow it.  With s distinct
    entries the fold makes at most s(s-1)/2 gcd tests, checked first by
    check_budget (default 10^8, env BPLINKS_TAU_BUDGET): s > 14142 refuses."""
    a = exponent_vector(a)
    return _graph_from_components(a, _gcd_components(a))


def _gcd_components(a: tuple) -> list:
    """build_gcd_graph's fold over the sorted, validated vector a: its
    components as (sorted indices, lcm of their values, value text) triples
    in least-index order, refused first past the budget on gcd tests."""
    starts = [i for i in range(len(a)) if i == 0 or a[i] != a[i - 1]]
    check_budget("build_gcd_graph", len(starts) * (len(starts) - 1) // 2, "gcd tests")
    comps = ()
    for i in starts:
        comps = _join_vertex(comps, a, i, str(a[i]))
    ends = dict(zip(starts, starts[1:] + [len(a)]))
    out = []
    for c, m, _ in comps:
        members = tuple(j for i in c for j in range(i, ends[i]))
        out.append((members, m, ", ".join([str(a[j]) for j in members])))
    return out


def _graph_from_components(a: tuple, comps) -> GcdGraph:
    """The GcdGraph of the sorted, validated vector a whose components are
    comps, as _join_vertex carries them."""
    isolated, ev = _split_components(a, comps)
    return GcdGraph(a, tuple([c[0] for c in comps]), isolated, ev[0])


def _split_components(a: tuple, comps) -> tuple:
    """(isolated, ev) of the sorted vector a whose components are comps:
    the indices of its isolated points, and the one component of comps
    holding its even entries, ((), 1, "") when it has none.  A component
    holds an even entry iff its lcm is even, so one parity test per
    component finds the evens."""
    isolated, ev = [], None
    for comp in comps:
        if len(comp[0]) == 1:
            isolated.append(comp[0][0])
        if comp[1] % 2 == 0:
            # even-even gcd >= 2, so all even entries lie in one component
            if ev is not None:
                raise InvariantViolation(f"even entries of {a} lie in more than one component")
            ev = comp
    return tuple(isolated), ev or ((), 1, "")


def _sphere_values(a: tuple, comps) -> tuple:
    """(isolated, ev, is_homotopy_sphere, condition, reason) of the sorted
    vector a whose components are comps: _split_components, then
    _brieskorn on its isolated points and its ev-component's indices."""
    isolated, ev = _split_components(a, comps)
    return (isolated, ev, *_brieskorn(a, isolated, ev[0]))


def _join_vertex(comps: tuple, a: tuple, i: int, text: str) -> tuple:
    """The components after vertex i, of value a[i] and value text text, is
    added to a graph on a[:i] whose components, in least-index order, are
    comps: (sorted indices, lcm of their values, their value text) triples,
    the text being the values in index order joined by ", ".  a[i] is
    adjacent to a member of a component iff it shares a prime with the
    component's lcm, so it joins every component with gcd(a[i], lcm) > 1;
    those fuse at the position of the first, and a value that joins none is
    a new last component.  i exceeds every index in comps, so least-index
    order is kept and the new vertex's text goes last."""
    v = a[i]
    out = []
    first = -1
    for comp in comps:
        if gcd(v, comp[1]) == 1:
            out.append(comp)
        elif first < 0:
            first = len(out)
            out.append(comp)
            members, m, joined = comp
        else:
            members = tuple(sorted(members + comp[0]))
            m = lcm(m, comp[1])
            joined = None  # the values interleave: rebuilt below
    if first < 0:
        out.append(((i,), v, text))
    else:
        if joined is None:
            joined = ", ".join([str(a[j]) for j in members])
        out[first] = (members + (i,), lcm(m, v), f"{joined}, {text}")
    return tuple(out)


@dataclass(slots=True)
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
    return SphereClassification(*_brieskorn(g.vertices, g.isolated, g.ev_component), g)


def _brieskorn(a: tuple, isolated: tuple, ev: tuple) -> tuple:
    """Brieskorn's criterion on the sorted vector a whose gcd graph has the
    isolated points isolated and the ev-component ev (indices into a):
    (is_homotopy_sphere, condition, reason)."""
    if len(isolated) >= 2:
        return True, COND1, f"{len(isolated)} isolated points {tuple([a[i] for i in isolated])}"
    if len(isolated) == 1:
        v = a[isolated[0]]
        if v % 2 == 1 and _ev_component_ok(a, ev):
            return (
                True,
                COND2,
                f"unique odd isolated point {v}; ev-component of odd size "
                f"{len(ev)} with pairwise gcd 2",
            )
        if v % 2 == 1:
            return False, None, "unique odd isolated point but ev-component fails"
        return False, None, "unique isolated point is even"
    return False, None, "no isolated points"


def _ev_component_ok(a: tuple, ev: tuple) -> bool:
    """Odd size and pairwise gcds all 2, i.e. every entry is 2b with the
    halves b pairwise coprime: each half is checked against those before."""
    if len(ev) % 2 == 0:  # empty or even size fails
        return False
    before = 1
    for i in ev:
        half, odd = divmod(a[i], 2)
        if odd or gcd(half, before) != 1:
            return False
        before *= half
    return True


@dataclass(frozen=True)
class OddDiffeoClass:
    """Diffeomorphism data for odd n (link dimension 4m+1)."""

    arf: int  # 0 or 1
    group: str  # "trivial" or "order2"
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
    arf = _arf(g.vertices, cls.condition, g.isolated, g.ev_component)
    return OddDiffeoClass(arf, _bp_group(dim), dim)


def _arf(a: tuple, condition: Optional[str], isolated: tuple, ev: tuple) -> int:
    """The Arf invariant of the homotopy sphere of odd n whose sorted vector
    a meets condition, with the isolated points isolated and the
    ev-component ev (indices into a)."""
    if condition != COND2:
        return 0
    # the isolated point is odd and the ev-component all even, so they are
    # disjoint and cover every vertex iff their sizes add up
    return int(a[isolated[0]] % 8 in (3, 5) and len(ev) + 1 == len(a))


def _bp_group(dim: int) -> str:
    """The group bP_{dim+1} of the links of dimension dim = 4m+1."""
    return "trivial" if dim in _TRIVIAL_BP_DIMS else "order2"


def diffeo_class_even(n: int, tau: int) -> EvenDiffeoClass:
    """Class tau/8 in bP_{4m}, m = n/2.  tau must be divisible by 8 for a
    homotopy sphere; anything else signals a counting bug upstream."""
    if n % 2 != 0 or n < 4:
        raise ValueError(f"diffeo_class_even requires even n >= 4, got {n}")
    class_mod_bp, order = _class_mod_bp(n, tau)
    return EvenDiffeoClass(tau, class_mod_bp, order)


def _class_mod_bp(n: int, tau: int) -> tuple:
    """(tau/8 mod |bP_{4m}|, bP_{4m}'s BPOrder) of a homotopy sphere of even
    n = 2m >= 4 with signature tau."""
    if tau % 8 != 0:
        raise InvariantViolation(f"signature {tau} is not divisible by 8")
    order = bp_order(n // 2)
    return (tau // 8) % order.order, order


def _eigenvalue_one_count(t: Sequence[int]) -> int:
    """m_1(t) = #{x : 0 < x_i < t_i, sum_i x_i/t_i in Z}, by inclusion-exclusion
    over the coordinates S allowed to be nonzero: m_1 = sum_S (-1)^(|t|-|S|)
    prod(t_S)/lcm(t_S) (Milnor-Orlik 1970).  The r copies of one value v share
    the lcm, so the binomial theorem sums them: (-1)^r for none, (v-1)^r - (-1)^r
    for some.  s distinct values give 2^s terms, checked first by check_budget
    (default 10^8, env BPLINKS_TAU_BUDGET)."""
    runs = {}
    for v in t:
        runs[v] = runs.get(v, 0) + 1
    check_budget("the eigenvalue-1 count", 1 << len(runs), "terms")
    terms = [(1, 1)]  # (signed sum of products, lcm) per subset of the values
    for v, r in runs.items():
        none = (-1) ** r
        some = (v - 1) ** r - none
        terms = [x for c, m in terms for x in ((c * none, m), (c * some, lcm(m, v)))]
    return sum(c // m for c, m in terms)
