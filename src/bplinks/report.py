"""Full link classification: one record combining topology, stability, and
(for even n) the signature and bP class.

classify_link classifies one vector from scratch.  scan_links yields the
same records for every sorted vector of a scan, in the order
combinations_with_replacement gives, by a depth-first walk over the
non-decreasing prefixes: each prefix carries its gcd components, the
product P of its entries, N = sum P/a_i and their lcm, so each vector costs
one step on its parent's state instead of a validation, a graph search and
three reductions.  Both end in the same rules (topology's
_graph_from_components and _sphere_from_graph, stability's
_stability_report, and _link_report here); classify_link is the walk's
oracle in the tests.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from decimal import Decimal
from math import lcm
from typing import Callable, Iterator, Optional, Sequence

from .arith import to_jsonable
from .errors import check_budget
from .lattice import SignatureResult, _outer_residues, _window_memo, tau_brute, tau_kernel
from .stability import StabilityReport, _stability_report, k_stability
from .topology import (
    EvenDiffeoClass,
    OddDiffeoClass,
    SphereClassification,
    _graph_from_components,
    _integers,
    _join_vertex,
    _odd_diffeo_class,
    _sphere_from_graph,
    classify_sphere,
    diffeo_class_even,
    exponent_vector,
)

__all__ = ["LinkReport", "classify_link", "scan_links", "report_to_dict"]


@dataclass(frozen=True)
class LinkReport:
    input_vector: tuple
    vector: tuple  # sorted
    n: int
    link_dimension: int
    sphere: SphereClassification
    stability: StabilityReport
    signature: Optional[SignatureResult]
    diffeo: Optional[object]  # EvenDiffeoClass | OddDiffeoClass


def classify_link(
    values: Sequence[int],
    tau_method: str = "kernel",
    budget: Optional[int] = None,
) -> LinkReport:
    original = _integers(values)
    a = exponent_vector(original)
    sphere = classify_sphere(a)
    stability = k_stability(a)
    signature = None
    if len(a) % 2 == 1:  # n = len(a) - 1 is even
        engine = tau_brute if tau_method == "brute" else tau_kernel
        signature = engine(a, budget=budget)
    return _link_report(original, a, sphere, stability, signature)


def scan_links(
    n: int,
    amax: int,
    cached: Optional[Callable[[tuple], Optional[SignatureResult]]] = None,
) -> Iterator[LinkReport]:
    """classify_link of every sorted vector of n + 1 entries in 2..amax, in
    the order combinations_with_replacement gives.

    n is checked once; every vector is sorted with entries >= 2 by
    construction.  For even n the signature is cached(a) when that is not
    None, else tau_kernel(a) under the default budget.  The walk visits
    every (A, B) under one a[:-2] in a row, so the residue DP's one-entry
    outer memo builds one outer list per prefix, and its window memo is
    shared across the scan.  Both memos are emptied when the walk starts,
    so every scan starts cold.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    top = amax + 1

    def leaf(a, comps, p, num, d):
        sphere = _sphere_from_graph(_graph_from_components(a, tuple(c for c, _ in comps)))
        stability = _stability_report(a, n, p, num, d)
        signature = None
        if n % 2 == 0:
            signature = cached(a) if cached is not None else None
            if signature is None:
                signature = tau_kernel(a)
        return _link_report(a, a, sphere, stability, signature)

    def walk(prefix, comps, p, num, d):
        i = len(prefix)
        for v in range(prefix[-1] if prefix else 2, top):
            a = prefix + (v,)
            joined = _join_vertex(comps, i, v)
            if i < n:  # a is not yet n + 1 entries long
                yield from walk(a, joined, p * v, num * v + p, lcm(d, v))
            else:
                yield leaf(a, joined, p * v, num * v + p, lcm(d, v))

    _outer_residues.cache_clear()
    _window_memo.cache_clear()
    yield from walk((), (), 1, 0, 1)


def _link_report(
    original: tuple,
    a: tuple,
    sphere: SphereClassification,
    stability: StabilityReport,
    signature: Optional[SignatureResult],
) -> LinkReport:
    """The LinkReport of a, with its bP class for a homotopy sphere."""
    n = len(a) - 1
    diffeo: Optional[object] = None
    if sphere.is_homotopy_sphere:
        if n % 2 == 0:
            diffeo = diffeo_class_even(n, signature.tau)
        else:
            diffeo = _odd_diffeo_class(sphere)
    return LinkReport(
        input_vector=original,
        vector=a,
        n=n,
        link_dimension=2 * n - 1,
        sphere=sphere,
        stability=stability,
        signature=signature,
        diffeo=diffeo,
    )


# every integer below 2**2126 has at most 640 decimal digits, the least
# limit on integer string conversion the interpreter accepts
_ALWAYS_PRINTABLE_BITS = 2126


def _check_printable(r: LinkReport) -> None:
    """Refuse a record holding an integer longer than the interpreter's
    limit on integer string conversion (sys.get_int_max_str_digits).

    (n + 1) * d bounds d, the weights, the index and sum_recip's terms, and
    plus + minus + boundary bounds the signature's counts, so a record
    whose bound stays under 640 digits costs one comparison; past it the
    printed integers themselves are measured."""
    stab, sig = r.stability, r.signature
    bound = stab.d * len(r.vector)
    if sig is not None:
        bound += sig.plus_count + sig.minus_count + sig.boundary_skipped
    if bound.bit_length() <= _ALWAYS_PRINTABLE_BITS:
        return
    limit = sys.get_int_max_str_digits()
    if not limit:  # 0: no limit
        return
    ints = [stab.d, abs(stab.index_invariant), stab.sum_recip.numerator]
    if sig is not None:
        ints += [sig.plus_count, sig.minus_count, sig.boundary_skipped]
    check_budget(
        "the JSON record",
        Decimal(max(ints)).adjusted() + 1,
        "decimal digits in one integer",
        limit,
        "the budget is the interpreter's limit on integer string conversion "
        "(PYTHONINTMAXSTRDIGITS)",
    )


def report_to_dict(r: LinkReport) -> dict:
    _check_printable(r)
    g = r.sphere.graph
    out = {
        "vector": list(r.vector),
        "input_vector": list(r.input_vector),
        "n": r.n,
        "link_dimension": r.link_dimension,
        "homotopy_sphere": r.sphere.is_homotopy_sphere,
        "condition": r.sphere.condition,
        "reason": r.sphere.reason,
        "graph": {
            "components": [list(c) for c in g.component_values()],
            "isolated": list(g.isolated_values()),
            "ev_component": [g.vertices[i] for i in g.ev_component],
        },
        "stability": {
            "sum_recip": to_jsonable(r.stability.sum_recip),
            "log_fano": r.stability.log_fano,
            "k_semistable": r.stability.k_semistable,
            "k_polystable": r.stability.k_polystable,
            "boundary_semistable": r.stability.boundary_semistable,
            "d": str(r.stability.d),
            "weights": [str(w) for w in r.stability.weights],
            "index_invariant": str(r.stability.index_invariant),
            "contact": r.stability.contact,
        },
        "se_metric": r.stability.se_metric_exists,
    }
    if r.signature is not None:
        out["tau"] = r.signature.tau
        out["tau_plus"] = r.signature.plus_count
        out["tau_minus"] = r.signature.minus_count
        out["boundary_skipped"] = r.signature.boundary_skipped
        out["tau_method"] = r.signature.method
    if isinstance(r.diffeo, EvenDiffeoClass):
        out["class"] = f"{r.diffeo.class_mod_bp} mod {r.diffeo.bp.order}"
        out["standard_sphere"] = r.diffeo.is_standard
    elif isinstance(r.diffeo, OddDiffeoClass):
        out["arf"] = r.diffeo.arf
        out["bp_group"] = r.diffeo.group
        out["kervaire_sphere"] = r.diffeo.arf == 1
    return out
