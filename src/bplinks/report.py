"""Full link classification: one record combining topology, stability, and
(for even n) the signature and bP class."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .arith import to_jsonable
from .lattice import SignatureResult, tau_brute, tau_kernel
from .stability import StabilityReport, k_stability
from .topology import (
    EvenDiffeoClass,
    OddDiffeoClass,
    SphereClassification,
    _integers,
    _odd_diffeo_class,
    classify_sphere,
    diffeo_class_even,
    exponent_vector,
)

__all__ = ["LinkReport", "classify_link", "report_to_dict"]


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
    precomputed_tau: Optional[SignatureResult] = None,
) -> LinkReport:
    original = _integers(values)
    a = exponent_vector(original)
    n = len(a) - 1
    sphere = classify_sphere(a)
    stability = k_stability(a)

    signature = None
    diffeo: Optional[object] = None
    if n % 2 == 0:
        if precomputed_tau is not None:
            signature = precomputed_tau
        else:
            engine = tau_brute if tau_method == "brute" else tau_kernel
            signature = engine(a, budget=budget)
        if sphere.is_homotopy_sphere:
            diffeo = diffeo_class_even(n, signature.tau)
    elif sphere.is_homotopy_sphere:
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


def report_to_dict(r: LinkReport) -> dict:
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
