"""Full link classification: one record combining topology, stability, and
(for even n) the signature and bP class.

classify_link classifies one vector from scratch.  scan_links yields the
same records for every sorted vector of a scan, in the order
combinations_with_replacement gives, by a depth-first walk over the
non-decreasing prefixes: each prefix carries its gcd components, the
product P of its entries, N = sum P/a_i and their lcm, so each vector costs
one step on its parent's state instead of a validation, a graph search and
three reductions.  Both build every record in one leaf, _link_report,
from the gcd components, P, N, lcm and signature: classify_link validates
its vector once (tau_kernel, at even n, once more) and takes them from
build_gcd_graph's fold, prod, sum and lcm; the walk passes its carried
state and reads known signatures from a mapping (the scan cache's
entries).  classify_link is the walk's oracle in the tests.

The leaf hands _graph_from_components the (members, lcm) pairs as they
are, and it builds the GcdGraph in one loop over them.  A component holds
an even entry iff its lcm is even, so the ev-component is found from one
parity test per component, with no pass over the entries; two components
with even lcms are an InvariantViolation.

The four records built once per scanned vector (LinkReport, GcdGraph,
SphereClassification, StabilityReport) are slotted, not frozen, dataclasses:
a frozen __init__ pays an object.__setattr__ per field.  They compare by
value but are unhashable, so none is used as a dict key or a set member.
The leaf and the kernels it calls build every record positionally, in
field order: a dataclass __init__ matches each keyword at about 40 ns on
CPython 3.11, so StabilityReport's 11 keywords took 0.65 us against
0.25 us positionally.

report_to_json is the printed form of a record: it formats the JSON line
as one f-string, in report_to_dict's key order, with no dict built and no
general encoder pass, which halves the cost of a scanned record's text.
report_to_dict stays the dict API and, run through cli._encode, the
byte-for-byte oracle of report_to_json.

A record holding an integer past the interpreter's limit on integer string
conversion is refused where its text is built, with no bound computed
beforehand: a ValueError raised while report_to_json formats is handed to
_check_digits, which refuses the record or lets the error go on.
report_to_dict builds no text, so it calls _check_digits itself.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields, is_dataclass
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from math import lcm, prod
from typing import Iterator, Mapping, Optional, Sequence

from .arith import to_jsonable
from .errors import check_budget
from .lattice import SignatureResult, _outer_residues, _window_memo, tau_kernel
from .stability import StabilityReport, _stability_report
from .topology import (
    EvenDiffeoClass,
    OddDiffeoClass,
    SphereClassification,
    _gcd_components,
    _graph_from_components,
    _integers,
    _join_vertex,
    _odd_diffeo_class,
    _sphere_from_graph,
    diffeo_class_even,
    exponent_vector,
)

__all__ = ["LinkReport", "classify_link", "scan_links", "report_to_dict", "report_to_json"]


@dataclass(slots=True)
class LinkReport:
    input_vector: tuple
    vector: tuple  # sorted
    n: int
    link_dimension: int
    sphere: SphereClassification
    stability: StabilityReport
    signature: Optional[SignatureResult]
    diffeo: Optional[object]  # EvenDiffeoClass | OddDiffeoClass


def classify_link(values: Sequence[int]) -> LinkReport:
    original = _integers(values)
    a = exponent_vector(original)
    comps = _gcd_components(a)
    signature = tau_kernel(a) if len(a) % 2 == 1 else None  # n = len(a) - 1 is even
    p = prod(a)
    return _link_report(original, a, comps, p, sum(p // ai for ai in a), lcm(*a), signature)


def scan_links(
    n: int, amax: int, known: Mapping[tuple, SignatureResult] = {}
) -> Iterator[LinkReport]:
    """classify_link of every sorted vector of n + 1 entries in 2..amax, in
    the order combinations_with_replacement gives.

    n is checked once; every vector is sorted with entries >= 2 by
    construction.  For even n the signature of a is known[a] when a is a
    key of known, else tau_kernel(a); known is only read, so a caller may
    add to it while it iterates.  The walk visits every (A, B) under one
    a[:-2] in a row, so the residue DP's one-entry outer memo builds one
    outer list per prefix, and its window memo is shared across the scan.
    Both memos are emptied when the walk starts, so every scan starts cold.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    top = amax + 1

    def walk(prefix, comps, p, num, d):
        i = len(prefix)
        for v in range(prefix[-1] if prefix else 2, top):
            a = prefix + (v,)
            joined = _join_vertex(comps, i, v)
            if i < n:  # a is not yet n + 1 entries long
                yield from walk(a, joined, p * v, num * v + p, lcm(d, v))
            else:  # a SignatureResult is never falsy: `or` computes on a miss only
                signature = (known.get(a) or tau_kernel(a)) if n % 2 == 0 else None
                yield _link_report(a, a, joined, p * v, num * v + p, lcm(d, v), signature)

    _outer_residues.cache_clear()
    _window_memo.cache_clear()
    yield from walk((), (), 1, 0, 1)


def _link_report(
    original: tuple, a: tuple, comps, p: int, num: int, d: int, signature: Optional[SignatureResult]
) -> LinkReport:
    """The LinkReport of the sorted, validated vector a, given its gcd
    components comps ((members, lcm) pairs in least-index order),
    p = prod a_i, num = sum p/a_i, d = lcm a_i and, for even n, its
    signature; a homotopy sphere gets its bP class."""
    n = len(a) - 1
    sphere = _sphere_from_graph(_graph_from_components(a, comps))
    diffeo: Optional[object] = None
    if sphere.is_homotopy_sphere:
        if n % 2 == 0:
            diffeo = diffeo_class_even(n, signature.tau)
        else:
            diffeo = _odd_diffeo_class(sphere)
    stability = _stability_report(a, n, p, num, d)
    return LinkReport(original, a, n, 2 * n - 1, sphere, stability, signature, diffeo)


def _check_digits(record) -> None:
    """Refuse a record when the longest integer in it has more decimal
    digits than the interpreter's limit on integer string conversion.  It
    walks the whole record, so report_to_json and cli._emit call it only
    when turning the record into text has raised a ValueError, and re-raise
    that error when it does not refuse; report_to_dict, which builds no
    text, calls it on every record."""
    limit = sys.get_int_max_str_digits()
    if not limit:  # 0: no limit
        return
    check_budget(
        "the JSON record",
        Decimal(max(_ints(record), default=0)).adjusted() + 1,
        "decimal digits in one integer",
        limit,
        "the budget is the interpreter's limit on integer string conversion "
        "(PYTHONINTMAXSTRDIGITS)",
    )


def _ints(x) -> Iterator[int]:
    """The absolute values of the integers in x, through its dataclasses,
    dicts, lists, tuples and Fractions."""
    if is_dataclass(x):
        x = [getattr(x, f.name) for f in fields(x)]
    elif isinstance(x, dict):
        x = list(x.values())
    elif isinstance(x, Fraction):
        x = [x.numerator, x.denominator]
    if isinstance(x, int):
        yield abs(x)
    elif isinstance(x, (list, tuple)):
        for v in x:
            yield from _ints(v)


def report_to_dict(r: LinkReport) -> dict:
    """The record as a dict of JSON values, in the printed key order: the
    oracle of report_to_json, which prints it."""
    _check_digits(r)
    sphere, stab = r.sphere, r.stability
    g = sphere.graph
    v = g.vertices
    out = {
        "vector": list(r.vector),
        "input_vector": list(r.input_vector),
        "n": r.n,
        "link_dimension": r.link_dimension,
        "homotopy_sphere": sphere.is_homotopy_sphere,
        "condition": sphere.condition,
        "reason": sphere.reason,
        "graph": {
            "components": [[v[i] for i in c] for c in g.components],
            "isolated": [v[i] for i in g.isolated],
            "ev_component": [v[i] for i in g.ev_component],
        },
        "stability": {
            "sum_recip": to_jsonable(stab.sum_recip),
            "log_fano": stab.log_fano,
            "k_semistable": stab.k_semistable,
            "k_polystable": stab.k_polystable,
            "boundary_semistable": stab.boundary_semistable,
            "d": str(stab.d),
            "weights": [str(w) for w in stab.weights],
            "index_invariant": str(stab.index_invariant),
            "contact": stab.contact,
        },
        "se_metric": stab.se_metric_exists,
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


_JSON_BOOL = ("false", "true")


def report_to_json(r: LinkReport) -> str:
    """The JSON line of report_to_dict(r), byte for byte as cli._encode
    prints it (", " and ": " separators, ensure_ascii), formatted directly:
    no dict is built and no general encoder walks one.  Strings of the
    record go through json's own ensure_ascii string encoder; the integers
    that report_to_dict turns into decimal strings are quoted as they are."""
    sphere, stab, sig, diffeo = r.sphere, r.stability, r.signature, r.diffeo
    g = sphere.graph
    try:
        text = list(map(str, r.vector))
        vector = f"[{', '.join(text)}]"
        if r.input_vector != r.vector:
            input_vector = f"[{', '.join(map(str, r.input_vector))}]"
        else:
            input_vector = vector
        at = text.__getitem__  # the graph's vertices are the vector, as _link_report builds it
        components = ", ".join([f"[{', '.join(map(at, c))}]" for c in g.components])
        weights = '", "'.join(map(str, stab.weights))  # never empty: n >= 3
        condition = "null" if sphere.condition is None else _json_str(sphere.condition)
        out = (
            f'{{"vector": {vector}, "input_vector": {input_vector}, "n": {r.n}, '
            f'"link_dimension": {r.link_dimension}, '
            f'"homotopy_sphere": {_JSON_BOOL[sphere.is_homotopy_sphere]}, '
            f'"condition": {condition}, "reason": {_json_str(sphere.reason)}, '
            f'"graph": {{"components": [{components}], '
            f'"isolated": [{", ".join(map(at, g.isolated))}], '
            f'"ev_component": [{", ".join(map(at, g.ev_component))}]}}, '
            f'"stability": {{"sum_recip": {_json_str(to_jsonable(stab.sum_recip))}, '
            f'"log_fano": {_JSON_BOOL[stab.log_fano]}, '
            f'"k_semistable": {_JSON_BOOL[stab.k_semistable]}, '
            f'"k_polystable": {_JSON_BOOL[stab.k_polystable]}, '
            f'"boundary_semistable": {_JSON_BOOL[stab.boundary_semistable]}, '
            f'"d": "{stab.d}", "weights": ["{weights}"], '
            f'"index_invariant": "{stab.index_invariant}", '
            f'"contact": {_json_str(stab.contact)}}}, '
            f'"se_metric": {_JSON_BOOL[stab.se_metric_exists]}'
        )
        if sig is not None:
            out += (
                f', "tau": {sig.tau}, "tau_plus": {sig.plus_count}, '
                f'"tau_minus": {sig.minus_count}, "boundary_skipped": {sig.boundary_skipped}, '
                f'"tau_method": {_json_str(sig.method)}'
            )
        if isinstance(diffeo, EvenDiffeoClass):
            out += (
                f', "class": "{diffeo.class_mod_bp} mod {diffeo.bp.order}", '
                f'"standard_sphere": {_JSON_BOOL[diffeo.is_standard]}'
            )
        elif isinstance(diffeo, OddDiffeoClass):
            out += (
                f', "arf": {diffeo.arf}, "bp_group": {_json_str(diffeo.group)}, '
                f'"kervaire_sphere": {_JSON_BOOL[diffeo.arf == 1]}'
            )
        return out + "}"
    except ValueError:  # an integer past the interpreter's limit, or a fault
        _check_digits(r)
        raise
