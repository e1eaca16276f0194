"""Full link classification: one record combining topology, stability, and
(for even n) the signature and bP class.

classify_link classifies one vector from scratch.  scan_links yields the
same records for every sorted vector of a scan, in the order
combinations_with_replacement gives, by a depth-first walk, _walk, over the
non-decreasing prefixes: each prefix carries its gcd components, the
product P of its entries, N = sum P/a_i and their lcm, so each vector costs
one step on its parent's state instead of a validation, a graph search and
three reductions.  It carries text as well: the prefix's entries joined by
", ", and with each component (topology._join_vertex) its values' text.

Each decision is one value function over plain values, in the module that
owns its rule: topology._split_components (isolated points, the
ev-component and the even-split InvariantViolation), topology._brieskorn
(Brieskorn's criterion and its reason), stability._stability_values (the
inequality form, cross-checked against the index form), topology._arf and
topology._class_mod_bp (the bP class).  Two leaves call them on the walk's
state.  _link_report builds the record (LinkReport, GcdGraph,
SphereClassification, StabilityReport); classify_link validates its vector
once (tau_kernel, at even n, once more) and hands it build_gcd_graph's
fold, prod, sum and lcm, and scan_links hands it the walk's state with
known signatures read from a mapping (the scan cache's entries).
_scan_line builds the printed line of a vector from the same state with no
record built, for the CLI's scan; classify_link is the walk's oracle in
the tests, and report_to_json(classify_link(v)) the line's.

The four records that _link_report builds (LinkReport, GcdGraph,
SphereClassification, StabilityReport) are slotted, not frozen,
dataclasses: a frozen __init__ pays an object.__setattr__ per field.  They
compare by value but are unhashable, so none is used as a dict key or a set
member.  The leaf and the kernels it calls build every record positionally,
in field order: a dataclass __init__ matches each keyword at about 40 ns on
CPython 3.11, so StabilityReport's 11 keywords took 0.65 us against 0.25 us
positionally.

_format writes the JSON line as one f-string over plain values, in
report_to_dict's key order, with no dict built and no general encoder
pass.  It has two callers: report_to_json, with a record's fields, and
_scan_line, with the walk's values and carried text.  report_to_dict stays
the dict API and, run through cli._encode, the byte-for-byte oracle of
report_to_json.

A line holding an integer past the interpreter's limit on integer string
conversion is refused where its text is built, with no bound computed
beforehand: a ValueError raised while report_to_json or _scan_line formats
is handed to _check_digits over the record or the values, which refuses or
lets the error go on.  report_to_dict builds no text, so it calls
_check_digits itself.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields, is_dataclass
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from math import gcd, lcm, prod
from typing import Iterator, Mapping, Optional, Sequence

from .arith import _ratio, to_jsonable
from .errors import check_budget
from .lattice import SignatureResult, _outer_residues, _window_memo, tau_kernel
from .stability import StabilityReport, _contact, _stability_report, _stability_values
from .topology import (
    EvenDiffeoClass,
    OddDiffeoClass,
    SphereClassification,
    _arf,
    _bp_group,
    _brieskorn,
    _class_mod_bp,
    _gcd_components,
    _graph_from_components,
    _integers,
    _join_vertex,
    _odd_diffeo_class,
    _sphere_from_graph,
    _split_components,
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
    for a, _, comps, p, num, d, signature in _walk(n, amax, known):
        yield _link_report(a, a, comps, p, num, d, signature)


def _walk(n: int, amax: int, known: Mapping[tuple, SignatureResult]) -> Iterator[tuple]:
    """The walk of scan_links(n, amax, known): for each vector a, the state
    its record is built from, (a, text, comps, p, num, d, signature), where
    text is a's entries joined by ", ", comps its components as
    _join_vertex carries them, p = prod a_i, num = sum p/a_i and d = lcm a_i.
    Each prefix carries all of these, so each vector costs one step on its
    parent's state."""
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    top = amax + 1

    def walk(prefix, text, comps, p, num, d):
        i = len(prefix)
        for v in range(prefix[-1] if prefix else 2, top):
            a = prefix + (v,)
            entry = str(v)
            joined = _join_vertex(comps, a, i, entry)
            if i < n:  # a is not yet n + 1 entries long
                yield from walk(a, f"{text}{entry}, ", joined, p * v, num * v + p, lcm(d, v))
            else:  # a SignatureResult is never falsy: `or` computes on a miss only
                signature = (known.get(a) or tau_kernel(a)) if n % 2 == 0 else None
                yield a, text + entry, joined, p * v, num * v + p, lcm(d, v), signature

    _outer_residues.cache_clear()
    _window_memo.cache_clear()
    yield from walk((), "", (), 1, 0, 1)


def _link_report(
    original: tuple, a: tuple, comps, p: int, num: int, d: int, signature: Optional[SignatureResult]
) -> LinkReport:
    """The LinkReport of the sorted, validated vector a, given its gcd
    components comps (as _join_vertex carries them, in least-index order),
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


def _scan_line(
    a: tuple, text: str, comps, p: int, num: int, d: int, signature, filt: str
) -> Optional[str]:
    """report_to_json(_link_report(a, a, comps, p, num, d, signature)) + "\n"
    for a vector _walk yields with its text, built from the same values and
    decisions with no record built, or None when filt ("all", "sphere" or
    "se-sphere") drops the vector.  Every check runs on every vector, kept
    or not, as it does when its record is built."""
    n = len(a) - 1
    isolated, ev = _split_components(a, comps)
    members = ev[0] if ev else ()
    is_sphere, condition, reason = _brieskorn(a, isolated, members)
    class_mod_bp = order = arf = group = None
    if is_sphere:
        if n % 2 == 0:
            class_mod_bp, bp = _class_mod_bp(n, signature.tau)
            order = bp.order
        else:
            arf, group = _arf(a, condition, isolated, members), _bp_group(2 * n - 1)
    log_fano, semi, poly, boundary, weights, index = _stability_values(a, n, p, num, d)
    if filt == "sphere" and not is_sphere or filt == "se-sphere" and not (is_sphere and poly):
        return None
    g = gcd(num, p)
    num, den = num // g, p // g  # sum 1/a_i in lowest terms
    try:
        return _format(
            text, text, n, 2 * n - 1, is_sphere, condition, reason,
            "], [".join([c[2] for c in comps]),
            ", ".join([str(a[i]) for i in isolated]),
            ev[2] if ev else "",
            _ratio(num, den), log_fano, semi, poly, boundary, d,
            '", "'.join(map(str, weights)), index, _contact(n, index), poly,
            signature, class_mod_bp, order, arf, group,
        ) + "\n"
    except ValueError:  # an integer past the interpreter's limit, or a fault
        _check_digits((a, num, den, d, weights, index, signature, order))
        raise


def _check_digits(record) -> None:
    """Refuse a record when the longest integer in it has more decimal
    digits than the interpreter's limit on integer string conversion.  It
    walks the whole record, so report_to_json, _scan_line (on the values it
    formats) and cli._emit call it only when turning the record into text
    has raised a ValueError, and re-raise that error when it does not
    refuse; report_to_dict, which builds no text, calls it on every record."""
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
    prints it (", " and ": " separators, ensure_ascii): _format over r's
    fields, with no dict built and no general encoder pass."""
    sphere, stab, diffeo = r.sphere, r.stability, r.diffeo
    g = sphere.graph
    class_mod_bp = order = arf = group = None
    if isinstance(diffeo, EvenDiffeoClass):
        class_mod_bp, order = diffeo.class_mod_bp, diffeo.bp.order
    elif isinstance(diffeo, OddDiffeoClass):
        arf, group = diffeo.arf, diffeo.group
    try:
        text = list(map(str, r.vector))
        vector = ", ".join(text)
        if r.input_vector != r.vector:
            input_vector = ", ".join(map(str, r.input_vector))
        else:
            input_vector = vector
        at = text.__getitem__  # the graph's vertices are the vector, as _link_report builds it
        return _format(
            vector, input_vector, r.n, r.link_dimension, sphere.is_homotopy_sphere,
            sphere.condition, sphere.reason,
            "], [".join([", ".join(map(at, c)) for c in g.components]),
            ", ".join(map(at, g.isolated)),
            ", ".join(map(at, g.ev_component)),
            to_jsonable(stab.sum_recip), stab.log_fano, stab.k_semistable,
            stab.k_polystable, stab.boundary_semistable, stab.d,
            '", "'.join(map(str, stab.weights)),
            stab.index_invariant, stab.contact, stab.se_metric_exists,
            r.signature, class_mod_bp, order, arf, group,
        )
    except ValueError:  # an integer past the interpreter's limit, or a fault
        _check_digits(r)
        raise


def _format(
    vector, input_vector, n, link_dimension, is_sphere, condition, reason, components, isolated,
    ev, sum_recip, log_fano, semi, poly, boundary, d, weights, index, contact, se_metric,
    signature, class_mod_bp, order, arf, group,
) -> str:
    """The JSON line of one record from its plain values, in report_to_dict's
    key order, as one f-string.  vector, input_vector, isolated, ev and
    weights are the texts of their entries joined by ", " (weights by
    '", "'), components the texts of the components joined by "], [", and
    sum_recip the "num/den" text of sum 1/a_i.  class_mod_bp and order
    (|bP_4m|) are given for a homotopy sphere of even n, arf and group for
    one of odd n, and are None otherwise.  Strings of the record go through
    json's own ensure_ascii string encoder; the integers that report_to_dict
    turns into decimal strings are quoted as they are."""
    out = (
        f'{{"vector": [{vector}], "input_vector": [{input_vector}], "n": {n}, '
        f'"link_dimension": {link_dimension}, '
        f'"homotopy_sphere": {_JSON_BOOL[is_sphere]}, '
        f'"condition": {"null" if condition is None else _json_str(condition)}, '
        f'"reason": {_json_str(reason)}, '
        f'"graph": {{"components": [[{components}]], "isolated": [{isolated}], '
        f'"ev_component": [{ev}]}}, '
        f'"stability": {{"sum_recip": "{sum_recip}", '
        f'"log_fano": {_JSON_BOOL[log_fano]}, "k_semistable": {_JSON_BOOL[semi]}, '
        f'"k_polystable": {_JSON_BOOL[poly]}, '
        f'"boundary_semistable": {_JSON_BOOL[boundary]}, '
        f'"d": "{d}", "weights": ["{weights}"], "index_invariant": "{index}", '
        f'"contact": {_json_str(contact)}}}, '
        f'"se_metric": {_JSON_BOOL[se_metric]}'
    )
    if signature is not None:
        out += (
            f', "tau": {signature.tau}, "tau_plus": {signature.plus_count}, '
            f'"tau_minus": {signature.minus_count}, '
            f'"boundary_skipped": {signature.boundary_skipped}, '
            f'"tau_method": {_json_str(signature.method)}'
        )
    if class_mod_bp is not None:
        out += (
            f', "class": "{class_mod_bp} mod {order}", '
            f'"standard_sphere": {_JSON_BOOL[class_mod_bp == 0]}'
        )
    elif arf is not None:
        out += (
            f', "arf": {arf}, "bp_group": {_json_str(group)}, '
            f'"kervaire_sphere": {_JSON_BOOL[arf == 1]}'
        )
    return out + "}"
