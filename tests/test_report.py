import ast
import io
import json
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from test_topology import oracle_arf, oracle_condition, oracle_gcd_graph

import bplinks
from bplinks import lattice, report, stability, topology
from bplinks.arith import BPOrder
from bplinks.cli import _encode, main
from bplinks.errors import RefusalError
from bplinks.families import FamilySpec
from bplinks.lattice import SignatureResult, tau_brute
from bplinks.report import classify_link, report_to_dict, scan_links
from bplinks.stability import (
    CONTACT_INCONCLUSIVE,
    CONTACT_INDIVISIBLE,
    CONTACT_ODD_DIM,
    StabilityReport,
    fujita_subset_oracle,
)
from bplinks.topology import (
    COND1,
    COND2,
    EvenDiffeoClass,
    GcdGraph,
    OddDiffeoClass,
    arf_class,
    classify_sphere,
)


@settings(deadline=None)
@given(st.lists(st.integers(2, 30), min_size=4, max_size=8))
def test_classify_link_agrees_with_topology_layers(values):
    rep = classify_link(values)
    assert rep.input_vector == tuple(values)
    assert rep.sphere == classify_sphere(values)
    if rep.n % 2 == 1 and rep.sphere.is_homotopy_sphere:
        assert rep.diffeo == arf_class(values)


def test_classify_link_rejects_non_integral_entries():
    with pytest.raises(ValueError, match="integers"):
        classify_link([2.9, 3, 5, 7])


@pytest.mark.parametrize("n, amax", [(3, 12), (4, 9), (5, 8), (6, 7)])
def test_scan_links_matches_classify_link_record_by_record(n, amax):
    vectors = list(combinations_with_replacement(range(2, amax + 1), n + 1))
    reports = list(scan_links(n, amax))
    assert [r.vector for r in reports] == vectors
    for v, rep in zip(vectors, reports):
        assert report_to_dict(rep) == report_to_dict(classify_link(v)), v


# |bP_8| and |bP_12|, and the link dimensions 4m + 1 whose bP_{4m+2} is trivial
_BP_ORDERS = {4: 28, 6: 992}
_TRIVIAL_DIMS = (5, 13, 29, 61, 125)


def _contact_rule(n, index):
    if n % 2 == 1:
        return CONTACT_ODD_DIM
    return CONTACT_INDIVISIBLE if index % (n // 2) else CONTACT_INCONCLUSIVE


@pytest.mark.parametrize("n, amax", [(3, 12), (4, 8), (5, 9), (6, 6)])
def test_every_scanned_field_matches_its_definition(n, amax):
    # the leaf builds its records positionally; the oracle builds each one by
    # keyword from the field's definition, so a swapped argument disagrees
    boundary = 0
    for rep in scan_links(n, amax):
        a = rep.vector
        sum_recip = sum(Fraction(1, ai) for ai in a)
        d = lcm(*a)
        weights = tuple(d // ai for ai in a)
        index = sum(weights) - d
        fujita = fujita_subset_oracle(a)
        poly, semi = fujita["polystable"], fujita["semistable"]
        vertices, components, isolated, ev = oracle_gcd_graph(a)
        condition = oracle_condition(a)
        signature = diffeo = None
        if n % 2 == 0:
            signature = replace(tau_brute(a), method="kernel")
            if condition:
                tau = signature.tau
                bp = BPOrder(m=n // 2, order=_BP_ORDERS[n])
                diffeo = EvenDiffeoClass(tau=tau, class_mod_bp=tau // 8 % bp.order, bp=bp)
        elif condition:
            group = "trivial" if 2 * n - 1 in _TRIVIAL_DIMS else "order2"
            diffeo = OddDiffeoClass(arf=oracle_arf(rep.sphere), group=group, dimension=2 * n - 1)
        assert rep.stability == StabilityReport(
            vector=a,
            sum_recip=sum_recip,
            log_fano=sum_recip > 1,
            k_semistable=semi,
            k_polystable=poly,
            se_metric_exists=poly,
            boundary_semistable=semi and not poly,
            d=d,
            weights=weights,
            index_invariant=index,
            contact=_contact_rule(n, index),
        ), a
        sphere = rep.sphere
        assert sphere.graph == GcdGraph(
            vertices=vertices, components=components, isolated=isolated, ev_component=ev
        ), a
        assert (sphere.is_homotopy_sphere, sphere.condition) == (bool(condition), condition)
        assert (rep.input_vector, rep.vector, rep.n, rep.link_dimension) == (a, a, n, 2 * n - 1)
        assert (rep.signature, rep.diffeo) == (signature, diffeo), a
        boundary += rep.stability.boundary_semistable
    assert boundary > 0  # so k_semistable and k_polystable differ somewhere


def test_scan_links_takes_cached_signatures_and_computes_the_rest():
    given_sig = classify_link((2, 2, 2, 3, 7)).signature
    reports = {r.vector: r for r in scan_links(4, 5, {(2, 2, 2, 3, 5): given_sig})}
    assert list(reports) == list(combinations_with_replacement(range(2, 6), 5))
    assert reports[(2, 2, 2, 3, 5)].signature is given_sig
    assert reports[(2, 2, 2, 3, 4)] == classify_link((2, 2, 2, 3, 4))


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_scan_links_computes_only_the_signatures_it_is_not_given(data):
    n, amax = data.draw(st.sampled_from([(4, 6), (6, 4)]))
    cold = list(scan_links(n, amax))
    vectors = [r.vector for r in cold]
    given_vectors = data.draw(st.sets(st.sampled_from(vectors)))
    known = {r.vector: r.signature for r in cold if r.vector in given_vectors}
    asked = []

    def counting(a):
        asked.append(a)
        return tau_kernel(a)

    tau_kernel = lattice.tau_kernel
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "tau_kernel", counting)
        warm = list(scan_links(n, amax, known))
    assert warm == cold
    assert asked == [v for v in vectors if v not in known]
    assert all(r.signature is known[r.vector] for r in warm if r.vector in known)


def test_classify_link_validates_its_vector_once(monkeypatch):
    # classify_link validates once; tau_kernel, at even n, once more
    calls = []

    def counting(values):
        calls.append(tuple(values))
        return exponent_vector(values)

    exponent_vector = topology.exponent_vector
    for module in (report, lattice, topology, stability):
        monkeypatch.setattr(module, "exponent_vector", counting)
    for a, expected in [((2, 3, 5, 7, 11), 2), ((2, 3, 5, 7, 11, 13), 1)]:
        calls.clear()
        classify_link(a)
        assert len(calls) == expected, a


def test_scan_links_checks_n_once():
    for n in (2, 0, -1):
        with pytest.raises(ValueError, match="n >= 3"):
            next(scan_links(n, 5))
    assert list(scan_links(3, 1)) == []


def _counting_window_calls(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return window_counts(*args)

    window_counts = lattice._window_counts
    monkeypatch.setattr(lattice, "_window_counts", counting)
    return calls


def test_scan_shares_window_counts_and_leaves_no_table(monkeypatch):
    # n = 4, amax = 9: 774 residue-DP vectors over 120 outer lists, whose
    # window loop steps 7 453 times; every scan starts with both memos cold
    calls = _counting_window_calls(monkeypatch)
    signatures = []
    for _ in range(2):  # a second scan in one process counts the same
        calls.clear()
        signatures.append([r.signature for r in scan_links(4, 9)])
        assert len(calls) == lattice._window_memo.cache_info().misses == 2013
        assert lattice._outer_residues.cache_info().misses == 120
    assert signatures[0] == signatures[1]



def test_a_record_prints_up_to_the_interpreter_limit_and_refuses_past_it():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter has no limit on integer string conversion")
    rep = classify_link((2, 3, 5, 7, 11))
    longest = replace(rep, stability=replace(rep.stability, d=10**limit - 1))
    too_long = replace(rep, stability=replace(rep.stability, d=10**limit))
    signature = replace(rep.signature, plus_count=10**limit)
    assert len(report_to_dict(longest)["stability"]["d"]) == limit
    with pytest.raises(RefusalError, match="decimal digits in one integer") as err:
        report_to_dict(too_long)
    assert (err.value.estimate, err.value.budget) == (limit + 1, limit)
    with pytest.raises(RefusalError):
        report_to_dict(replace(rep, signature=signature))
    # the printed line of a scan, built by the leaf from the walk's values
    *state, sig = next(report._walk(4, 2, {}))
    count = 10**limit - 1
    line = report._line(*state, replace(sig, plus_count=count), "all")
    assert json.loads(line)["tau_plus"] == count
    with pytest.raises(RefusalError, match="decimal digits in one integer") as err:
        report._line(*state, replace(sig, plus_count=count + 1), "all")
    assert (err.value.estimate, err.value.budget) == (limit + 1, limit)


# the leaf report._line formats the printed line itself; report_to_dict run
# through cli._encode, the encoder of every other command, is its oracle
@pytest.mark.parametrize("n, amax", [(3, 12), (4, 8), (5, 9), (6, 7), (7, 6)])
def test_report_to_json_is_the_encoded_dict_on_every_scanned_record(n, amax):
    for state, rep in zip(report._walk(n, amax, {}), scan_links(n, amax), strict=True):
        line = report._line(*state, "all")
        assert line == _encode(report_to_dict(rep)) + "\n", rep.vector


def _entries(n):
    if n % 2 == 1:  # no signature: any entries, small ones to share primes
        return st.lists(
            st.one_of(st.integers(2, 40), st.integers(2, 10**12)), min_size=n + 1, max_size=n + 1
        )
    # the signature's DP work grows with the n - 1 smallest entries only
    return st.tuples(
        st.lists(st.integers(2, 9), min_size=n - 1, max_size=n - 1),
        st.lists(st.integers(2, 10**12), min_size=2, max_size=2),
    ).map(lambda parts: parts[0] + parts[1])


def test_report_to_json_is_the_encoded_dict_on_shuffled_vectors():
    seen = set()

    # classify's stdout against json.dumps of the record, inputs out of order
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(3, 8).flatmap(_entries).flatmap(st.permutations))
    def check(values):
        rep = classify_link(values)
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["classify", *map(str, values)]) == 0
        assert out.getvalue() == json.dumps(report_to_dict(rep)) + "\n"
        seen.update([rep.sphere.condition, type(rep.diffeo), rep.input_vector != rep.vector])

    check()
    # every condition and both diffeo branches (tau, class and standard_sphere
    # at even n, arf at odd n), and inputs out of order
    assert seen == {COND1, COND2, None, EvenDiffeoClass, OddDiffeoClass, type(None), True, False}


# the four records built once per scanned vector are slotted, not frozen
SLOTTED = ("LinkReport", "GcdGraph", "SphereClassification", "StabilityReport")


def test_per_vector_records_are_slotted_and_the_others_stay_frozen():
    rep = classify_link((2, 2, 2, 3, 5))
    sig = classify_link((2, 2, 2, 3, 7)).signature
    assert replace(rep, signature=sig).signature is sig
    assert replace(rep, signature=sig) != rep and replace(rep) == rep
    for record in (rep, rep.sphere, rep.sphere.graph, rep.stability):
        assert type(record).__name__ in SLOTTED and hasattr(type(record), "__slots__")
        with pytest.raises(AttributeError):
            record.no_such_field = 1
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    for cls in (SignatureResult, OddDiffeoClass, EvenDiffeoClass, BPOrder, FamilySpec):
        assert cls.__dataclass_params__.frozen, cls


# the functions that build a record once per scanned vector or kernel call,
# and the record class each builds
HOT_CONSTRUCTORS = {
    "_link_report": "LinkReport",
    "_stability_report": "StabilityReport",
    "_graph_from_components": "GcdGraph",
    "tau_kernel": "SignatureResult",
    "_tau_residue_dp": "SignatureResult",
    "_odd_diffeo_class": "OddDiffeoClass",
    "diffeo_class_even": "EvenDiffeoClass",
    "bp_order": "BPOrder",
}


def _record_calls(tree):
    """(function, passes keywords) for every call of a record class inside
    the function of HOT_CONSTRUCTORS that builds it."""
    return [
        (fn.name, bool(call.keywords))
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name in HOT_CONSTRUCTORS
        for call in ast.walk(fn)
        if isinstance(call, ast.Call) and _callee(call) == HOT_CONSTRUCTORS[fn.name]
    ]


def test_hot_constructors_pass_no_keywords():
    # a dataclass __init__ matches each keyword, about 40 ns a field, and the
    # scan pays it once per vector: the hot sites pass every field positionally
    calls = [
        call
        for path in sorted(Path(bplinks.__file__).parent.glob("*.py"))
        for call in _record_calls(ast.parse(path.read_text()))
    ]
    assert {name for name, _ in calls} == set(HOT_CONSTRUCTORS)
    assert [name for name, keywords in calls if keywords] == []
    # the grep finds a keyword call
    planted = ast.parse("def _link_report(a, s):\n    return LinkReport(a, a, 5, 9, s, s, diffeo=0)")
    assert _record_calls(planted) == [("_link_report", True)]


def _mentions_slotted(node):
    return node is not None and any(t in ast.unparse(node) for t in SLOTTED)


def _callee(call):
    return ast.unparse(call.func).split(".")[-1]


def _hashing_sites(tree, holders, producers, holder_attrs):
    """The source of every hashed expression of tree that may hold a slotted
    record: a set element, a set()/frozenset()/hash()/.add() argument, a dict
    key (literal, comprehension, subscript store, .get, .setdefault), or a
    parameter of a function under a caching decorator.  An expression holds
    a record when it names its type, is a name in holders, reads a field in
    holder_attrs, calls a function in producers, or collects such values."""

    def holds(e):
        if isinstance(e, ast.Name):
            return e.id in holders
        if isinstance(e, ast.Attribute):
            return e.attr in holder_attrs
        if isinstance(e, ast.Call):
            return _callee(e) in producers
        if isinstance(e, (ast.Tuple, ast.List, ast.Set)):
            return any(holds(x) for x in e.elts)
        if isinstance(e, (ast.Subscript, ast.Starred)):
            return holds(e.value)
        if isinstance(e, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            return holds(e.elt)
        return False

    hashed = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            if _callee(node) in ("set", "frozenset", "hash", "add", "get", "setdefault"):
                hashed.append(node.args[0])
        elif isinstance(node, ast.Set):
            hashed += node.elts
        elif isinstance(node, ast.SetComp):
            hashed.append(node.elt)
        elif isinstance(node, ast.Dict):
            hashed += [k for k in node.keys if k is not None]
        elif isinstance(node, ast.DictComp):
            hashed.append(node.key)
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            hashed.append(node.slice)
        elif isinstance(node, ast.FunctionDef):
            if any("cache" in ast.unparse(d) for d in node.decorator_list):
                hashed += [p.annotation or ast.Name(p.arg) for p in node.args.args]
    return [ast.unparse(e) for e in hashed if holds(e) or _mentions_slotted(e)]


def _holder_names(tree, producers):
    """Names in tree bound to a slotted record: parameters annotated with
    its type, and targets of an assignment or loop over a producer call."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and _mentions_slotted(node.annotation):
            names.add(node.arg)
        elif isinstance(node, (ast.Assign, ast.For)):
            value = node.value if isinstance(node, ast.Assign) else node.iter
            if isinstance(value, ast.Call) and _callee(value) in producers:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_no_slotted_record_is_a_dict_key_or_a_set_member():
    # the slotted records have no __hash__; a grep over the package's source
    # for every place that hashes a value that may be one of them
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(Path(bplinks.__file__).parent.glob("*.py"))
    }
    producers, holder_attrs = set(), set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.FunctionDef) and _mentions_slotted(node.returns):
            producers.add(node.name)
        if isinstance(node, ast.AnnAssign) and _mentions_slotted(node.annotation):
            holder_attrs.add(ast.unparse(node.target))
    assert {"classify_link", "scan_links", "build_gcd_graph", "k_stability"} <= producers
    assert {"sphere", "stability", "graph"} <= holder_attrs
    assert {"r", "sphere", "stability"} <= _holder_names(trees["report.py"], producers)
    assert {"g", "cls"} <= _holder_names(trees["topology.py"], producers)
    found = {
        name: _hashing_sites(tree, _holder_names(tree, producers), producers, holder_attrs)
        for name, tree in trees.items()
    }
    assert {name: sites for name, sites in found.items() if sites} == {}
    # the grep finds each kind of site it looks for
    planted = ast.parse(
        "{rep: 1}; set([g]); hash(x.sphere); seen.add(classify_sphere(a)); d[rep, 1] = 0\n"
        "@lru_cache\ndef f(s: StabilityReport): pass"
    )
    assert sorted(_hashing_sites(planted, {"rep", "g"}, producers, holder_attrs)) == sorted(
        ["rep", "(rep, 1)", "[g]", "x.sphere", "classify_sphere(a)", "StabilityReport"]
    )
