from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from bplinks import lattice
from bplinks.report import classify_link, report_to_dict, scan_links
from bplinks.topology import arf_class, classify_sphere


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


def test_scan_links_takes_cached_signatures_and_computes_the_rest():
    asked = []
    given_sig = classify_link((2, 2, 2, 3, 7)).signature

    def cached(a):
        asked.append(a)
        return given_sig if a == (2, 2, 2, 3, 5) else None

    reports = {r.vector: r for r in scan_links(4, 5, cached)}
    assert asked == list(reports)
    assert reports[(2, 2, 2, 3, 5)].signature is given_sig
    assert reports[(2, 2, 2, 3, 4)] == classify_link((2, 2, 2, 3, 4))


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

