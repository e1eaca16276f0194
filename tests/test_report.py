from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from bplinks import lattice, report
from bplinks.errors import RefusalError
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
    # n = 4, amax = 9: 774 residue-DP vectors over 120 outer maps; one
    # window count per mirror pair would be 9 048 calls
    calls = _counting_window_calls(monkeypatch)
    first = [r.signature for r in scan_links(4, 9)]
    cold = len(calls)
    calls.clear()
    second = [r.signature for r in scan_links(4, 9)]
    assert len(calls) == cold < 9048
    assert second == first
    assert lattice._SHARED.get() is None


def test_abandoned_or_failed_scan_leaves_no_table(monkeypatch):
    shares = []

    class Recorded(lattice._ResidueShare):
        def __init__(self):
            super().__init__()
            shares.append(self)

    monkeypatch.setattr(report, "_ResidueShare", Recorded)
    scan = scan_links(4, 9)
    for _ in zip(range(300), scan):
        assert lattice._SHARED.get() is None  # the share is set around tau_kernel only
    share = shares[-1]
    assert share.windows and share.outer is not None
    del scan  # abandoned mid-walk
    assert share.windows == {} and share.outer is None

    scan = scan_links(4, 9)
    next(scan)
    scan.close()
    assert shares[-1].windows == {} and shares[-1].outer is None

    # (2, 4, 8, 8, 8), the 257th vector, is the first whose outer DP costs more than 40
    monkeypatch.setenv("BPLINKS_TAU_BUDGET", "40")
    done = []
    with pytest.raises(RefusalError, match=r"~41 residue steps \(budget 40\)"):
        for rep in scan_links(4, 9):
            done.append(rep.vector)
    assert len(done) == 256
    assert shares[-1].windows == {} and shares[-1].outer is None
    assert lattice._SHARED.get() is None

