import pytest
from hypothesis import given, settings, strategies as st

from bplinks.report import classify_link
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
