"""Property tests over random small graphs (hypothesis)."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from netqsim import (
    Graph,
    NoReachablePairs,
    all_pairs_hop_distances,
    brute_force_load,
    characteristic_path_length,
    compute_load,
    load_and_cpl,
)
from _helpers import reference_load


@st.composite
def small_graphs(draw) -> Graph:
    """Up to 12 vertices with an arbitrary edge set, possibly disconnected."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, k in zip(pairs, keep) if k])


@settings(max_examples=200, deadline=None)
@given(g=small_graphs(), endpoints=st.booleans())
def test_load_matches_reference_and_brute_force(g, endpoints):
    load = compute_load(g, endpoints)
    assert np.array_equal(load, reference_load(g, endpoints))
    assert np.max(np.abs(load - brute_force_load(g, endpoints))) < 1e-9


@settings(max_examples=200, deadline=None)
@given(g=small_graphs())
def test_cpl_from_one_pass_matches_dense_oracle(g):
    dmat = all_pairs_hop_distances(g)
    if not (dmat.dist > 0).any():
        with pytest.raises(NoReachablePairs):
            load_and_cpl(g)
        return
    load, cpl = load_and_cpl(g)
    assert cpl == characteristic_path_length(dmat)
    assert np.array_equal(load, reference_load(g))
