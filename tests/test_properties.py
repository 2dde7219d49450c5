"""Property tests over random small graphs (hypothesis)."""
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from netqsim import (
    ErramilliParams,
    Graph,
    NoReachablePairs,
    SimConfig,
    all_pairs_hop_distances,
    characteristic_path_length,
    compute_load,
    giant_component,
    load_and_cpl,
    measure_load_proxy,
    run,
)
from netqsim.load import _hop_distances
from netqsim.sim import SimState
from _helpers import UnionFind, brute_force_load, reference_load


@st.composite
def small_graphs(draw) -> Graph:
    """Up to 12 vertices with an arbitrary edge set, possibly disconnected."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, k in zip(pairs, keep) if k])


@st.composite
def connected_graphs(draw) -> Graph:
    """2 to 12 vertices: a random tree plus an arbitrary set of extra edges."""
    n = draw(st.integers(2, 12))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in tree]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, tree + [p for p, k in zip(pairs, keep) if k])


@settings(max_examples=200, deadline=None)
@given(g=small_graphs(), endpoints=st.booleans())
def test_load_matches_reference_and_brute_force(g, endpoints):
    load = compute_load(g, endpoints)
    assert np.array_equal(load, reference_load(g, endpoints))
    assert np.max(np.abs(load - brute_force_load(g, endpoints))) < 1e-9


@settings(max_examples=200, deadline=None)
@given(g=small_graphs())
def test_cpl_from_one_pass_matches_dense_oracle(g):
    dist = all_pairs_hop_distances(g)
    if not (dist > 0).any():
        with pytest.raises(NoReachablePairs):
            load_and_cpl(g)
        return
    load, cpl = load_and_cpl(g)
    assert cpl == characteristic_path_length(dist)
    assert np.array_equal(load, reference_load(g))


@settings(max_examples=200, deadline=None)
@given(g=small_graphs(), data=st.data())
def test_hop_distances_match_dense_oracle(g, data):
    sources = data.draw(st.lists(st.integers(0, g.n_vertices - 1), min_size=1))
    assert np.array_equal(_hop_distances(g, sources), all_pairs_hop_distances(g)[sources])


@settings(max_examples=200, deadline=None)
@given(g=small_graphs())
def test_giant_component_is_the_first_largest(g):
    uf = UnionFind(g.n_vertices)
    for u, v in g.edges():
        uf.union(u, v)
    comps: dict[int, list[int]] = {}
    for v in range(g.n_vertices):
        comps.setdefault(uf.find(v), []).append(v)
    best = min(comps.values(), key=lambda c: (-len(c), c[0]))  # ties: smallest vertex
    gc, remap = giant_component(g)
    assert list(remap) == best and list(remap.values()) == list(range(len(best)))
    assert gc.edges() == [(remap[u], remap[v]) for u, v in g.edges() if u in remap]


@settings(max_examples=60, deadline=None)
@given(
    g=connected_graphs(),
    data=st.data(),
    d=st.floats(0.3, 0.95),
    rho=st.floats(0.2, 1.0),
    seed=st.integers(0, 2**16),
)
def test_checking_does_not_perturb_the_run(g, data, d, rho, seed):
    traffic = ErramilliParams(2.0, 2.0, d)
    hosts = data.draw(st.lists(st.integers(0, g.n_vertices - 1), min_size=2, unique=True))
    states = []
    for check in (False, True):  # the checked run raises on any breach
        state = SimState(g, hosts, traffic=traffic, seed=seed, check_invariants=check)
        state.run_steps(150)
        state.run_steps(250)
        states.append(state)
    plain, checked = states
    for name in ("clock", "generated_total", "delivered_total", "delay_total", "in_flight",
                 "max_queue", "queue_series", "link_counts"):
        assert getattr(plain, name) == getattr(checked, name), name
    assert np.array_equal(measure_load_proxy(plain), measure_load_proxy(checked))
    if math.floor(rho * g.n_vertices + 0.5) >= 2:  # assign_hosts' count
        metrics = [
            run(SimConfig(graph=g, rho=rho, traffic=traffic, warmup_steps=50,
                          measure_steps=200, seed=seed, check_invariants=check))
            for check in (False, True)
        ]
        assert repr(metrics[0]) == repr(metrics[1])
