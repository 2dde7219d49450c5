import math

import numpy as np
import pytest

from netqsim import (
    GenParams,
    Graph,
    NoReachablePairs,
    compute_load,
    generate_static_model,
    giant_component,
    load_and_cpl,
    load_stats,
    write_load_csv,
)
from netqsim import load as load_module
from netqsim.graphs import _hop_distances, all_pairs_hop_distances, characteristic_path_length
from _helpers import (
    TooLarge,
    brute_force_load,
    complete_graph,
    cycle_graph,
    floyd_warshall,
    grid_graph,
    path_graph,
    petersen_graph,
    random_graph,
    reference_load,
    star_graph,
)


def conservation_target(g: Graph) -> float:
    """Sum over ordered reachable pairs of (dist - 1), from the distance matrix."""
    d = all_pairs_hop_distances(g)
    reach = d >= 0
    n_pairs = int(reach.sum()) - g.n_vertices
    return float(d[reach].sum() - n_pairs)


# -- exact small cases -----------------------------------------------------------

def test_path_loads():
    # ordered pairs (a,c) and (c,a) both cross b
    assert np.allclose(compute_load(path_graph(3)), [0.0, 2.0, 0.0])
    assert np.allclose(brute_force_load(path_graph(3)), [0.0, 2.0, 0.0])


def test_four_cycle_branch_splitting():
    # opposite-corner pairs split 1/2 + 1/2 over the two geodesics
    c4 = cycle_graph(4)
    assert np.allclose(compute_load(c4), [1.0, 1.0, 1.0, 1.0])
    assert np.allclose(brute_force_load(c4), [1.0, 1.0, 1.0, 1.0])


def test_star_hub_collects_all_pairs():
    s4 = star_graph(3)
    expect = [6.0, 0.0, 0.0, 0.0]  # 3*2 ordered leaf pairs through the hub
    assert np.allclose(compute_load(s4), expect)
    assert np.allclose(brute_force_load(s4), expect)


def test_petersen_cross_check():
    g = petersen_graph()
    assert np.max(np.abs(compute_load(g) - brute_force_load(g))) < 1e-9


def test_include_endpoints_adds_reach_terms():
    for g in (path_graph(4), cycle_graph(5), star_graph(4)):
        excl = compute_load(g)
        incl = compute_load(g, include_endpoints=True)
        n = g.n_vertices
        assert np.allclose(incl - excl, 2.0 * (n - 1))
        assert np.allclose(incl, brute_force_load(g, include_endpoints=True))


def test_brute_force_cap():
    with pytest.raises(TooLarge):
        brute_force_load(cycle_graph(17))


# -- oracle equivalence on random graphs ----------------------------------------

def test_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(4, 13))
        max_m = n * (n - 1) // 2
        m = int(rng.integers(n - 2, max_m + 1))
        g = random_graph(n, m, rng)
        fast = compute_load(g)
        slow = brute_force_load(g)
        assert np.max(np.abs(fast - slow)) < 1e-9
        assert abs(fast.sum() - conservation_target(g)) < 1e-9


def kernel_graphs() -> list[Graph]:
    """N=600 giants at alpha 0/0.5/1 (several blocks, the last one partial),
    two disconnected G(n, m), then an edgeless and a 1-vertex graph."""
    graphs = []
    for alpha in (0.0, 0.5, 1.0):
        params = GenParams.from_avg_degree(600, 3.0, alpha, seed=1)
        gc, _ = giant_component(generate_static_model(params))
        block = load_module._BLOCK_CELLS // gc.n_vertices
        assert gc.n_vertices > block and gc.n_vertices % block != 0
        graphs.append(gc)
    rng = np.random.default_rng(7)
    graphs += [random_graph(40, 30, rng), random_graph(60, 45, rng)]
    graphs += [Graph(6, []), Graph(1, [])]
    return graphs


def test_matches_sequential_reference_bit_for_bit():
    for g in kernel_graphs():
        for endpoints in (False, True):
            assert np.array_equal(compute_load(g, endpoints), reference_load(g, endpoints))


def test_cpl_from_one_pass_equals_dense_oracle():
    *reachable, edgeless, single = kernel_graphs()
    for g in reachable:
        load, cpl = load_and_cpl(g)
        assert cpl == characteristic_path_length(all_pairs_hop_distances(g))
        assert np.array_equal(load, reference_load(g))
    for g in (edgeless, single):
        with pytest.raises(NoReachablePairs) as dense:
            characteristic_path_length(all_pairs_hop_distances(g))
        with pytest.raises(NoReachablePairs) as kernel:
            load_and_cpl(g)
        assert str(kernel.value) == str(dense.value)


def test_hop_distances_equal_dense_rows():
    for g in kernel_graphs():
        dense = floyd_warshall(g)
        everyone = list(range(g.n_vertices))
        for sources in (everyone, everyone[::-3]):  # all rows; unsorted
            assert np.array_equal(_hop_distances(g, sources), dense[sources])


def test_geodesic_counts_beyond_exact_float64_raise():
    small = grid_graph(8, 8)
    for endpoints in (False, True):
        assert np.array_equal(compute_load(small, endpoints), reference_load(small, endpoints))
    # corner to corner of a 30 x 30 grid: C(58, 29) ~ 3.0e16 > 2**53 geodesics
    with pytest.raises(ValueError, match="exceed exact float64 range"):
        compute_load(grid_graph(30, 30))


def test_twice_networkx_betweenness():
    nx = pytest.importorskip("networkx")
    for alpha in (0.0, 1.0):
        params = GenParams.from_avg_degree(300, 3.0, alpha, seed=5)
        gc, _ = giant_component(generate_static_model(params))
        nxg = nx.Graph(gc.edges())
        nxg.add_nodes_from(range(gc.n_vertices))
        bc = nx.betweenness_centrality(nxg, normalized=False)
        expect = 2.0 * np.array([bc[v] for v in range(gc.n_vertices)])
        np.testing.assert_allclose(compute_load(gc), expect, rtol=1e-12, atol=0.0)


def test_disconnected_pairs_contribute_nothing():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    lv = compute_load(g)
    assert np.allclose(lv, brute_force_load(g))
    assert lv[3] == 0.0 and lv[4] == 0.0
    assert abs(lv.sum() - conservation_target(g)) < 1e-12


def test_conservation_on_static_model_instance():
    params = GenParams.from_avg_degree(500, 3.0, 0.5, seed=9)
    gc, _ = giant_component(generate_static_model(params))
    lv = compute_load(gc)
    assert abs(lv.sum() - conservation_target(gc)) < 1e-6


# -- statistics -------------------------------------------------------------------

def test_vertex_transitive_graphs_have_zero_spread():
    for g in (cycle_graph(5), cycle_graph(8), complete_graph(5)):
        assert load_stats(compute_load(g)).normalized_std == 0.0


def test_path_load_stats_exact():
    st = load_stats(compute_load(path_graph(3)))
    assert math.isclose(st.mean, 2.0 / 3.0)
    assert math.isclose(st.std, math.sqrt(8.0 / 9.0))
    assert math.isclose(st.normalized_std, math.sqrt(2.0))
    assert st.max == 2.0 and st.argmax_vertex == 1


def test_all_zero_loads_define_zero_spread():
    st = load_stats(np.zeros(4))
    assert st.mean == 0.0 and st.normalized_std == 0.0


def test_load_stats_validation():
    with pytest.raises(ValueError):
        load_stats([1.0])
    with pytest.raises(ValueError):
        load_stats([1.0, -0.5])


def test_ensemble_trends_across_alpha():
    means, nstds = {}, {}
    for alpha in (0.0, 0.5, 1.0):
        ms, ns = [], []
        for seed in range(10):
            params = GenParams.from_avg_degree(500, 3.0, alpha, seed)
            gc, _ = giant_component(generate_static_model(params))
            st = load_stats(compute_load(gc))
            ms.append(st.mean)
            ns.append(st.normalized_std)
        means[alpha] = float(np.mean(ms))
        nstds[alpha] = float(np.mean(ns))
    assert means[0.0] > means[0.5] > means[1.0]
    assert nstds[0.0] < nstds[0.5] < nstds[1.0]


def test_load_csv_round_trip(tmp_path):
    g = cycle_graph(6)
    lv = compute_load(g)
    path = tmp_path / "load.csv"
    write_load_csv(lv, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "vertex,load"
    assert lines[-1].startswith("# mean=")
    parsed = [float(line.split(",")[1]) for line in lines[1:-1]]
    assert np.allclose(parsed, lv)
