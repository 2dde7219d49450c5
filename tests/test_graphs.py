import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from netqsim import (
    AttemptBudgetExceeded,
    GenParams,
    Graph,
    InsufficientTail,
    NoReachablePairs,
    degree_histogram,
    fit_powerlaw_exponent,
    generate_static_model,
    giant_component,
    read_edge_list,
    write_edge_list,
)
from netqsim.graphs import UNREACHABLE, all_pairs_hop_distances, characteristic_path_length
from _helpers import (
    UnionFind,
    complete_graph,
    cycle_graph,
    floyd_warshall,
    path_graph,
    random_graph,
    star_graph,
)

DATA = Path(__file__).parent / "data"


# -- GenParams / Graph construction ------------------------------------------

def test_genparams_validation():
    with pytest.raises(ValueError):
        GenParams(4, 7, 0.0, 1)  # above n(n-1)/2
    with pytest.raises(ValueError):
        GenParams(4, 3, -0.1, 1)
    with pytest.raises(ValueError):
        GenParams(4, 3, 1.1, 1)
    with pytest.raises(ValueError):
        GenParams(0, 1, 0.5, 1)
    assert GenParams(10, 5, 0.5, np.int64(1)).seed == 1  # numpy integers pass


@pytest.mark.parametrize("args, message", [
    ((10.5, 5, 0.5, 1), "n_vertices must be an integer >= 1, got 10.5"),
    ((0, 1, 0.5, 1), "n_vertices must be an integer >= 1, got 0"),
    ((10, 5.0, 0.5, 1), "n_edges must be an integer >= 1, got 5.0"),
    ((10, 0, 0.5, 1), "n_edges must be an integer >= 1, got 0"),
    ((10, 5, 0.5, 1.5), "seed must be an integer >= 0, got 1.5"),
    ((10, 5, 0.5, -1), "seed must be an integer >= 0, got -1"),
])
def test_genparams_names_a_bad_count_or_seed(args, message):
    # a float count or seed used to pass, then fail deep in the generator
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GenParams(*args)


def test_genparams_mean_degree():
    p = GenParams(500, 750, 0.5, 1)
    assert p.mean_degree == 3.0
    assert GenParams.from_avg_degree(500, 3.0, 0.5, 1).n_edges == 750
    # the alternative "3 edges contributed per vertex" reading is one knob away
    assert GenParams.from_avg_degree(500, 6.0, 0.5, 1).n_edges == 1500


def test_graph_rejects_self_loops_duplicates_and_range():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_graph_adjacency_is_sorted_and_symmetric():
    g = Graph(4, [(2, 0), (3, 1), (0, 3), (0, 1)])
    assert g.adjacency[0] == [1, 2, 3]
    for u in range(4):
        for v in g.adjacency[u]:
            assert u in g.adjacency[v]
    assert g.n_edges == 4


# -- generator ----------------------------------------------------------------

def test_saturation_forces_complete_graph():
    g = generate_static_model(GenParams(4, 6, 0.0, seed=123))
    assert g == complete_graph(4)


def test_generation_is_deterministic():
    params = GenParams(200, 400, 0.8, seed=99)
    assert generate_static_model(params) == generate_static_model(params)


def test_golden_edge_list():
    g = generate_static_model(GenParams(10, 15, 1.0, seed=42))
    golden, meta = read_edge_list(str(DATA / "golden_static_n10_m15_a1_s42.txt"))
    assert g == golden
    assert meta["alpha"] == 1.0 and meta["seed"] == 42


def test_edge_count_and_simplicity_across_alphas():
    for alpha in (0.0, 0.3, 0.7, 1.0):
        g = generate_static_model(GenParams(300, 450, alpha, seed=5))
        assert g.n_edges == 450
        # Graph's constructor would have rejected self-loops/duplicates;
        # round-trip through the edge set to double-check symmetry
        assert Graph(300, g.edges()) == g


def test_er_limit_edge_frequencies():
    # alpha=0 must sample G(N, M) uniformly: every one of the 15 possible
    # edges on 6 vertices appears with frequency M / 15 = 0.2
    n_seeds = 2000
    counts = Counter()
    for seed in range(n_seeds):
        for e in generate_static_model(GenParams(6, 3, 0.0, seed)).edges():
            counts[e] += 1
    assert len(counts) == 15
    for e, c in counts.items():
        assert abs(c / n_seeds - 0.2) <= 0.03, (e, c / n_seeds)


def test_attempt_budget_exceeded():
    with pytest.raises(AttemptBudgetExceeded):
        # complete graph demand with a budget too small to finish the tail
        generate_static_model(GenParams(5, 10, 1.0, seed=1), attempt_budget=1)


# -- giant component -----------------------------------------------------------

def test_giant_component_connected_graph_is_identity():
    c5 = cycle_graph(5)
    gc, remap = giant_component(c5)
    assert gc == c5
    assert remap == {i: i for i in range(5)}


def test_giant_component_tie_break_smallest_index():
    # two disjoint triangles plus an isolated vertex: keep the one with vertex 0
    g = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    gc, remap = giant_component(g)
    assert gc.n_vertices == 3 and gc.n_edges == 3
    assert sorted(remap) == [0, 1, 2]


def test_giant_component_census_against_union_find():
    params = GenParams.from_avg_degree(500, 3.0, 1.0, seed=17)
    g = generate_static_model(params)
    gc, remap = giant_component(g)
    uf = UnionFind(g.n_vertices)
    for u, v in g.edges():
        uf.union(u, v)
    assert gc.n_vertices == max(uf.component_sizes().values())
    assert gc.n_vertices >= 250  # at least half the vertices
    # remap preserves adjacency
    for u, v in g.edges():
        if u in remap and v in remap:
            assert remap[v] in gc.adjacency[remap[u]]


# -- degree statistics -----------------------------------------------------------

def test_degree_histogram_small():
    assert degree_histogram(cycle_graph(5)) == {2: 5}
    assert degree_histogram(star_graph(4)) == {1: 4, 4: 1}


def test_degree_histogram_consistency():
    for alpha, seed in ((0.0, 1), (0.5, 2), (1.0, 3)):
        g = generate_static_model(GenParams.from_avg_degree(400, 3.0, alpha, seed))
        hist = degree_histogram(g)
        assert sum(hist.values()) == g.n_vertices
        assert sum(k * c for k, c in hist.items()) == 2 * g.n_edges


def test_er_degree_moments_poisson():
    means, ratios = [], []
    for seed in range(5):
        g = generate_static_model(GenParams.from_avg_degree(10_000, 4.0, 0.0, seed))
        deg = np.array(g.degrees(), dtype=float)
        means.append(deg.mean())
        ratios.append(deg.var() / deg.mean())
    assert all(3.9 <= m <= 4.1 for m in means)
    assert all(0.9 <= r <= 1.1 for r in ratios)


def test_powerlaw_fit_recovers_synthetic_exponent():
    # exact discrete power law P(k) ~ k**-3 on k >= 5, inverse-CDF sampled
    k_min, gamma = 5, 3.0
    ks = np.arange(k_min, 100_001)
    cdf = np.cumsum(ks.astype(float) ** -gamma)
    cdf /= cdf[-1]
    rng = np.random.default_rng(12345)
    sample = ks[np.searchsorted(cdf, rng.random(100_000), side="right")]
    hist = dict(Counter(sample.tolist()))
    fitted = fit_powerlaw_exponent(hist, k_min)
    assert 2.9 <= fitted <= 3.1


def test_powerlaw_fit_insufficient_tail():
    with pytest.raises(InsufficientTail):
        fit_powerlaw_exponent({2: 100, 3: 50, 4: 10}, 2)


# -- distances -------------------------------------------------------------------

def test_hop_distances_path():
    d = all_pairs_hop_distances(path_graph(3))
    assert d[0, 2] == 2 and d[0, 1] == 1 and d[0, 0] == 0


def test_hop_distances_disjoint_edges_unreachable():
    d = all_pairs_hop_distances(Graph(4, [(0, 1), (2, 3)]))
    assert d[0, 2] == UNREACHABLE and d[1, 3] == UNREACHABLE
    assert d[0, 1] == 1 and d[2, 3] == 1


def test_hop_distances_match_floyd_warshall_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(4, 13))
        max_m = n * (n - 1) // 2
        m = int(rng.integers(n - 2, max_m + 1))
        g = random_graph(n, m, rng)
        d = all_pairs_hop_distances(g)
        assert np.array_equal(d, floyd_warshall(g))


def test_distance_matrix_properties():
    g = generate_static_model(GenParams(60, 90, 0.5, seed=4))
    d = all_pairs_hop_distances(g)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0)
    # triangle inequality over reachable triples, via one intermediate sweep
    reach = d >= 0
    n = g.n_vertices
    for k in range(n):
        col = d[:, k][:, None]
        row = d[k, :][None, :]
        both = reach[:, k][:, None] & reach[k, :][None, :]
        assert np.all(d[both & reach] <= (col + row)[both & reach])


# -- characteristic path length -------------------------------------------------

def test_cpl_exact_values():
    assert characteristic_path_length(all_pairs_hop_distances(complete_graph(4))) == 1.0
    assert characteristic_path_length(all_pairs_hop_distances(cycle_graph(5))) == 1.5


def test_cpl_no_reachable_pairs():
    with pytest.raises(NoReachablePairs):
        characteristic_path_length(all_pairs_hop_distances(Graph(3, [])))


def test_cpl_shrinks_toward_scale_free():
    means = {}
    for alpha in (0.0, 0.5, 1.0):
        vals = []
        for seed in range(10):
            params = GenParams.from_avg_degree(500, 3.0, alpha, seed)
            gc, _ = giant_component(generate_static_model(params))
            vals.append(characteristic_path_length(all_pairs_hop_distances(gc)))
        means[alpha] = float(np.mean(vals))
    assert means[1.0] < means[0.5] < means[0.0]


# -- edge-list round trip ----------------------------------------------------------

def test_edge_list_round_trip(tmp_path):
    g = generate_static_model(GenParams(40, 70, 0.6, seed=11))
    path = tmp_path / "edges.txt"
    write_edge_list(g, str(path), alpha=0.6, seed=11)
    g2, meta = read_edge_list(str(path))
    assert g2 == g
    assert meta == {"n": 40, "m": 70, "alpha": 0.6, "seed": 11}
    first = path.read_text()
    write_edge_list(g2, str(path), alpha=0.6, seed=11)
    assert path.read_text() == first


def test_edge_list_requires_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n1 2\n")
    with pytest.raises(ValueError):
        read_edge_list(str(path))


_BAD_LINES = {
    "0 1 2": "malformed",
    "a b": "malformed",
    "7": "malformed",
    "# n=ten": "malformed",
    "# n=3.7 m=1": "malformed",
    "# m=2.5": "malformed",
    "0 5": r"edge \(0, 5\) out of range",
    "2 2": "self-loop",
    "1 0": r"duplicate edge \(0, 1\)",
    "# m=5": "header m=5, edges read: 1",
}


@pytest.mark.parametrize("bad", list(_BAD_LINES))
def test_edge_list_malformed_line_names_path_and_line(tmp_path, bad):
    path = tmp_path / "bad.txt"
    path.write_text(f"# n=3 m=2\n\n0 1\n{bad}\n")
    with pytest.raises(ValueError, match=rf"bad\.txt, line 4: {_BAD_LINES[bad]}"):
        read_edge_list(str(path))
