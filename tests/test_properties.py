"""Property tests over random small graphs (hypothesis)."""
import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import netqsim.graphs
import netqsim.load
import netqsim.sim
from netqsim import (
    ErramilliParams,
    Graph,
    NoReachablePairs,
    SimConfig,
    compute_load,
    giant_component,
    load_and_cpl,
    measure_load_proxy,
    run,
)
from netqsim.graphs import _hop_distances, all_pairs_hop_distances, characteristic_path_length
from netqsim.sim import _BLOCK_STEPS, SimState, _Shared
from netqsim.traffic import ErramilliSource
from _helpers import (
    UnionFind, brute_force_load, derived_leaves, floyd_warshall, reference_load,
    reference_routes,
)


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


@st.composite
def leafy_graphs(draw) -> Graph:
    """A small graph plus up to 8 pendant vertices, each joined to one vertex
    before it: a leaf, a K2 when that vertex was isolated, a path when it
    was an earlier pendant."""
    g = draw(small_graphs())
    n = g.n_vertices + draw(st.integers(0, 8))
    pendants = [(draw(st.integers(0, v - 1)), v) for v in range(g.n_vertices, n)]
    return Graph(n, g.edges() + pendants)


@settings(max_examples=200, deadline=None)
@given(g=leafy_graphs(), endpoints=st.booleans(), cells=st.integers(0, 200))
def test_leaf_rows_match_reference_and_every_other_source_is_bfsd_once(g, endpoints, cells):
    with mock.patch.object(netqsim.load, "_HELD_CELLS", cells):  # cells // n held rows
        with mock.patch.object(
            netqsim.load, "_dependencies", wraps=netqsim.load._dependencies
        ) as spy:
            load = compute_load(g, endpoints)
        dist = all_pairs_hop_distances(g)
        if (dist > 0).any():
            assert load_and_cpl(g)[1] == characteristic_path_length(dist)
    assert np.array_equal(load, reference_load(g, endpoints))
    bfs = [s for args, _ in spy.call_args_list for s in args[1].tolist()]
    assert sorted(bfs) == sorted(set(range(g.n_vertices)) - derived_leaves(g, cells).keys())


@settings(max_examples=200, deadline=None)
@given(g=small_graphs(), data=st.data(), cells=st.integers(1, 200))
def test_hop_distances_match_dense_oracle(g, data, cells):
    sources = data.draw(st.lists(st.integers(0, g.n_vertices - 1), min_size=1))
    with mock.patch.object(netqsim.graphs, "_BFS_CELLS", cells):  # rows a block: 1 to 200 // n
        dist = _hop_distances(g, sources)
    assert dist.dtype == np.int32
    assert np.array_equal(dist, floyd_warshall(g)[sources])


def assert_giant_is_the_first_largest(g: Graph) -> None:
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


@settings(max_examples=200, deadline=None)
@given(g=small_graphs())
def test_giant_component_is_the_first_largest(g):
    assert_giant_is_the_first_largest(g)


@st.composite
def shuffled_forests(draw) -> Graph:
    """Up to 400 vertices: each vertex after the first joins its predecessor
    (mostly, so long paths form), an earlier vertex, or nothing; then the
    labels are shuffled, so that hooking needs many rounds."""
    n = draw(st.integers(1, 400))
    edges = []
    for v in range(1, n):
        kind = draw(st.sampled_from(["path"] * 6 + ["tree", "cut"]))
        if kind != "cut":
            edges.append((v - 1 if kind == "path" else draw(st.integers(0, v - 1)), v))
    label = draw(st.permutations(range(n)))
    return Graph(n, [(label[u], label[v]) for u, v in edges])


@settings(max_examples=100, deadline=None)
@given(g=shuffled_forests())
def test_giant_component_of_long_paths_and_forests(g):
    assert_giant_is_the_first_largest(g)


@st.composite
def hub_graphs_and_hosts(draw) -> tuple[Graph, list[int], list[int]]:
    """A random connected core (many vertices with several closer neighbours)
    joined to a hub of 65 to 80 leaves, some of them also tied to the core,
    plus a second component of up to 4 vertices; labels are shuffled.
    Returns the graph, hosts drawn from the first component, and the second
    component's vertices."""
    core = draw(connected_graphs())
    nc = core.n_vertices
    hub = nc
    leaves = range(nc + 1, nc + 1 + draw(st.integers(65, 80)))
    edges = core.edges() + [(hub, leaf) for leaf in leaves]
    edges += [(hub, v) for v in draw(st.sets(st.integers(0, nc - 1), min_size=1))]
    for leaf in leaves:
        tie = draw(st.none() | st.integers(0, nc - 1))
        if tie is not None:
            edges.append((tie, leaf))
    first = leaves.stop
    other = range(first, first + draw(st.integers(0, 4)))
    edges += [(v, v + 1) for v in other[:-1]]
    label = draw(st.permutations(range(other.stop)))
    g = Graph(other.stop, [(label[u], label[v]) for u, v in edges])
    hosts = draw(st.lists(st.sampled_from([label[v] for v in range(first)]),
                          min_size=2, max_size=20, unique=True))
    return g, hosts, [label[v] for v in other]


@settings(max_examples=100, deadline=None)
@given(case=hub_graphs_and_hosts(), block=st.integers(1, 4000))
def test_route_tables_match_the_neighbour_scan(case, block):
    g, hosts, other = case
    with mock.patch.object(netqsim.sim, "_ROUTE_BLOCK", block):  # 1 to ~20 hosts a block
        routes = SimState(g, hosts)._routes
    assert routes == reference_routes(g, hosts)
    assert all(routes[dst][v] == () for dst in hosts for v in other)
    entries = [e for table in routes if table for e in table]
    assert len({id(e) for e in entries}) == len(set(entries))  # equal entries interned


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


@st.composite
def stream_runs(draw) -> tuple[int, list[int]]:
    """A run's host count and its `run_steps` counts, up to 2.5 blocks in all."""
    hosts = draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(0, _BLOCK_STEPS + 300), min_size=1, max_size=3))
    return hosts, counts


@pytest.mark.parametrize("short_first", [True, False])
@settings(max_examples=25, deadline=None)
@given(
    m1=st.floats(1.5, 2.0), m2=st.floats(1.5, 2.0), d=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**16), first=st.integers(0, 300),
    runs=st.lists(stream_runs(), min_size=2, max_size=2),
)
def test_replayed_streams_equal_fresh_sources(short_first, m1, m2, d, seed, first, runs):
    # Two runs of one seed, on different host counts, read one store block
    # by block as run_steps does: the shorter run first, or the longer one.
    # Host i's reads equal the bits of child 2 + i of the seed's spawn. Its
    # stream holds the bits up to its furthest read end, rounded up to whole
    # bytes, and its source ends where a fresh one does after as many bits.
    params = ErramilliParams(m1, m2, d)
    runs.sort(key=lambda r: (r[0], sum(r[1])), reverse=not short_first)
    shared = _Shared()
    reads = {}
    for hosts, counts in runs:
        clock = 0
        for count in counts:
            for start in range(0, count, _BLOCK_STEPS):
                k = min(_BLOCK_STEPS, count - start)
                for i in range(first, first + hosts):
                    got = shared.bits((params, seed, i), clock, k)
                    reads.setdefault(i, []).append((clock, got))
                clock += k
    n_hosts = first + max(h for h, _ in runs)
    children = np.random.SeedSequence(seed).spawn(2 + n_hosts)
    nbytes = 0
    for i, got in reads.items():
        source, packed = shared._streams[params, seed, i]
        held = 8 * math.ceil(max(clock + bits.size for clock, bits in got) / 8)
        fresh = ErramilliSource(params, seed=children[2 + i])
        want = fresh.bits(held)
        assert bytes(packed) == np.packbits(want).tobytes()
        for clock, bits in got:
            assert bits.dtype == np.uint8
            assert np.array_equal(bits, want[clock:clock + bits.size])
        assert source.x == fresh.x
        nbytes += held // 8
    assert sum(len(packed) for _, packed in shared._streams.values()) == nbytes
