"""Property tests over random small graphs (hypothesis)."""
import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

import netqsim.graphs
import netqsim.load
import netqsim.sim
from netqsim import (
    ErramilliParams,
    Graph,
    NoReachablePairs,
    compute_load,
    giant_component,
    load_and_cpl,
)
from netqsim.graphs import _hop_distances, all_pairs_hop_distances, characteristic_path_length
from netqsim.sim import _BLOCK_STEPS, SimState, _Shared
from netqsim.traffic import ErramilliSource
from _helpers import (
    UnionFind, advance, assert_equals_reference, brute_force_load, decoded_routes,
    derived_leaves, floyd_warshall, grid_graph, hypercube_graph, path_graph, reference_load,
    reference_routes, reference_run, star_graph,
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


@settings(max_examples=200)
@given(g=small_graphs(), endpoints=st.booleans())
def test_load_matches_reference_and_brute_force(g, endpoints):
    load = compute_load(g, endpoints)
    np.testing.assert_allclose(load, reference_load(g, endpoints), rtol=1e-12, atol=0.0)
    assert np.max(np.abs(load - brute_force_load(g, endpoints))) < 1e-9


@settings(max_examples=200)
@given(g=small_graphs())
def test_cpl_from_one_pass_matches_dense_oracle(g):
    dist = all_pairs_hop_distances(g)
    if not (dist > 0).any():
        with pytest.raises(NoReachablePairs):
            load_and_cpl(g)
        return
    load, cpl = load_and_cpl(g)
    assert cpl == characteristic_path_length(dist)
    np.testing.assert_allclose(load, reference_load(g), rtol=1e-12, atol=0.0)


@st.composite
def leafy_graphs(draw) -> Graph:
    """A small graph plus up to 8 pendant vertices, each joined to one vertex
    before it: a leaf, a K2 when that vertex was isolated, a path when it
    was an earlier pendant."""
    g = draw(small_graphs())
    n = g.n_vertices + draw(st.integers(0, 8))
    pendants = [(draw(st.integers(0, v - 1)), v) for v in range(g.n_vertices, n)]
    return Graph(n, g.edges() + pendants)


@settings(max_examples=200)
@given(g=leafy_graphs(), endpoints=st.booleans())
def test_leaf_rows_match_reference_and_every_other_source_is_bfsd_once(g, endpoints):
    with mock.patch.object(
        netqsim.load, "_dependencies", wraps=netqsim.load._dependencies
    ) as spy:
        load = compute_load(g, endpoints)
    dist = all_pairs_hop_distances(g)
    if (dist > 0).any():
        assert load_and_cpl(g)[1] == characteristic_path_length(dist)
    np.testing.assert_allclose(load, reference_load(g, endpoints), rtol=1e-12, atol=0.0)
    bfs = [s for args, _ in spy.call_args_list for s in args[1].tolist()]
    assert sorted(bfs) == sorted(set(range(g.n_vertices)) - derived_leaves(g).keys())


@settings(max_examples=200)
@given(g=small_graphs(), data=st.data(), cells=st.integers(1, 200))
def test_hop_distances_match_dense_oracle(g, data, cells):
    sources = data.draw(st.lists(st.integers(0, g.n_vertices - 1), min_size=1))
    with mock.patch.object(netqsim.graphs, "_BFS_CELLS", cells):  # rows a block: 1 to 200 // n
        dist = _hop_distances(g, sources)
    assert dist.dtype == np.int32
    assert np.array_equal(dist, floyd_warshall(g)[sources])


def geodesic_levels(g: Graph, dense: np.ndarray, rows: list[int]) -> list[list[tuple]]:
    """Per depth d >= 1, every (row, u, w) with dist(s, w) = dist(s, u) + 1 = d
    for the source s of each row, in frontier order (row, then u), then in
    the adjacency order of u; up to the last depth that has one."""
    levels = []
    while True:
        depth = len(levels) + 1
        edges = [
            (r, u, w)
            for r, s in enumerate(rows)
            for u in range(g.n_vertices) if dense[s, u] == depth - 1
            for w in g.adjacency[u] if dense[s, w] == depth
        ]
        if not edges:
            return levels
        levels.append(edges)


@settings(max_examples=200)
@given(g=small_graphs(), data=st.data(), cells=st.integers(1, 200))
def test_levels_yield_each_depth_s_edges_in_frontier_then_adjacency_order(g, data, cells):
    # the order of the edges fixes the order of the float additions of the
    # Brandes dependencies, which the oracles check only to rtol 1e-12
    n = g.n_vertices
    sources = data.draw(st.lists(st.integers(0, n - 1), min_size=1))
    real = netqsim.graphs._levels
    blocks = []  # per block of rows: its sources and the (row, u, w) of each level

    def spy(csr, cells, front):
        blocks.append(((front % n).tolist(), []))
        for level in real(csr, cells, front):
            level_front, seg, new, succ = level
            pred = level_front.take(seg.compress(new))
            assert np.array_equal(pred // n, succ // n)
            blocks[-1][1].append(list(zip(
                (pred // n).tolist(), (pred % n).tolist(), (succ % n).tolist()
            )))
            yield level

    with mock.patch.object(netqsim.graphs, "_BFS_CELLS", cells), \
            mock.patch.object(netqsim.graphs, "_levels", spy):
        _hop_distances(g, sources)
    dense = floyd_warshall(g)
    assert [row for rows, _ in blocks for row in rows] == sources
    for rows, levels in blocks:
        assert levels == geodesic_levels(g, dense, rows)


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


@settings(max_examples=200)
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


@settings(max_examples=100)
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


@settings(max_examples=100)
@given(case=hub_graphs_and_hosts(), block=st.integers(1, 4000))
def test_route_tables_match_the_neighbour_scan(case, block):
    g, hosts, other = case
    with mock.patch.object(netqsim.sim, "_ROUTE_BLOCK", block):  # 1 to ~20 hosts a block
        state = SimState(g, hosts)
    routes = decoded_routes(state)
    assert routes == reference_routes(g, hosts)
    assert all(routes[dst][v] == () for dst in hosts for v in other)
    ties = [e for table in state._routes if table for e in table if type(e) is tuple]
    assert len({id(e) for e in ties}) == len(set(ties))  # equal tie tuples are one object


@st.composite
def oracle_cases(draw) -> tuple[Graph, list[int]]:
    """A path, star, grid, hypercube or random connected graph, with 2 to 8
    hosts. A dim-cube's hosts include 0 and the far corner 2**dim - 1, which
    0 reaches over a tie of all its dim neighbours."""
    cube = hypercube_graph(draw(st.integers(2, 4)))
    g = draw(st.one_of(
        st.builds(path_graph, st.integers(2, 12)),
        st.builds(star_graph, st.integers(1, 10)),
        st.builds(grid_graph, st.integers(2, 5), st.integers(2, 5)),
        st.just(cube),
        connected_graphs(),
    ))
    last = g.n_vertices - 1
    top = min(8, g.n_vertices)
    if g is cube:
        return g, [0, last] + draw(st.lists(st.integers(1, last - 1), max_size=top - 2,
                                           unique=True))
    hosts = draw(st.lists(st.integers(0, last), min_size=2, max_size=top, unique=True))
    return g, hosts


@settings(max_examples=50)
# whatever the hypothesis seed, ties of three and of four closer neighbours
@example(case=(hypercube_graph(3), [0, 7]), d=0.5, seed=1, steps=_BLOCK_STEPS + 1, first=0)
@example(case=(hypercube_graph(4), [0, 15]), d=0.5, seed=2, steps=_BLOCK_STEPS + 1, first=0)
@given(
    case=oracle_cases(),
    d=st.floats(0.3, 0.95),
    seed=st.integers(0, 2**16),
    steps=st.integers(_BLOCK_STEPS + 1, _BLOCK_STEPS + 400),
    first=st.integers(0, _BLOCK_STEPS + 400),
)
def test_simulator_equals_the_reference(case, d, seed, steps, first):
    # the lower thresholds build backlogs of up to thousands of packets; the
    # two calls of run_steps cross a block of steps anywhere in the run
    g, hosts = case
    traffic = ErramilliParams(2.0, 2.0, d)
    state = SimState(g, hosts, traffic=traffic, seed=seed)
    first = min(first, steps)
    state.run_steps(first)
    state.run_steps(steps - first)
    assert_equals_reference(state, reference_run(g, hosts, traffic, seed, steps))


@st.composite
def stream_runs(draw) -> tuple[int, list[int]]:
    """A run's host count and its `run_steps` counts, up to 2.5 blocks in all."""
    hosts = draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(0, _BLOCK_STEPS + 300), min_size=1, max_size=3))
    return hosts, counts


@pytest.mark.parametrize("short_first", [True, False])
@settings(max_examples=25)
@given(
    m1=st.floats(1.5, 2.0), m2=st.floats(1.5, 2.0), d=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**16), first=st.integers(0, 300),
    runs=st.lists(stream_runs(), min_size=2, max_size=2),
)
def test_replayed_streams_equal_fresh_sources(short_first, m1, m2, d, seed, first, runs):
    # Two runs of one seed, on different host counts, read one store block
    # by block as run_steps does: the shorter run first, or the longer one.
    # Host i's reads equal the bits of child 2 + i of the seed's spawn. Its
    # stream holds a fresh source's bits up to its furthest read end, rounded
    # up to whole bytes, and less than twice that: a stream that falls short
    # grows to the read's end or to twice its held bytes.
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
    for i, got in reads.items():
        packed = shared._streams[params, seed, i]
        need = math.ceil(max(clock + bits.size for clock, bits in got) / 8)
        assert need <= len(packed) < 2 * need
        fresh = ErramilliSource(params, seed=children[2 + i])
        want = fresh.bits(8 * len(packed))
        assert bytes(packed) == np.packbits(want).tobytes()
        for clock, bits in got:
            assert bits.dtype == np.uint8
            assert np.array_equal(bits, want[clock:clock + bits.size])
    assert len(shared._streams) == len(reads)


@settings(max_examples=25)
@given(
    m1=st.floats(1.5, 2.0), m2=st.floats(1.5, 2.0), d=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**16), warmup=st.integers(0, 200), measure=st.integers(1, 600),
    reads=st.lists(st.tuples(st.integers(0, 900), st.integers(1, _BLOCK_STEPS + 300)),
                   min_size=1, max_size=3),
)
def test_released_streams_extend_as_fresh_sources(m1, m2, d, seed, warmup, measure, reads):
    # `run` draws each host's window whole; its steps equal a bare state's,
    # which draws once per run_steps call. A later, longer read extends the
    # stream from a source built from its key, to the read's end or to twice
    # the held bytes: every bit the store answers or holds is a fresh
    # source's.
    params = ErramilliParams(m1, m2, d)
    g = grid_graph(3, 4)
    config = netqsim.sim.SimConfig(graph=g, rho=0.5, traffic=params, warmup_steps=warmup,
                                   measure_steps=measure, seed=seed)
    shared = _Shared()
    metrics = netqsim.sim.run(config, shared)
    bare = SimState(g, netqsim.sim.assign_hosts(g, 0.5, seed), traffic=params, seed=seed)
    bare.run_steps(warmup)
    bare.run_steps(measure)
    assert metrics.queue_length_timeseries == bare.queue_series
    assert metrics.generated_total == bare.generated_total
    window = math.ceil((warmup + measure) / 8)
    assert [len(packed) for packed in shared._streams.values()] == [window] * len(bare.hosts)
    children = np.random.SeedSequence(seed).spawn(2 + len(bare.hosts))
    for i in range(len(bare.hosts)):
        key = (params, seed, i)
        ends = [8 * window]
        for start, count in reads:
            got = shared.bits(key, start, count)
            ends.append(8 * math.ceil((start + count) / 8))
            fresh = ErramilliSource(params, seed=children[2 + i])
            assert np.array_equal(got, fresh.bits(start + count)[start:])
        packed = shared._streams[key]
        assert max(ends) <= 8 * len(packed) < 2 * max(ends)
        fresh = ErramilliSource(params, seed=children[2 + i])
        assert bytes(packed) == np.packbits(fresh.bits(8 * len(packed))).tobytes()


@st.composite
def call_sizes(draw) -> list[int]:
    """Up to 6 `bits` call sizes, 3000 steps in all at most."""
    sizes, left = [], 3000
    for _ in range(draw(st.integers(1, 6))):
        sizes.append(draw(st.integers(0, left)))
        left -= sizes[-1]
    return sizes


_EXPONENTS = st.one_of(st.just(2.0), st.floats(1.5, 2.0))


@settings(max_examples=300)
# d within _ENDPOINT_EPS of 1 (of 0), and an Off (On) branch at `**`,
# stepped by the full rule, that creeps from 2e-12 off the endpoint into
# its trap
@example(m1=1.5, m2=2.0, d=1.0 - 2.0**-45, side="off", at=1.0 - 2e-12, seed=0,
         sizes=[1, 2999])
@example(m1=2.0, m2=1.75, d=1e-13, side="on", at=2e-12, seed=0, sizes=[1, 2999])
@given(
    m1=_EXPONENTS, m2=_EXPONENTS,
    d=st.floats(0.001, 0.999, exclude_min=True, exclude_max=True),
    side=st.sampled_from(["off", "on"]), at=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16), sizes=call_sizes(),
)
def test_kernel_calls_equal_the_scalar_reference(m1, m2, d, side, at, seed, sizes):
    # any exponent pair, threshold, start and split of the steps into
    # calls: the concatenated bits, the last point and the draws are the
    # reference's; the start lies a fraction `at` across its side of d
    p = ErramilliParams(m1, m2, d)
    ref, src = (ErramilliSource(p, seed=seed, burn_in=0) for _ in range(2))
    ref.x = src.x = at * d if side == "off" else d + at * (1.0 - d)
    got = [bit for k in sizes for bit in src.bits(k).tolist()]
    assert got == [int(advance(ref) > d) for _ in range(sum(sizes))]
    assert src.x == ref.x
    assert src.rng.bit_generator.state == ref.rng.bit_generator.state
