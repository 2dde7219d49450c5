import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from collections import deque

import numpy as np
import pytest
from scipy.stats import spearmanr

import netqsim
from netqsim import (
    ErramilliParams,
    ErramilliSource,
    GenParams,
    Graph,
    SimConfig,
    TooFewHosts,
    assign_hosts,
    compute_load,
    generate_static_model,
    giant_component,
    measure_load_proxy,
    run,
)
from netqsim.graphs import all_pairs_hop_distances
from netqsim.sim import InvariantViolation, SimState, _Shared
from netqsim.traffic import _BURN_IN
from _helpers import (
    assert_equals_reference, complete_graph, cycle_graph, decoded_routes, pack, path_graph,
    queue_length, queued, reference_run, star_graph, unpack,
)


# -- host assignment ---------------------------------------------------------------

def test_assign_hosts_full_density():
    g = cycle_graph(6)
    assert assign_hosts(g, 1.0, seed=1) == list(range(6))


def test_assign_hosts_count_at_default_density():
    g = generate_static_model(GenParams.from_avg_degree(500, 3.0, 0.0, 1))
    hosts = assign_hosts(g, 0.16, seed=7)
    assert len(hosts) == 80
    assert len(set(hosts)) == 80


def test_assign_hosts_deterministic():
    g = cycle_graph(50)
    assert assign_hosts(g, 0.3, seed=3) == assign_hosts(g, 0.3, seed=3)


def test_assign_hosts_errors():
    g = cycle_graph(5)
    with pytest.raises(TooFewHosts):
        assign_hosts(g, 0.1, seed=1)
    with pytest.raises(ValueError):
        assign_hosts(g, 1.5, seed=1)


@pytest.mark.parametrize("build", [
    lambda g: SimState(g, [0, 3], seed=-1), lambda g: assign_hosts(g, 0.5, -1),
], ids=["SimState", "assign_hosts"])
def test_negative_seed_is_named(build):
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got -1$"):
        build(path_graph(4))


# -- next-hop selection -------------------------------------------------------------

def test_next_hop_counter_tie_break():
    # 4-cycle 0-1-2-3: from 0 toward 2 both neighbors are equidistant;
    # the less-used link must win
    st = SimState(cycle_graph(4), hosts=[0, 2], traffic=None)
    nbrs = st.graph.adjacency[0]
    st.link_counts[0][nbrs.index(1)] = 20
    st.link_counts[0][nbrs.index(3)] = 2
    for _ in range(18):  # until the counters are level
        st.inject(0, 2)
        st.run_steps(1)
        assert (queue_length(st, 1), queue_length(st, 3)) == (0, 1)
    assert st.link_counts[0] == [20, 20]


def test_next_hop_random_tie_is_uniform():
    st = SimState(cycle_graph(4), hosts=[0, 2], traffic=None)
    picks = {1: 0, 3: 0}
    trials = 10_000
    for _ in range(trials):
        st.link_counts[0][:] = [0, 0]  # equal counters leave the pick to the RNG
        st.inject(0, 2)
        st.run_steps(1)  # also delivers the previous packet from 1 or 3
        assert queue_length(st, 1) + queue_length(st, 3) == 1
        picks[1] += queue_length(st, 1)
        picks[3] += queue_length(st, 3)
    assert abs(picks[1] / trials - 0.5) <= 0.05
    assert abs(picks[3] / trials - 0.5) <= 0.05


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_route_tables_hold_the_closest_neighbours(alpha):
    g, _ = giant_component(
        generate_static_model(GenParams.from_avg_degree(100, 3.0, alpha, 4))
    )
    dist = all_pairs_hop_distances(g)
    hosts = assign_hosts(g, 0.3, 4)
    routes = decoded_routes(SimState(g, hosts))
    for dst in hosts:
        for v, nbrs in enumerate(g.adjacency):
            if v == dst:
                continue
            # reference: every neighbour at the minimum distance to dst
            best = min(dist[u, dst] for u in nbrs)
            expected = tuple(k for k, u in enumerate(nbrs) if dist[u, dst] == best)
            assert routes[dst][v], (dst, v)
            assert routes[dst][v] == expected, (dst, v)


def test_shared_store_builds_routes_per_graph_and_hosts():
    # a store keeps the routes of the last (graph, hosts) it was asked for
    graphs = [
        giant_component(generate_static_model(GenParams.from_avg_degree(60, 3.0, a, 2)))[0]
        for a in (0.0, 1.0)
    ]
    shared = _Shared()
    for g, hosts in [(graphs[0], [0, 5, 9]), (graphs[0], [9, 0, 5]), (graphs[0], [0, 5, 7]),
                     (graphs[1], [0, 5, 7]), (graphs[0], [0, 5, 7])]:
        st = SimState(g, hosts, _shared=shared)
        assert st.hosts == sorted(hosts)
        fresh = SimState(g, hosts)
        assert st._routes == fresh._routes


# -- stepping -------------------------------------------------------------------------

def test_idle_step_only_advances_clock():
    st = SimState(path_graph(4), hosts=[0, 3], traffic=None)
    st.run_steps(5)
    assert st.clock == 5
    assert st.generated_total == 0 and st.delivered_total == 0
    assert st.queue_series.tolist() == [0] * 5


def delivery_totals(st: SimState, steps: int) -> list[tuple[int, int]]:
    """(delivered_total, delay_total) after each of `steps` further steps."""
    totals = []
    for _ in range(steps):
        st.run_steps(1)
        totals.append((st.delivered_total, st.delay_total))
    return totals


def test_single_packet_delivered_in_hop_distance_steps():
    g = path_graph(6)
    st = SimState(g, hosts=[0, 5], traffic=None)
    assert st.inject(0, 5) == 0
    assert delivery_totals(st, 10) == [(0, 0)] * 4 + [(1, 5)] * 6


def test_one_departure_per_node_per_step():
    g = path_graph(3)
    st = SimState(g, hosts=[0, 2], traffic=None)
    st.inject(0, 2)
    st.inject(0, 2)
    st.run_steps(1)
    # only the head moved
    assert queue_length(st, 0) == 1 and queue_length(st, 1) == 1
    # a delivered at 2 and b at 3
    assert delivery_totals(st, 5) == [(1, 2)] + [(2, 5)] * 4


def test_fifo_discipline_preserves_order():
    # five packets from 0 along the path 0-1-2-3-4-5, to 1, 2, 3, 4 and 5 in
    # that order, so each is told apart by its destination
    g = path_graph(6)
    st = SimState(g, hosts=list(range(6)), traffic=None)
    assert [st.inject(0, dst) for dst in (1, 2, 3, 4, 5)] == [0, 1, 2, 3, 4]
    assert queued(st, 0) == [(0, 0, dst) for dst in (1, 2, 3, 4, 5)]
    # destinations queued at vertices 0 .. 4 and (delivered, delay) totals
    # after each step: packet i leaves 0 in step i + 1 and arrives at 2i + 1
    expected = [
        ([[2, 3, 4, 5], [], [], [], []], (1, 1)),
        ([[3, 4, 5], [2], [], [], []], (1, 1)),
        ([[4, 5], [3], [], [], []], (2, 4)),
        ([[5], [4], [3], [], []], (2, 4)),
        ([[], [5], [4], [], []], (3, 9)),
        ([[], [], [5], [4], []], (3, 9)),
        ([[], [], [], [5], []], (4, 16)),
        ([[], [], [], [], [5]], (4, 16)),
        ([[], [], [], [], []], (5, 25)),
    ]
    for dsts, totals in expected:
        st.run_steps(1)
        assert [[dst for _, _, dst in queued(st, v)] for v in range(5)] == dsts
        assert (st.delivered_total, st.delay_total) == totals
    st.run_steps(13)
    assert (st.delivered_total, st.delay_total) == (5, 25)


def test_arrivals_wait_for_next_step():
    # the packet must not ride more than one hop per step even through
    # nodes whose queues were empty this step
    g = path_graph(5)
    st = SimState(g, hosts=[0, 4], traffic=None)
    st.inject(0, 4)
    st.run_steps(1)
    assert queue_length(st, 1) == 1 and queue_length(st, 2) == 0


def _bare_states(count):
    """`count` fresh bare states of one graph, hosts, traffic and seed."""
    g, _ = giant_component(
        generate_static_model(GenParams.from_avg_degree(80, 3.0, 0.5, 3))
    )
    hosts = assign_hosts(g, 0.3, 3)
    traffic = ErramilliParams(2.0, 2.0, 0.7)
    return [SimState(g, hosts, traffic=traffic, seed=8) for _ in range(count)]


def test_run_steps_block_equals_single_steps(monkeypatch):
    block, single = _bare_states(2)
    hosts = block.hosts
    block.run_steps(50)
    real_bits = ErramilliSource.bits
    bits_calls = []

    def counted_bits(source, count):
        bits_calls.append(count)
        return real_bits(source, count)

    monkeypatch.setattr(ErramilliSource, "bits", counted_bits)
    block.run_steps(1100)  # crosses a step block boundary
    monkeypatch.undo()
    # one draw per call: the bits of steps 56 .. 1151, each host's in one call
    assert bits_calls == [1096] * len(hosts)
    for _ in range(1150):
        single.run_steps(1)
    assert block.generated_total > 0 and block.delivered_total > 0
    assert block.queue_series == single.queue_series
    for name in ("generated_total", "delivered_total", "delay_total", "in_flight",
                 "max_queue"):
        assert getattr(block, name) == getattr(single, name), name
    assert block.link_counts == single.link_counts
    # the block state holds 1152 bits a stream, the 1150 steps rounded up to
    # whole bytes; the single-step one doubled each stream as it fell short
    # (1, 2, 4 .. 256 bytes), and its first 144 bytes are the block's
    held = [list(state._shared._streams.values()) for state in (block, single)]
    assert [len(packed) for packed in held[0]] == [144] * len(hosts)
    assert [len(packed) for packed in held[1]] == [256] * len(hosts)
    assert [packed[:144] for packed in held[1]] == held[0]


def test_one_step_calls_replay_streams_in_linear_time(monkeypatch):
    # each extension rebuilds a host's source and replays its held bits as
    # burn-in; doubling the held bytes keeps the map steps of T one-step
    # calls within a small multiple of (burn-in + T) per host, where an
    # extension to the next byte costs about T^2 / 16
    (state,) = _bare_states(1)
    real_orbit = ErramilliSource._orbit
    steps = []

    def counted_orbit(source, count):
        steps.append(count)
        return real_orbit(source, count)

    monkeypatch.setattr(ErramilliSource, "_orbit", counted_orbit)
    for _ in range(1150):
        state.run_steps(1)
    monkeypatch.undo()
    assert state.clock == 1150
    assert sum(steps) <= 8 * (_BURN_IN + 1150) * len(state.hosts)


def test_draw_that_raises_leaves_no_half_extended_stream(monkeypatch):
    # a draw stores each stream once its bytes are drawn: the streams drawn
    # before a failing source stay, the failing one keeps its bytes, and a
    # retry answers a fresh source's bits
    traffic = ErramilliParams(2.0, 2.0, 0.7)
    keys = [(traffic, 5, i) for i in range(3)]
    shared = _Shared()
    shared.draw(keys[1:2], 20)
    before = bytes(shared._streams[keys[1]])
    real_bits = ErramilliSource.bits
    bits_calls = []

    def failing_bits(source, count):
        bits_calls.append(count)
        if len(bits_calls) == 2:
            raise RuntimeError("source failed")
        return real_bits(source, count)

    monkeypatch.setattr(ErramilliSource, "bits", failing_bits)
    with pytest.raises(RuntimeError, match="source failed"):
        shared.draw(keys, 100)
    monkeypatch.undo()
    assert bits_calls == [104, 80]
    assert list(shared._streams) == [keys[1], keys[0]]
    assert len(shared._streams[keys[0]]) == 13
    assert bytes(shared._streams[keys[1]]) == before
    shared.draw(keys, 100)
    for i, key in enumerate(keys):
        fresh = ErramilliSource(traffic, seed=np.random.SeedSequence(5, spawn_key=(2 + i,)))
        assert np.array_equal(shared.bits(key, 0, 100), fresh.bits(100))
    assert all(isinstance(packed, bytearray) for packed in shared._streams.values())


def test_invariant_violation_is_raised():
    # run_steps(1) runs a one-step block, so the block-end census follows each step
    assert issubclass(InvariantViolation, AssertionError)
    st = SimState(path_graph(4), hosts=[0, 3], traffic=None)
    st.inject(0, 3)
    st.run_steps(1)
    st.in_flight += 1
    with pytest.raises(InvariantViolation, match="census"):
        st.run_steps(1)


def test_every_run_checks_the_accounting():
    st = SimState(path_graph(4), hosts=[0, 3], traffic=None)
    st.inject(0, 3)
    st._queues[1].append(pack(st, 0, 0, 3))  # a packet no host generated
    with pytest.raises(InvariantViolation, match="census"):
        st.run_steps(2)

    st = SimState(path_graph(4), hosts=[0, 3], traffic=None)
    st.inject(0, 3)
    st.generated_total += 1
    with pytest.raises(InvariantViolation, match="conservation"):
        st.run_steps(1)

    st = SimState(path_graph(4), hosts=[0, 3], traffic=None)
    st.inject(0, 3)
    q = st._queues[0]
    created, src, dst = unpack(st, q[0])
    q[0] = pack(st, created + 1, src, dst)  # created step raised: three hops in two steps
    with pytest.raises(InvariantViolation, match=r"from 0 to 3 created at step 1 .*lower bound"):
        st.run_steps(3)


class _KeptAfterEmptying(deque):
    """A queue that reads as non-empty even when it is empty, as a
    forwarding loop that kept an emptied vertex in its list would see it."""

    def __bool__(self):
        return True


def test_block_end_checks_the_active_list():
    # the list must name exactly the vertices that hold packets, ascending
    st = SimState(path_graph(4), hosts=[0, 3], traffic=None)
    st.inject(0, 3)
    assert st._active == [0]
    st._active.clear()  # a vertex dropped from the list: its packet never moves
    with pytest.raises(InvariantViolation, match="active list"):
        st.run_steps(1)

    st = SimState(path_graph(4), hosts=[0, 3], traffic=None)
    st.inject(0, 3)
    st._queues[0] = _KeptAfterEmptying(st._queues[0])
    with pytest.raises(InvariantViolation, match="active list"):
        st.run_steps(1)  # 0 forwards its one packet but stays listed
    assert st._active == [0, 1] and queue_length(st, 0) == 0

    # an injection into an empty queue keeps the list ascending
    st = SimState(path_graph(4), hosts=[0, 3], traffic=None)
    st.inject(3, 0)
    st.inject(0, 3)
    st.inject(3, 0)
    assert st._active == [0, 3]
    st.run_steps(1)
    assert st._active == [1, 2, 3]


def test_invariant_violation_survives_python_O():
    code = (
        "import sys\n"
        "from netqsim import Graph\n"
        "from netqsim.sim import SimState\n"
        "g = Graph(4, [(0, 1), (1, 2), (2, 3)])\n"
        "st = SimState(g, [0, 3], traffic=None)\n"
        "st.inject(0, 3)\n"
        "st.run_steps(1)\n"
        "st.in_flight += 1\n"
        "print(sys.flags.optimize, flush=True)\n"
        "st.run_steps(1)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(netqsim.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.stdout.strip() == "1"
    assert proc.returncode != 0
    assert "InvariantViolation: queue census" in proc.stderr


def test_inject_validation():
    with pytest.raises(TooFewHosts, match="at least 2 hosts"):
        SimState(path_graph(4), hosts=[0], traffic=None)
    with pytest.raises(ValueError, match="distinct"):
        SimState(path_graph(4), hosts=[0, 3, 0], traffic=None)
    for hosts, bad in (([0, 2.5], "2.5"), ([0.0, 3], "0.0"), ([0, True], "True")):
        with pytest.raises(ValueError, match=rf"^hosts .* got {bad}$"):
            SimState(path_graph(4), hosts=hosts, traffic=None)
    assert SimState(path_graph(4), hosts=np.array([3, 0]), traffic=None).hosts == [0, 3]
    st = SimState(path_graph(4), hosts=[0, 3], traffic=None)
    with pytest.raises(ValueError):
        st.inject(0, 1)  # 1 is not a host
    with pytest.raises(ValueError):
        st.inject(0, 0)
    for count in (-3, 1.5):
        with pytest.raises(ValueError, match="count"):
            st.run_steps(count)
    assert st.clock == 0


def test_generated_packets_target_other_hosts():
    # the run equals the reference, queues included; the reference's
    # delivered and queued packets are every packet generated. Every packet
    # crosses the hub 0 of the star, which forwards one a step, so the run
    # ends with packets queued.
    g = star_graph(3)
    traffic = ErramilliParams(1.5, 1.5, 0.3)
    st = SimState(g, hosts=[1, 2, 3], traffic=traffic, seed=6)
    st.run_steps(200)
    ref = reference_run(g, [1, 2, 3], traffic, 6, 200)
    assert_equals_reference(st, ref)
    ids = [r[0] for r in ref.records] + [p[0] for q in ref.queues for p in q]
    assert sorted(ids) == list(range(st.generated_total))
    assert st.generated_total > 0 and st.in_flight > 0
    packets = [r[1:3] for r in ref.records] + [
        (src, dst) for v in range(g.n_vertices) for _, src, dst in queued(st, v)
    ]
    assert len(packets) == st.generated_total
    for src, dst in packets:
        assert src in (1, 2, 3) and dst in (1, 2, 3)
        assert src != dst


# -- full runs ---------------------------------------------------------------------------

def test_inject_returns_the_next_packet_id():
    # no per-packet log is kept: a queued int is all there is
    st = SimState(path_graph(4), hosts=[0, 3], traffic=ErramilliParams(2.0, 2.0, 0.5))
    st.run_steps(50)
    assert not hasattr(st, "packets")
    pid = st.inject(0, 3)
    assert pid == st.generated_total - 1 > 0
    assert queued(st, 0)[-1] == (50, 0, 3)


def test_a_queued_packet_is_one_small_int():
    # the backlog past the congestion onset grows without bound, so what a
    # queued packet costs bounds memory: its int (28 bytes here) and its
    # deque slot
    g = path_graph(8)
    st = SimState(g, hosts=[0, 7], traffic=None)
    st.run_steps(300)
    count = 20_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(count):
            st.inject(0, 7)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert queue_length(st, 0) == count
    assert queued(st, 0)[-1] == (300, 0, 7)
    assert held / count <= 56


def test_the_queue_series_costs_about_four_bytes_a_step():
    # a saturated run's in-flight count climbs every step, so most of its
    # values are past the 256 small ints CPython caches: a list would hold an
    # 8-byte slot and a 28-byte int object a step. The array's 5th byte is
    # the up to 1/16 it over-allocates when it grows.
    m = run(SimConfig(graph=star_graph(9), rho=1.0, traffic=ErramilliParams(2.0, 2.0, 0.5),
                      warmup_steps=0, measure_steps=2000, seed=1))
    series = m.queue_length_timeseries
    assert len(series) == 2000
    assert sum(v > 256 for v in series) > len(series) // 2
    assert series[-1] == m.in_flight_at_end
    assert sys.getsizeof(series) <= 5 * len(series) + 128


def test_an_in_flight_count_past_int32_raises_rather_than_wraps():
    st = SimState(path_graph(4), hosts=[0, 3], traffic=None)
    st.run_steps(1)
    st.in_flight = 2**31
    with pytest.raises(OverflowError):
        st.run_steps(1)
    assert st.queue_series.tolist() == [0]


def test_run_requires_connected_graph():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        run(SimConfig(graph=g, rho=1.0, measure_steps=10))
    with pytest.raises(ValueError, match="rho must lie in"):
        SimConfig(graph=g, rho=0.0)
    # step counts that are not integers >= 0 are rejected up front
    for bad in ({"warmup_steps": 1.5}, {"warmup_steps": -1}, {"measure_steps": 2.0}):
        with pytest.raises(ValueError, match="steps"):
            SimConfig(graph=g, rho=1.0, **bad)
    # nor is a bool a count or a seed: run_steps(True) would advance one step
    for name, bad in (("measure_steps", True), ("seed", False)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= ., got {bad}$"):
            SimConfig(graph=g, rho=1.0, **{name: bad})
    st = SimState(g, [0, 1], traffic=None)
    with pytest.raises(ValueError, match=r"^count must be an integer >= 0, got True$"):
        st.run_steps(True)
    assert st.clock == 0


def test_hosts_must_be_mutually_reachable():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="different components"):
        SimState(g, [0, 2])
    # a component without hosts does not matter
    st = SimState(g, [0, 1], traffic=None)
    st.inject(0, 1)
    st.run_steps(2)
    assert st.delivered_total == 1


def test_conservation_and_delivery_bound_under_load():
    g, _ = giant_component(
        generate_static_model(GenParams.from_avg_degree(100, 3.0, 1.0, 3))
    )
    cfg = SimConfig(
        graph=g,
        rho=0.3,
        traffic=ErramilliParams(2.0, 2.0, 0.7),
        warmup_steps=100,
        measure_steps=400,
        seed=11,
    )
    metrics = run(cfg)  # raises on a delivery under its hop distance or a bad census
    assert metrics.generated_total == metrics.delivered_total + metrics.in_flight_at_end
    assert metrics.generated > 0 and metrics.delivered > 0


def test_delivery_times_at_least_hop_distance():
    g = cycle_graph(9)
    dist = all_pairs_hop_distances(g)
    traffic = ErramilliParams(1.5, 1.5, 0.5)
    st = SimState(g, hosts=list(range(9)), traffic=traffic, seed=4)
    st.run_steps(500)
    ref = reference_run(g, range(9), traffic, 4, 500)
    assert_equals_reference(st, ref)
    assert ref.records
    for _, src, dst, created_at, delivered_at in ref.records:
        assert delivered_at - created_at >= int(dist[src, dst])


def test_simmetrics_digest_is_pinned():
    # SHA-256 over repr(SimMetrics) of 18 runs, unchanged since the
    # simulator's first release until the map's exponent-2 term became
    # c * y * y; blocks of 1024 source bits are crossed.
    # It depends on numpy's default_rng streams (graphs, hosts, sources)
    # as well as on the simulator.
    digest = hashlib.sha256()
    for alpha in (0.0, 0.5, 1.0):
        for seed in (1, 2):
            g, _ = giant_component(
                generate_static_model(GenParams.from_avg_degree(200, 3.0, alpha, seed))
            )
            for d in (0.95, 0.85, 0.7):
                cfg = SimConfig(graph=g, traffic=ErramilliParams(2.0, 2.0, d),
                                warmup_steps=300, measure_steps=3000, seed=seed)
                m = run(cfg)
                # the series as the list it was when the digest was pinned
                series = m.queue_length_timeseries.tolist()
                digest.update(repr(dataclasses.replace(m, queue_length_timeseries=series)).encode())
    assert digest.hexdigest() == (
        "c203faad937ff5f71803e347162135e9227d20d87fcf4d9790d726e4827cacc2"
    )


def test_run_is_deterministic():
    g, _ = giant_component(
        generate_static_model(GenParams.from_avg_degree(120, 3.0, 0.5, 5))
    )
    cfg = SimConfig(
        graph=g, rho=0.25, traffic=ErramilliParams(2.0, 2.0, 0.8),
        warmup_steps=100, measure_steps=300, seed=21,
    )
    a = run(cfg)
    b = run(cfg)
    assert a == b


def test_window_without_deliveries_reports_nan_delay():
    # on the path 0-1-2-3 with hosts {0, 3} no packet can arrive in fewer
    # than 3 steps, so a one-step window delivers nothing
    g = path_graph(4)
    cfg = SimConfig(graph=g, rho=0.5, traffic=ErramilliParams(2.0, 2.0, 0.05),
                    warmup_steps=0, measure_steps=1, seed=11)
    assert assign_hosts(g, 0.5, 11) == [0, 3]
    m = run(cfg)
    assert m.generated > 0 and m.delivered == 0 and m.delivered_total == 0
    assert math.isnan(m.mean_delivery_time)


def test_k4_all_hosts_delivers_in_one_hop():
    # diameter 1: every forward goes straight to the destination, so no
    # vertex ever relays transit traffic and delivery takes >= 1 step
    g = complete_graph(4)
    st = SimState(g, hosts=list(range(4)),
                  traffic=ErramilliParams(1.5, 1.5, 0.8), seed=3)
    st.run_steps(300)
    assert st.delivered_total > 0
    assert np.all(measure_load_proxy(st) == 0)
    assert st.delay_total >= st.delivered_total


def test_congestion_grows_with_generation_rate():
    # descending threshold d = ascending On rate; in-flight backlog must not shrink
    g, _ = giant_component(
        generate_static_model(GenParams.from_avg_degree(120, 3.0, 0.5, 2))
    )
    backlog = []
    for d in (0.95, 0.88, 0.8, 0.7, 0.55):
        inf = []
        for seed in range(10):
            cfg = SimConfig(
                graph=g, rho=0.25, traffic=ErramilliParams(2.0, 2.0, d),
                warmup_steps=200, measure_steps=800, seed=seed,
            )
            inf.append(run(cfg).in_flight_at_end)
        backlog.append(float(np.mean(inf)))
    assert all(b >= a for a, b in zip(backlog, backlog[1:])), backlog


# -- load proxy -----------------------------------------------------------------------------

def test_load_proxy_zero_without_traffic():
    st = SimState(cycle_graph(6), hosts=[0, 3], traffic=None)
    st.run_steps(10)
    assert np.all(measure_load_proxy(st) == 0)


def test_load_proxy_counts_unique_path_interior():
    g = path_graph(5)
    st = SimState(g, hosts=[0, 4], traffic=None)
    st.inject(0, 4)
    assert measure_load_proxy(st).tolist() == [0.0] * 5
    st.run_steps(1)  # the packet has left its origin and is not counted there
    assert measure_load_proxy(st).tolist() == [0.0] * 5
    st.run_steps(10)
    assert measure_load_proxy(st).tolist() == [0.0, 1.0, 1.0, 1.0, 0.0]


def test_load_proxy_pinned_on_a_saturated_run():
    # values of `reference_run`, which counts transit forwards one by one;
    # the backlog grows throughout (35, 330, 946 in flight at steps
    # 500, 1000, 1500), so many own packets are still queued at the end
    g, _ = giant_component(
        generate_static_model(GenParams.from_avg_degree(60, 3.0, 1.0, 2))
    )
    st = SimState(g, assign_hosts(g, 0.3, 2),
                  traffic=ErramilliParams(2.0, 2.0, 0.7), seed=2)
    st.run_steps(1500)
    assert (st.generated_total, st.in_flight) == (4741, 946)
    assert measure_load_proxy(st).tolist() == [
        1377, 1421, 477, 97, 394, 183, 0, 317, 632, 1009, 0, 192, 261, 42, 0, 0, 22, 20,
        12, 0, 0, 0, 68, 0, 0, 0, 0, 289, 0, 0, 0, 0, 972, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0,
    ]


def test_load_proxy_rank_correlates_with_static_load():
    g, _ = giant_component(
        generate_static_model(GenParams.from_avg_degree(500, 3.0, 0.5, 4))
    )
    hosts = assign_hosts(g, 0.16, 4)
    st = SimState(g, hosts, traffic=ErramilliParams(2.0, 2.0, 0.9), seed=4)
    st.run_steps(10_000)
    rho_s = spearmanr(measure_load_proxy(st), compute_load(g)).statistic
    assert rho_s > 0.7


# -- inspection ------------------------------------------------------------------------------

def test_node_state_view():
    g = path_graph(3)
    st = SimState(g, hosts=[0, 2], traffic=None)
    assert st.inject(0, 2) == 0
    assert 0 in st.hosts and queue_length(st, 0) == 1
    assert st.link_counts[0] == [0]
    st.run_steps(1)
    assert queue_length(st, 0) == 0 and queue_length(st, 1) == 1
    assert st.link_counts[0] == [1]
    assert 1 not in st.hosts and st.delivered_total == 0
