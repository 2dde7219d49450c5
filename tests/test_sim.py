import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import spearmanr

import netqsim
from netqsim import (
    ErramilliParams,
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
from _helpers import (
    assert_equals_reference, complete_graph, cycle_graph, path_graph, reference_run,
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
        st.step()
        assert (st.queue_length(1), st.queue_length(3)) == (0, 1)
    assert st.link_counts[0] == [20, 20]


def test_next_hop_random_tie_is_uniform():
    st = SimState(cycle_graph(4), hosts=[0, 2], traffic=None)
    picks = {1: 0, 3: 0}
    trials = 10_000
    for _ in range(trials):
        st.link_counts[0][:] = [0, 0]  # equal counters leave the pick to the RNG
        st.inject(0, 2)
        st.step()  # also delivers the previous packet from 1 or 3
        assert st.queue_length(1) + st.queue_length(3) == 1
        picks[1] += st.queue_length(1)
        picks[3] += st.queue_length(3)
    assert abs(picks[1] / trials - 0.5) <= 0.05
    assert abs(picks[3] / trials - 0.5) <= 0.05


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_route_tables_hold_the_closest_neighbours(alpha):
    g, _ = giant_component(
        generate_static_model(GenParams.from_avg_degree(100, 3.0, alpha, 4))
    )
    dist = all_pairs_hop_distances(g)
    hosts = assign_hosts(g, 0.3, 4)
    st = SimState(g, hosts)
    for dst in hosts:
        for v, nbrs in enumerate(g.adjacency):
            if v == dst:
                continue
            # reference: every neighbour at the minimum distance to dst
            best = min(dist[u, dst] for u in nbrs)
            expected = tuple(k for k, u in enumerate(nbrs) if dist[u, dst] == best)
            assert st._routes[dst][v], (dst, v)
            assert st._routes[dst][v] == expected, (dst, v)


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
        assert st._routes == SimState(g, hosts)._routes


# -- stepping -------------------------------------------------------------------------

def test_idle_step_only_advances_clock():
    st = SimState(path_graph(4), hosts=[0, 3], traffic=None, check_invariants=True)
    st.run_steps(5)
    assert st.clock == 5
    assert st.generated_total == 0 and st.delivered_total == 0
    assert st.queue_series == [0] * 5


def delivery_totals(st: SimState, steps: int) -> list[tuple[int, int]]:
    """(delivered_total, delay_total) after each of `steps` further steps."""
    totals = []
    for _ in range(steps):
        st.step()
        totals.append((st.delivered_total, st.delay_total))
    return totals


def test_single_packet_delivered_in_hop_distance_steps():
    g = path_graph(6)
    st = SimState(g, hosts=[0, 5], traffic=None, check_invariants=True)
    assert st.inject(0, 5) == 0
    assert delivery_totals(st, 10) == [(0, 0)] * 4 + [(1, 5)] * 6


def test_one_departure_per_node_per_step():
    g = path_graph(3)
    st = SimState(g, hosts=[0, 2], traffic=None, check_invariants=True)
    st.inject(0, 2)
    st.inject(0, 2)
    st.step()
    # only the head moved
    assert st.queue_length(0) == 1 and st.queue_length(1) == 1
    # a delivered at 2 and b at 3
    assert delivery_totals(st, 5) == [(1, 2)] + [(2, 5)] * 4


def test_fifo_discipline_preserves_order():
    g = path_graph(4)
    st = SimState(g, hosts=[0, 3], traffic=None, check_invariants=True)
    assert [st.inject(0, 3) for _ in range(5)] == [0, 1, 2, 3, 4]
    # ids queued at vertices 0, 1, 2 and (delivered, delay) totals after
    # each step: packet i leaves first in step i + 1 and arrives at i + 3
    expected = [
        ([[1, 2, 3, 4], [0], []], (0, 0)),
        ([[2, 3, 4], [1], [0]], (0, 0)),
        ([[3, 4], [2], [1]], (1, 3)),
        ([[4], [3], [2]], (2, 7)),
        ([[], [4], [3]], (3, 12)),
        ([[], [], [4]], (4, 18)),
        ([[], [], []], (5, 25)),
    ]
    for queued, totals in expected:
        st.step()
        assert [[p[0] for p in st._queues[v]] for v in range(3)] == queued
        assert (st.delivered_total, st.delay_total) == totals
    st.run_steps(13)
    assert (st.delivered_total, st.delay_total) == (5, 25)


def test_arrivals_wait_for_next_step():
    # the packet must not ride more than one hop per step even through
    # nodes whose queues were empty this step
    g = path_graph(5)
    st = SimState(g, hosts=[0, 4], traffic=None, check_invariants=True)
    st.inject(0, 4)
    st.step()
    assert st.queue_length(1) == 1 and st.queue_length(2) == 0


def test_run_steps_block_equals_single_steps():
    g, _ = giant_component(
        generate_static_model(GenParams.from_avg_degree(80, 3.0, 0.5, 3))
    )
    hosts = assign_hosts(g, 0.3, 3)
    traffic = ErramilliParams(2.0, 2.0, 0.7)
    block = SimState(g, hosts, traffic=traffic, seed=8)
    single = SimState(g, hosts, traffic=traffic, seed=8)
    block.run_steps(50)
    block.run_steps(1100)  # crosses a block boundary of the source bits
    for _ in range(1150):
        single.step()
    assert block.generated_total > 0 and block.delivered_total > 0
    assert block.queue_series == single.queue_series
    for name in ("generated_total", "delivered_total", "delay_total", "in_flight",
                 "max_queue"):
        assert getattr(block, name) == getattr(single, name), name
    assert block.link_counts == single.link_counts
    # both stores hold 1152 bits a stream: the 1150 steps rounded up to whole bytes
    held = [
        [(source.x, packed) for source, packed in state._shared._streams.values()]
        for state in (block, single)
    ]
    assert held[0] == held[1]
    assert [len(packed) for _, packed in held[0]] == [144] * len(hosts)


def test_invariant_violation_is_raised():
    assert issubclass(InvariantViolation, AssertionError)
    st = SimState(path_graph(4), hosts=[0, 3], traffic=None, check_invariants=True)
    st.inject(0, 3)
    st.step()
    st.in_flight += 1
    with pytest.raises(InvariantViolation, match="census"):
        st.step()

    st = SimState(path_graph(4), hosts=[0, 3], traffic=None, check_invariants=True)
    st.inject(0, 3)
    q = st._queues[0]
    q[0] = q[0][:3] + (q[0][3] + 1,)  # created_at raised: three hops in two steps
    with pytest.raises(InvariantViolation, match="lower bound"):
        st.run_steps(3)

    st = SimState(path_graph(4), hosts=[0, 3], traffic=None, check_invariants=True)
    st.inject(0, 3)
    st.inject(0, 3)
    q = st._queues[0]
    q[0], q[1] = q[1], q[0]  # the second arrival now leaves first
    with pytest.raises(InvariantViolation, match="FIFO"):
        st.step()


def test_block_end_checks_the_accounting_without_check_invariants():
    st = SimState(path_graph(4), hosts=[0, 3], traffic=None)
    st.inject(0, 3)
    st._queues[1].append((7, 0, 3, 0))  # a packet no host generated
    with pytest.raises(InvariantViolation, match="census"):
        st.run_steps(2)

    st = SimState(path_graph(4), hosts=[0, 3], traffic=None)
    st.inject(0, 3)
    st.generated_total += 1
    with pytest.raises(InvariantViolation, match="conservation"):
        st.step()


def test_invariant_violation_survives_python_O():
    code = (
        "import sys\n"
        "from netqsim import Graph\n"
        "from netqsim.sim import SimState\n"
        "g = Graph(4, [(0, 1), (1, 2), (2, 3)])\n"
        "st = SimState(g, [0, 3], traffic=None, check_invariants=True)\n"
        "st.inject(0, 3)\n"
        "st.step()\n"
        "st.in_flight += 1\n"
        "print(sys.flags.optimize, flush=True)\n"
        "st.step()\n"
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
    # the run equals the reference, whose delivered packets and the
    # simulator's queued ones are every packet generated
    g = complete_graph(5)
    traffic = ErramilliParams(1.5, 1.5, 0.3)
    st = SimState(g, hosts=[0, 1, 2], traffic=traffic, seed=6, check_invariants=True)
    st.run_steps(200)
    ref = reference_run(g, [0, 1, 2], traffic, 6, 200)
    assert_equals_reference(st, ref)
    packets = [r[:4] for r in ref.records] + [p for q in st._queues for p in q]
    assert sorted(p[0] for p in packets) == list(range(st.generated_total))
    assert st.generated_total > 0
    for _, src, dst, _ in packets:
        assert src in (0, 1, 2) and dst in (0, 1, 2)
        assert src != dst


# -- full runs ---------------------------------------------------------------------------

def test_inject_returns_the_next_packet_id():
    # no per-packet log is kept, checked or not: a queued tuple is all there is
    for check in (False, True):
        st = SimState(path_graph(4), hosts=[0, 3], traffic=ErramilliParams(2.0, 2.0, 0.5),
                      check_invariants=check)
        st.run_steps(50)
        assert not hasattr(st, "packets")
        pid = st.inject(0, 3)
        assert pid == st.generated_total - 1 > 0
        assert st._queues[0][-1] == (pid, 0, 3, 50)


def test_run_requires_connected_graph():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        run(SimConfig(graph=g, rho=1.0, measure_steps=10))
    # step counts that are not integers >= 0 are rejected up front
    for bad in ({"warmup_steps": 1.5}, {"warmup_steps": -1}, {"measure_steps": 2.0}):
        with pytest.raises(ValueError, match="steps"):
            SimConfig(graph=g, rho=1.0, **bad)


def test_hosts_must_be_mutually_reachable():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="different components"):
        SimState(g, [0, 2])
    # a component without hosts does not matter
    st = SimState(g, [0, 1], traffic=None, check_invariants=True)
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
        check_invariants=True,  # asserts conservation and queue census per step
    )
    metrics = run(cfg)
    assert metrics.generated_total == metrics.delivered_total + metrics.in_flight_at_end
    assert metrics.generated > 0 and metrics.delivered > 0


def test_delivery_times_at_least_hop_distance():
    g = cycle_graph(9)
    dist = all_pairs_hop_distances(g)
    traffic = ErramilliParams(1.5, 1.5, 0.5)
    st = SimState(g, hosts=list(range(9)), traffic=traffic, seed=4, check_invariants=True)
    st.run_steps(500)
    ref = reference_run(g, range(9), traffic, 4, 500)
    assert_equals_reference(st, ref)
    assert ref.records
    for _, src, dst, created_at, delivered_at in ref.records:
        assert delivered_at - created_at >= int(dist[src, dst])


def test_simmetrics_digest_is_pinned():
    # SHA-256 over repr(SimMetrics) of 18 runs, unchanged since the
    # simulator's first release; blocks of 1024 source bits are crossed.
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
                digest.update(repr(run(cfg)).encode())
    assert digest.hexdigest() == (
        "9c27fcf6a8f6743d132a575627eb462af54aea0e984d121eca4be95eb3b4eb79"
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
                  traffic=ErramilliParams(1.5, 1.5, 0.8), seed=3,
                  check_invariants=True)
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
    st.step()  # the packet has left its origin and is not counted there
    assert measure_load_proxy(st).tolist() == [0.0] * 5
    st.run_steps(10)
    assert measure_load_proxy(st).tolist() == [0.0, 1.0, 1.0, 1.0, 0.0]


def test_load_proxy_pinned_on_a_saturated_run():
    # values of the simulator that counted transit forwards one by one;
    # the backlog grows throughout (310, 835, 1159 in flight at steps
    # 500, 1000, 1500), so many own packets are still queued at the end
    g, _ = giant_component(
        generate_static_model(GenParams.from_avg_degree(60, 3.0, 1.0, 2))
    )
    st = SimState(g, assign_hosts(g, 0.3, 2),
                  traffic=ErramilliParams(2.0, 2.0, 0.7), seed=2)
    st.run_steps(1500)
    assert (st.generated_total, st.in_flight) == (5298, 1159)
    assert measure_load_proxy(st).tolist() == [
        1495, 1439, 618, 79, 922, 137, 0, 1048, 631, 732, 0, 607, 196, 210, 0, 0, 0,
        55, 54, 0, 0, 0, 140, 0, 0, 0, 0, 45, 0, 0, 0, 0, 369, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
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
    assert 0 in st.hosts and st.queue_length(0) == 1
    assert st.link_counts[0] == [0]
    st.step()
    assert st.queue_length(0) == 0 and st.queue_length(1) == 1
    assert st.link_counts[0] == [1]
    assert 1 not in st.hosts and st.delivered_total == 0
