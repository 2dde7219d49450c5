"""Discrete-time store-and-forward packet simulation.

Host nodes generate packets from their own On-Off map sources; every node
(host or router) owns an unbounded FIFO queue and forwards exactly one
head-of-queue packet per time step. The next hop is the neighbor closest
to the destination, ties broken first by the smallest per-link forward
counter, then uniformly at random. Congestion shows up as queue growth and
rising delivery times; nothing is ever dropped.
"""
from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .graphs import UNREACHABLE, Graph, _csr, _hop_distances
from .traffic import ErramilliParams, ErramilliSource, _check_int


# Steps per block of source bits in SimState.run_steps; bounds the spawn
# lists a block holds, whatever the number of steps asked for.
_BLOCK_STEPS = 1024
# (host, CSR slot) cells per block of _route_tables; bounds its temporaries
# whatever the number of hosts.
_ROUTE_BLOCK = 1 << 16


class TooFewHosts(ValueError):
    """Host density resolves to fewer than two hosts."""


class InvariantViolation(AssertionError):
    """A check of the packet accounting failed: at the end of every block of
    steps in every run, or after every step and packet under
    `check_invariants=True`. Raised, not asserted, so that it also runs
    under `python -O`."""


@dataclass(slots=True)
class Packet:
    """Log record of one packet, kept under `check_invariants` only."""

    id: int
    src: int
    dst: int
    created_at: int
    delivered_at: int | None = None


@dataclass
class SimConfig:
    graph: Graph
    rho: float = 0.16
    traffic: ErramilliParams = field(default_factory=ErramilliParams)
    warmup_steps: int = 1000
    measure_steps: int = 10_000
    seed: int = 0
    check_invariants: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must lie in (0, 1]")
        _check_int("warmup_steps", self.warmup_steps, 0)
        _check_int("measure_steps", self.measure_steps, 1)
        _check_int("seed", self.seed, 0)


@dataclass
class SimMetrics:
    """Window counters cover the measurement phase; totals cover the whole
    run (warmup included) and satisfy generated_total = delivered_total +
    in_flight_at_end."""

    generated: int
    delivered: int
    mean_delivery_time: float
    in_flight_at_end: int
    max_queue: int
    generated_total: int
    delivered_total: int
    queue_length_timeseries: list[int]


def assign_hosts(g: Graph, rho: float, seed: int) -> list[int]:
    """Uniformly random host subset of size round(rho * N), sorted."""
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must lie in (0, 1]")
    _check_int("seed", seed, 0)
    n = g.n_vertices
    count = int(math.floor(rho * n + 0.5))
    if count < 2:
        raise TooFewHosts(f"rho={rho} on {n} vertices yields {count} host(s)")
    rng = np.random.default_rng(seed)
    return sorted(int(v) for v in rng.choice(n, size=count, replace=False))


def _route(cand: tuple[int, ...], counts_row: list[int], tie_rng: random.Random) -> int:
    """Pick among the closer positions `cand`: least used link, then at random."""
    if len(cand) > 1:
        best_c = min(counts_row[k] for k in cand)
        cand = [k for k in cand if counts_row[k] == best_c]
        if len(cand) > 1:
            return cand[tie_rng.randrange(len(cand))]
    return cand[0]


def _route_tables(
    graph: Graph, hosts: list[int], dist: np.ndarray
) -> list[list[tuple[int, ...]] | None]:
    """Routes toward each host `dst`: entry v of its table holds the positions
    in v's adjacency list of the neighbours one hop closer to dst, empty at
    dst itself and out of its reach. Row i of `dist` holds the hop counts to
    hosts[i]; the tables of other vertices are None.

    Built with numpy over the CSR slots, a block of host rows at a time.
    Every entry is first a code into the shared entries: 0 for none, 1 + k
    for the one neighbour at position k, and past those the tuples of
    several positions, interned, so that equal entries are one object.
    """
    n = graph.n_vertices
    deg, indptr, indices = _csr(graph)
    owner = np.repeat(np.arange(n), deg)
    single: list[tuple[int, ...]] = [()] + [(k,) for k in range(int(deg.max()))]
    shared: dict[tuple[int, ...], int] = {}
    routes: list[list[tuple[int, ...]] | None] = [None] * n
    rows = max(1, _ROUTE_BLOCK // indices.size)
    for r0 in range(0, len(hosts), rows):
        block = dist[r0 : r0 + rows]
        # (row, slot) pairs whose neighbour is one hop closer to the row's
        # host than the slot's owner, which nonzero lists by cell (row * n +
        # owner), then by position
        row, slot = np.nonzero(block[:, indices] == block[:, owner] - 1)
        v = owner.take(slot)
        pos = slot - indptr.take(v)
        count = np.bincount(row * n + v, minlength=block.size)
        first = np.cumsum(count) - count  # each cell's first pair
        code = np.zeros(block.size, dtype=np.intp)
        one = np.flatnonzero(count == 1)
        code[one] = pos.take(first.take(one)) + 1
        multi = np.flatnonzero(count > 1)
        pos = pos.tolist()
        code[multi] = len(single) + np.array(
            [
                shared.setdefault(tuple(pos[o : o + k]), len(shared))
                for o, k in zip(first.take(multi).tolist(), count.take(multi).tolist())
            ],
            dtype=np.intp,
        )
        entries = np.fromiter(
            chain(single, shared), dtype=object, count=len(single) + len(shared)
        )
        for dst, codes in zip(hosts[r0 : r0 + rows], code.reshape(block.shape)):
            routes[dst] = entries.take(codes).tolist()
    return routes


class _Shared:
    """What the runs of one sweep share: source streams, and the layout
    (sorted hosts and their route tables) of the last graph.

    Stream (traffic, seed, i) is host i's source in a run of `seed`, child
    2 + i of SeedSequence(seed). Its spawn key does not depend on the number
    of hosts, so runs of one (traffic, seed) on different graphs replay the
    same first streams: each is drawn once and held, packed eight bits to a
    byte (`np.packbits`) next to its source, while the store lives. The
    layout is kept for the last (graph, hosts) only, as the runs of one
    graph are consecutive. A `SimState` without a store makes its own.
    """

    def __init__(self):
        # (traffic, seed, i) -> (source, packed bits)
        self._streams: dict[tuple, tuple[ErramilliSource, bytearray]] = {}
        self._layout = None

    def bits(self, key: tuple, start: int, count: int) -> np.ndarray:
        """Bits start .. start + count - 1 (uint8) of stream `key`. Missing
        bytes are drawn whole, and stored only once drawn, so a run that
        raises leaves no half-extended stream; the source stands just past
        the bits held."""
        if key not in self._streams:
            traffic, seed, i = key
            child = np.random.SeedSequence(seed, spawn_key=(2 + i,))
            self._streams[key] = (ErramilliSource(traffic, seed=child), bytearray())
        source, packed = self._streams[key]
        end = start + count
        missing = -(-end // 8) - len(packed)
        if missing > 0:
            packed += np.packbits(source.bits(8 * missing)).tobytes()
        lo = start // 8
        # a live frombuffer view would make the next `packed +=` raise
        held = np.unpackbits(np.frombuffer(packed, dtype=np.uint8)[lo:], count=end - 8 * lo)
        return held[start - 8 * lo:]

    def layout(self, graph: Graph, hosts: list[int]):
        """(sorted hosts, their `_route_tables`); the hosts must reach each other."""
        hosts = sorted(hosts)
        last = self._layout
        if last is None or last[0] is not graph or last[1] != hosts:
            self._layout = None  # the old tables go before new ones are built
            dist = _hop_distances(graph, hosts)  # row i: hop counts to hosts[i]
            for h in hosts:  # reachability is transitive: one row decides every pair
                if dist[0, h] == UNREACHABLE:
                    raise ValueError(f"hosts {hosts[0]} and {h} are in different components")
            last = self._layout = (graph, hosts, _route_tables(graph, hosts, dist))
        return last[1:]


class SimState:
    """Owned mutable state of one simulation run.

    Every step has two phases. Generation: each host advances its source
    once and, on an On bit, appends a fresh packet (uniform random
    destination among the other hosts) to its own queue. Forwarding: every
    node whose queue was non-empty at the start of the phase pops exactly
    its head packet and hands it to the routing choice; arrivals go to the
    tail of the receiving queue and cannot move again until the next step.
    A packet handed to its destination is delivered, never enqueued.

    Per-link forward counters are consulted only by the owning node and
    each node forwards at most once per step, so updating them in place is
    equivalent to the phase-start snapshot. Nodes are processed in
    ascending index order, which pins the tie-break RNG stream and makes
    runs bit-reproducible.

    Routes are tabulated from one BFS per host, `_routes[dst][v]` for every
    host `dst`; hosts must reach each other. Source bits and routes come
    from a `_Shared` store, the state's own unless `_shared` is given.
    A queued packet is a tuple (id, src, dst, created_at). Under
    `check_invariants` only, `packets` logs a `Packet` per id and each
    queue's pops are checked against its arrival order.

    Counters are totals since clock 0, `delay_total` the delivery steps summed
    over delivered packets; `run` takes its window as a difference of totals.
    """

    def __init__(
        self,
        graph: Graph,
        hosts: list[int],
        traffic: ErramilliParams | None = None,
        seed: int = 0,
        check_invariants: bool = False,
        _shared: _Shared | None = None,
    ):
        _check_int("seed", seed, 0)
        n = graph.n_vertices
        if len(hosts) < 2:
            raise TooFewHosts("need at least 2 hosts")
        if len(set(hosts)) != len(hosts) or not all(0 <= h < n for h in hosts):
            raise ValueError("hosts must be distinct vertex indices")
        shared = _Shared() if _shared is None else _shared
        hosts, self._routes = shared.layout(graph, hosts)

        self.graph = graph
        self.hosts = hosts
        self._host_set = set(hosts)
        self._adj = graph.adjacency
        self._check = check_invariants

        dest_ss, tie_ss = np.random.SeedSequence(seed).spawn(2)
        self._dest_rng = random.Random(int(dest_ss.generate_state(1)[0]))
        self._tie_rng = random.Random(int(tie_ss.generate_state(1)[0]))
        self._shared = shared
        self._keys = [(traffic, seed, i) for i in range(len(hosts))] if traffic else []

        self._queues: list[deque[tuple[int, int, int, int]]] = [deque() for _ in range(n)]
        self.link_counts: list[list[int]] = [[0] * len(nbrs) for nbrs in self._adj]
        self._generated_at = [0] * n
        self._active: set[int] = set()

        # Under checking: every packet by id, queue ids in arrival order, hop counts.
        self._host_dist = (
            dict(zip(hosts, _hop_distances(graph, hosts))) if check_invariants else None
        )
        self.packets: list[Packet] | None = [] if check_invariants else None
        self._arrivals = [deque() for _ in range(n)] if check_invariants else None
        self.clock = 0
        self.generated_total = 0
        self.delivered_total = 0
        self.delay_total = 0
        self.in_flight = 0
        self.max_queue = 0
        self.queue_series: list[int] = []

    def queue_length(self, v: int) -> int:
        return len(self._queues[v])

    def inject(self, src: int, dst: int) -> Packet:
        """Manually enqueue a packet at `src` (both endpoints must be hosts).

        The returned record gets its `delivered_at` only under checking,
        where it is the logged one."""
        if src not in self._host_set or dst not in self._host_set:
            raise ValueError("src and dst must be hosts")
        if src == dst:
            raise ValueError("src and dst must differ")
        pkt = Packet(self.generated_total, src, dst, self.clock)
        if self.packets is not None:
            self.packets.append(pkt)
            self._arrivals[src].append(pkt.id)
        q = self._queues[src]
        q.append((pkt.id, src, dst, pkt.created_at))
        self._active.add(src)
        self.max_queue = max(self.max_queue, len(q))
        self._generated_at[src] += 1
        self.generated_total += 1
        self.in_flight += 1
        return pkt

    # -- dynamics ----------------------------------------------------------

    def step(self) -> None:
        """Advance one time step (generation phase, then forwarding phase)."""
        self.run_steps(1)

    def run_steps(self, count: int) -> None:
        """Advance `count` time steps, in blocks of at most _BLOCK_STEPS."""
        _check_int("count", count, 0)
        for start in range(0, count, _BLOCK_STEPS):
            self._run_block(min(_BLOCK_STEPS, count - start))

    def _run_block(self, count: int) -> None:
        """Advance `count` time steps.

        Each host's bits for the block are read up front, those of steps
        clock .. clock + count - 1 of its stream, and hosts still spawn in
        ascending order within a step. The counters live in locals for the
        block and are stored back when it ends or raises. A block that ends
        checks the queue census and packet conservation, O(N), whether or
        not `check_invariants` is set.
        """
        hosts = self.hosts
        generated_at = self._generated_at
        spawners: list[list[int]] = [[] for _ in range(count)]
        for i, (h, key) in enumerate(zip(hosts, self._keys)):
            on = np.flatnonzero(self._shared.bits(key, self.clock, count)).tolist()
            generated_at[h] += len(on)
            for t in on:
                spawners[t].append(i)

        queues = self._queues
        active = self._active
        adj = self._adj
        routes = self._routes
        counts = self.link_counts
        tie_rng = self._tie_rng
        getrandbits = self._dest_rng.getrandbits
        others = len(hosts) - 1
        width = others.bit_length()
        series = self.queue_series
        check = self._check
        log = self.packets
        arrivals = self._arrivals
        host_dist = self._host_dist

        t = self.clock
        pid = self.generated_total
        delivered = self.delivered_total
        delay = self.delay_total
        in_flight = self.in_flight
        max_queue = self.max_queue
        try:
            for on_hosts in spawners:
                for i in on_hosts:
                    # randrange(others) without its two Python-level calls:
                    # the same rejection draw, so the same stream
                    j = getrandbits(width)
                    while j >= others:
                        j = getrandbits(width)
                    if j >= i:
                        j += 1
                    h = hosts[i]
                    dst = hosts[j]
                    q = queues[h]
                    q.append((pid, h, dst, t))
                    active.add(h)
                    if len(q) > max_queue:
                        max_queue = len(q)
                    if check:
                        log.append(Packet(pid, h, dst, t))
                        arrivals[h].append(pid)
                    pid += 1
                in_flight += len(on_hosts)

                for node in sorted(active):
                    q = queues[node]
                    pkt = q.popleft()
                    if not q:
                        active.discard(node)
                    if check and arrivals[node].popleft() != pkt[0]:
                        raise InvariantViolation(f"vertex {node} broke FIFO order")
                    dst = pkt[2]
                    cand = routes[dst][node]
                    row = counts[node]
                    k = cand[0] if len(cand) == 1 else _route(cand, row, tie_rng)
                    row[k] += 1
                    nxt = adj[node][k]
                    if nxt == dst:
                        delivered += 1
                        delay += t + 1 - pkt[3]
                        in_flight -= 1
                        if check:
                            rec = log[pkt[0]]
                            rec.delivered_at = t + 1
                            if rec.delivered_at - rec.created_at < host_dist[dst][rec.src]:
                                raise InvariantViolation(
                                    f"packet {rec.id} beat the hop-distance lower bound"
                                )
                    else:
                        q = queues[nxt]
                        q.append(pkt)
                        active.add(nxt)
                        if len(q) > max_queue:
                            max_queue = len(q)
                        if check:
                            arrivals[nxt].append(pkt[0])

                t += 1
                series.append(in_flight)
                if check:
                    self._assert_invariants(pid, delivered, in_flight)
            self._assert_invariants(pid, delivered, in_flight)
        finally:
            self.clock = t
            self.generated_total = pid
            self.delivered_total = delivered
            self.delay_total = delay
            self.in_flight = in_flight
            self.max_queue = max_queue

    def _assert_invariants(self, generated: int, delivered: int, in_flight: int) -> None:
        queued = sum(len(q) for q in self._queues)
        if queued != in_flight:
            raise InvariantViolation("queue census disagrees with in-flight count")
        if generated != delivered + in_flight:
            raise InvariantViolation("packet conservation violated")


def run(config: SimConfig, _shared: _Shared | None = None) -> SimMetrics:
    """Execute warmup then measurement; every host must reach every other.

    Warmup steps feed the queues; the window counts are the run totals after
    the measurement steps minus those after the warmup, so the throughput is
    the packets delivered inside the window. Deterministic per (config, seed),
    with or without the store `_shared` of a sweep's runs.
    """
    g = config.graph
    state = SimState(
        g,
        assign_hosts(g, config.rho, config.seed),
        traffic=config.traffic,
        seed=config.seed,
        check_invariants=config.check_invariants,
        _shared=_shared,
    )
    state.run_steps(config.warmup_steps)
    warm = (state.generated_total, state.delivered_total, state.delay_total)
    state.run_steps(config.measure_steps)
    delivered = state.delivered_total - warm[1]
    delay = state.delay_total - warm[2]
    return SimMetrics(
        generated=state.generated_total - warm[0],
        delivered=delivered,
        mean_delivery_time=delay / delivered if delivered else float("nan"),
        in_flight_at_end=state.in_flight,
        max_queue=state.max_queue,
        generated_total=state.generated_total,
        delivered_total=state.delivered_total,
        queue_length_timeseries=state.queue_series,
    )


def measure_load_proxy(state: SimState) -> np.ndarray:
    """Per-vertex count of transit packets forwarded (packets originated at
    the vertex itself excluded), comparable in rank to the static load.

    A packet never revisits a vertex, so each own packet a vertex has
    forwarded is one it generated and no longer holds: the transit count
    is all forwards minus (own generated - own still queued).
    """
    own_queued = [sum(1 for p in q if p[1] == v) for v, q in enumerate(state._queues)]
    proxy = [
        sum(row) - generated + queued
        for row, generated, queued in zip(state.link_counts, state._generated_at, own_queued)
    ]
    return np.asarray(proxy, dtype=np.float64)
