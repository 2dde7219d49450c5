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
from array import array
from bisect import insort
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .graphs import UNREACHABLE, Graph, _csr, _hop_distances
from .traffic import _BURN_IN, ErramilliParams, ErramilliSource, _check_int, _is_int


# Steps per block of SimState.run_steps; bounds the spawn lists a block
# holds, whatever the number of steps asked for.
_BLOCK_STEPS = 1024
# (host, CSR slot) cells per block of _route_tables; bounds its temporaries
# whatever the number of hosts.
_ROUTE_BLOCK = 1 << 16


class TooFewHosts(ValueError):
    """Host density resolves to fewer than two hosts."""


class InvariantViolation(AssertionError):
    """A check of the packet accounting failed, in any run: a delivered
    packet's delay against the hop distance from its source, or the queue
    census or packet conservation at the end of a block of steps. Raised,
    not asserted, so that it also runs under `python -O`."""


@dataclass
class SimConfig:
    graph: Graph
    rho: float = 0.16
    traffic: ErramilliParams = field(default_factory=ErramilliParams)
    warmup_steps: int = 1000
    measure_steps: int = 10_000
    seed: int = 0

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
    in_flight_at_end. `queue_length_timeseries` holds the in-flight count
    after each step of the run, warmup included, as an `array('i')`: 4
    bytes a step."""

    generated: int
    delivered: int
    mean_delivery_time: float
    in_flight_at_end: int
    max_queue: int
    generated_total: int
    delivered_total: int
    queue_length_timeseries: array


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
    """Pick among the closer positions `cand`, a tuple route entry: least
    used link, then at random. The forwarding loop decides two-way ties
    itself, the same way; this is the rule for three or more. The empty
    entry () raises, as no forward may read it."""
    best_c = min(counts_row[k] for k in cand)
    cand = [k for k in cand if counts_row[k] == best_c]
    if len(cand) > 1:
        return cand[tie_rng.randrange(len(cand))]
    return cand[0]


def _route_tables(
    graph: Graph, hosts: list[int], dist: np.ndarray
) -> list[list[int | tuple[int, ...]] | None]:
    """Routes toward each host. Entry v of `routes[dst]` is the int k when
    the neighbour at position k of v's adjacency list is the only one one
    hop closer to dst, the tuple of the closer positions when there are
    several, and () at dst itself and out of its reach. Equal tuples are one
    object across all the tables. Row i of `dist` holds the hop counts to
    hosts[i]; the tables of other vertices are None.

    Built with numpy over the CSR slots, a block of host rows at a time.
    """
    n = graph.n_vertices
    deg, indptr, indices = _csr(graph)
    owner = np.repeat(np.arange(n), deg)
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # each tie tuple's one object
    routes: list[list[int | tuple[int, ...]] | None] = [None] * n
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
        entry = np.empty(block.size, dtype=object)
        entry.fill(())
        one = np.flatnonzero(count == 1)
        entry[one] = pos.take(first.take(one))
        multi = np.flatnonzero(count > 1)
        pos = pos.tolist()
        for c, o, k in zip(multi.tolist(), first[multi].tolist(), count[multi].tolist()):
            tie = tuple(pos[o : o + k])
            entry[c] = shared.setdefault(tie, tie)
        for dst, table in zip(hosts[r0 : r0 + rows], entry.reshape(block.shape).tolist()):
            routes[dst] = table
    return routes


class _Shared:
    """What the runs of one sweep share: source streams, and the layout
    (sorted hosts, their route tables and the hop distances to each host)
    of the last graph.

    Stream (traffic, seed, i) is host i's source in a run of `seed`, child
    2 + i of SeedSequence(seed). Its spawn key does not depend on the number
    of hosts, so runs of one (traffic, seed) on different graphs replay the
    same first streams: each is drawn once and held, packed eight bits to a
    byte (`np.packbits`), while the store lives. The store holds no source;
    `draw` builds one from the key for each extension. The layout is kept
    for the last (graph, hosts) only, as the runs of one graph are
    consecutive, until the next layout replaces it or the owner sets
    `_layout` to None. A `SimState` without a store makes its own.
    """

    def __init__(self):
        self._streams: dict[tuple, bytearray] = {}  # (traffic, seed, i) -> packed bits
        self._layout = None

    def draw(self, keys: list[tuple], end: int) -> None:
        """Hold bits 0 .. end - 1 at least of each stream of `keys`. A
        stream that falls short grows to `end` bits, or to twice its held
        bytes if that is more, so T steps read a few at a time cost O(T)
        map steps, not O(T^2). The missing bytes are drawn whole from a
        source built from the key, with the held bits added to its burn-in,
        which steps the orbit as `bits()` would; they are stored only once
        drawn, so a draw that raises leaves no half-extended stream."""
        for key in keys:
            packed = self._streams.get(key, bytearray())
            missing = -(-end // 8) - len(packed)
            if missing > 0:
                missing = max(missing, len(packed))
                traffic, seed, i = key
                child = np.random.SeedSequence(seed, spawn_key=(2 + i,))
                source = ErramilliSource(traffic, seed=child, burn_in=_BURN_IN + 8 * len(packed))
                packed += np.packbits(source.bits(8 * missing)).tobytes()
                self._streams[key] = packed

    def bits(self, key: tuple, start: int, count: int) -> np.ndarray:
        """Bits start .. start + count - 1 (uint8) of stream `key`, see `draw`."""
        end = start + count
        self.draw([key], end)
        lo = start // 8
        held = self._streams.get(key, b"")[lo : -(-end // 8)]
        return np.unpackbits(np.frombuffer(held, dtype=np.uint8))[start - 8 * lo : end - 8 * lo]

    def layout(self, graph: Graph, hosts: list[int]):
        """(sorted hosts, routes, hops): the hosts, their `_route_tables`,
        and `hops[dst]` the hop counts from every vertex to host dst, an
        `array('i')`; the hosts must reach each other."""
        hosts = sorted(hosts)
        last = self._layout
        if last is None or last[0] is not graph or last[1] != hosts:
            self._layout = None  # the old tables go before new ones are built
            dist = _hop_distances(graph, hosts)  # row i: hop counts to hosts[i]
            for h in hosts:  # reachability is transitive: one row decides every pair
                if dist[0, h] == UNREACHABLE:
                    raise ValueError(f"hosts {hosts[0]} and {h} are in different components")
            hops = {h: array("i", row.tobytes()) for h, row in zip(hosts, dist)}
            last = self._layout = (graph, hosts, _route_tables(graph, hosts, dist), hops)
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
    host `dst`: the int position in v's adjacency list of the one closer
    neighbour, or the tuple of the closer positions (see `_route_tables`);
    hosts must reach each other. A forward decides a two-way tie inline and
    a larger one with `_route`, by the same rule and the same draws. Source
    bits, drawn up to the last step of each `run_steps` call, and routes
    come from a `_Shared` store, the state's own unless `_shared` is given.
    A queued packet is one int, `(created * n + src) * n + dst` for n
    vertices, so a forward reads `dst = pkt % n`; no record of a packet
    outlives its delivery. Every delivery is checked against the hop
    distance from src, read from `_hops[dst]`, the BFS rows the routes were
    built from. `_active` lists the vertices that hold packets, ascending,
    between blocks and when a forwarding phase starts; the census at each
    block end checks it.

    Counters are totals since clock 0, `delay_total` the delivery steps summed
    over delivered packets; `run` takes its window as a difference of totals.
    """

    def __init__(
        self,
        graph: Graph,
        hosts: list[int],
        traffic: ErramilliParams | None = None,
        seed: int = 0,
        _shared: _Shared | None = None,
    ):
        _check_int("seed", seed, 0)
        n = graph.n_vertices
        if len(hosts) < 2:
            raise TooFewHosts("need at least 2 hosts")
        for h in hosts:
            if not _is_int(h):
                raise ValueError(f"hosts must be integer vertex indices, got {h!r}")
        if len(set(hosts)) != len(hosts) or not all(0 <= h < n for h in hosts):
            raise ValueError("hosts must be distinct vertex indices")
        shared = _Shared() if _shared is None else _shared
        hosts, self._routes, self._hops = shared.layout(graph, hosts)

        self.graph = graph
        self.hosts = hosts
        self._host_set = set(hosts)
        self._adj = graph.adjacency

        dest_ss, tie_ss = np.random.SeedSequence(seed).spawn(2)
        self._dest_rng = random.Random(int(dest_ss.generate_state(1)[0]))
        self._tie_rng = random.Random(int(tie_ss.generate_state(1)[0]))
        self._shared = shared
        self._keys = [(traffic, seed, i) for i in range(len(hosts))] if traffic else []

        self._queues: list[deque[int]] = [deque() for _ in range(n)]
        self.link_counts: list[list[int]] = [[0] * len(nbrs) for nbrs in self._adj]
        self._generated_at = [0] * n
        self._active: list[int] = []
        self.clock = 0
        self.generated_total = 0
        self.delivered_total = 0
        self.delay_total = 0
        self.in_flight = 0
        self.max_queue = 0
        # in flight after each step; an append past 2**31 - 1 raises
        # OverflowError rather than wrap
        self.queue_series = array("i")

    def inject(self, src: int, dst: int) -> int:
        """Manually enqueue a packet at `src` (both endpoints must be hosts),
        created at the current clock; returns the number of packets generated
        before it."""
        if src not in self._host_set or dst not in self._host_set:
            raise ValueError("src and dst must be hosts")
        if src == dst:
            raise ValueError("src and dst must differ")
        n = self.graph.n_vertices
        q = self._queues[src]
        if not q:
            insort(self._active, src)
        q.append((self.clock * n + src) * n + dst)
        self.max_queue = max(self.max_queue, len(q))
        self._generated_at[src] += 1
        self.generated_total += 1
        self.in_flight += 1
        return self.generated_total - 1

    # -- dynamics ----------------------------------------------------------

    def run_steps(self, count: int) -> None:
        """Advance `count` time steps, in blocks of at most _BLOCK_STEPS,
        after one `_Shared.draw` of the hosts' bits up to the last step."""
        _check_int("count", count, 0)
        self._shared.draw(self._keys, self.clock + count)
        for start in range(0, count, _BLOCK_STEPS):
            self._run_block(min(_BLOCK_STEPS, count - start))

    def _run_block(self, count: int) -> None:
        """Advance `count` time steps.

        Each host's bits for the block are read up front, those of steps
        clock .. clock + count - 1 of its stream, and hosts still spawn in
        ascending order within a step. The counters live in locals for the
        block and are stored back when it ends or raises.

        The vertices that forward in a step are the ascending `active` list.
        One that still holds packets after its pop goes to the next step's
        list, in the same order; an enqueue into an empty queue records its
        vertex in `fresh`, which is merged in with one sort before the next
        forwarding phase, only on steps that have any.

        Each delivery is checked against the hop-distance lower bound, one
        lookup, and a block that ends checks the queue census, the active
        list and packet conservation, O(N).
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
        fresh: list[int] = []  # vertices whose queue an enqueue found empty
        adj = self._adj
        routes = self._routes
        counts = self.link_counts
        tie_rng = self._tie_rng
        getrandbits = self._dest_rng.getrandbits
        others = len(hosts) - 1
        width = others.bit_length()
        series = self.queue_series
        hops = self._hops
        n = self.graph.n_vertices

        t = self.clock
        generated = self.generated_total
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
                    q = queues[h]
                    if not q:
                        fresh.append(h)
                    q.append((t * n + h) * n + hosts[j])
                    if len(q) > max_queue:
                        max_queue = len(q)
                generated += len(on_hosts)
                in_flight += len(on_hosts)
                if fresh:
                    active += fresh
                    active.sort()
                    fresh.clear()

                held = []  # the next step's list
                for node in active:
                    q = queues[node]
                    pkt = q.popleft()
                    if q:
                        held.append(node)
                    dst = pkt % n
                    k = routes[dst][node]
                    row = counts[node]
                    if type(k) is tuple:
                        if len(k) == 2:
                            a, b = k
                            ca = row[a]
                            cb = row[b]
                            if ca < cb:
                                k = a
                            elif cb < ca:
                                k = b
                            else:
                                k = k[tie_rng.randrange(2)]
                        else:
                            k = _route(k, row, tie_rng)
                    row[k] += 1
                    nxt = adj[node][k]
                    if nxt == dst:
                        delivered += 1
                        rest = pkt // n
                        src = rest % n
                        created = rest // n
                        wait = t + 1 - created
                        delay += wait
                        in_flight -= 1
                        if wait < hops[dst][src]:
                            raise InvariantViolation(
                                f"packet from {src} to {dst} created at step {created} "
                                f"beat the hop-distance lower bound"
                            )
                    else:
                        q = queues[nxt]
                        if not q:
                            fresh.append(nxt)
                        q.append(pkt)
                        if len(q) > max_queue:
                            max_queue = len(q)
                active = held

                t += 1
                series.append(in_flight)
        finally:
            if fresh:
                active += fresh
                active.sort()
            self._active = active
            self.clock = t
            self.generated_total = generated
            self.delivered_total = delivered
            self.delay_total = delay
            self.in_flight = in_flight
            self.max_queue = max_queue
        self._assert_invariants()

    def _assert_invariants(self) -> None:
        lengths = [len(q) for q in self._queues]
        if sum(lengths) != self.in_flight:
            raise InvariantViolation("queue census disagrees with in-flight count")
        if self._active != [v for v, k in enumerate(lengths) if k]:
            raise InvariantViolation("active list is not the ascending vertices holding packets")
        if self.generated_total != self.delivered_total + self.in_flight:
            raise InvariantViolation("packet conservation violated")


def run(config: SimConfig, _shared: _Shared | None = None) -> SimMetrics:
    """Execute warmup then measurement; every host must reach every other.

    Before the first step, each host's bits for the whole run (warmup and
    measurement, in whole bytes) are drawn from the store in one call
    (`_Shared.draw`), so a fresh stream is burned in and drawn once. Warmup
    steps feed the queues; the window counts are the run totals after the
    measurement steps minus those after the warmup, so the throughput is the
    packets delivered inside the window. Deterministic per (config, seed),
    with or without the store `_shared` of a sweep's runs.
    """
    g = config.graph
    state = SimState(
        g,
        assign_hosts(g, config.rho, config.seed),
        traffic=config.traffic,
        seed=config.seed,
        _shared=_shared,
    )
    state._shared.draw(state._keys, config.warmup_steps + config.measure_steps)
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
    is all forwards minus (own generated - own still queued), src decoded
    from each queued int as `pkt // n % n`.
    """
    n = state.graph.n_vertices
    own_queued = [sum(1 for p in q if p // n % n == v) for v, q in enumerate(state._queues)]
    proxy = [
        sum(row) - generated + queued
        for row, generated, queued in zip(state.link_counts, state._generated_at, own_queued)
    ]
    return np.asarray(proxy, dtype=np.float64)
