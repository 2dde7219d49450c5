"""Shared test graph builders and independent oracles."""
from __future__ import annotations

from collections import Counter, deque

import numpy as np

from netqsim import (
    ErramilliParams,
    ErramilliSource,
    Graph,
    NoConvergence,
    estimate_rate,
)
from netqsim.graphs import all_pairs_hop_distances
from netqsim.traffic import _ENDPOINT_EPS


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n_leaves: int) -> Graph:
    return Graph(n_leaves + 1, [(0, i) for i in range(1, n_leaves + 1)])


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols lattice; vertex r * cols + c."""
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, edges)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def random_graph(n: int, m: int, rng: np.random.Generator) -> Graph:
    """Uniform G(n, m); may be disconnected."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    idx = rng.choice(len(pairs), size=m, replace=False)
    return Graph(n, [pairs[i] for i in idx])


def floyd_warshall(g: Graph) -> np.ndarray:
    """Independent all-pairs oracle; -1 for unreachable."""
    n = g.n_vertices
    big = n + 10
    d = np.full((n, n), big, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for u in range(n):
        d[u, g.adjacency[u]] = 1
    for k in range(n):  # relax every pair (i, j) through k at once
        np.minimum(d, d[:, k, None] + d[k], out=d)
    d[d >= big] = -1
    return d


class UnionFind:
    """Independent component-census oracle."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def component_sizes(self) -> dict[int, int]:
        sizes: dict[int, int] = {}
        for x in range(len(self.parent)):
            r = self.find(x)
            sizes[r] = sizes.get(r, 0) + 1
        return sizes


def read_csv(path: str) -> list[dict]:
    """Parse a `netqsim.cli.emit_csv` file back into dicts (numbers as floats)."""
    with open(path) as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    header = lines[0].split(",")
    out = []
    for line in lines[1:]:
        rec = {}
        for key, tok in zip(header, line.split(",")):
            try:
                rec[key] = float(tok)
            except ValueError:
                rec[key] = tok
        out.append(rec)
    return out


def reference_load(g: Graph, include_endpoints: bool = False) -> np.ndarray:
    """Sequential Brandes load, one source at a time: the oracle that
    `compute_load` must match bit for bit.

    Per source, a deque BFS counts geodesics (sigma, exact Python ints) and
    the reverse BFS order accumulates delta[v] += sigma[v] * (1 + delta[w])
    / sigma[w] over predecessors v of w in adjacency order; each source's
    delta (own entry excluded) is added to the load in ascending source order.
    """
    n = g.n_vertices
    adj = g.adjacency
    load = [0.0] * n
    reach = [0] * n
    for s in range(n):
        dist = [-1] * n
        sigma = [0] * n
        order: list[int] = []
        dist[s] = 0
        sigma[s] = 1
        q = deque([s])
        while q:
            v = q.popleft()
            order.append(v)
            dv1 = dist[v] + 1
            sv = sigma[v]
            for w in adj[v]:
                dw = dist[w]
                if dw < 0:
                    dist[w] = dv1
                    sigma[w] = sv
                    q.append(w)
                elif dw == dv1:
                    sigma[w] += sv
        reach[s] = len(order) - 1
        delta = [0.0] * n
        for w in reversed(order):
            coef = (1.0 + delta[w]) / sigma[w]
            dw1 = dist[w] - 1
            for v in adj[w]:
                if dist[v] == dw1:
                    delta[v] += sigma[v] * coef
            if w != s:
                load[w] += delta[w]
    if include_endpoints:
        for v in range(n):
            load[v] += 2.0 * reach[v]
    return np.asarray(load)


def derived_leaves(g: Graph, held_cells: int) -> dict[int, int]:
    """Leaf -> parent for every leaf whose Brandes row `compute_load` takes
    from its neighbour's instead of a BFS: a degree-1 vertex whose neighbour
    has degree >= 2 and is one of the held_cells // n neighbours with the
    most such leaves (ties to the smaller index)."""
    n = g.n_vertices
    deg = g.degrees()
    up = {v: nbrs[0] for v, nbrs in enumerate(g.adjacency) if deg[v] == 1 and deg[nbrs[0]] >= 2}
    kids = Counter(up.values())
    held = set(sorted(kids, key=lambda u: (-kids[u], u))[: held_cells // n])
    return {v: u for v, u in up.items() if u in held}


_BRUTE_FORCE_CAP = 16


class TooLarge(ValueError):
    """Graph exceeds the brute-force enumeration cap."""


def brute_force_load(g: Graph, include_endpoints: bool = False) -> np.ndarray:
    """Reference load via explicit enumeration of every shortest path.

    Independent of compute_load on purpose: plain BFS distances, then a DFS
    that walks all distance-increasing paths from s and keeps those ending
    at t. Exponential in the worst case, hence the vertex cap.
    """
    n = g.n_vertices
    if n > _BRUTE_FORCE_CAP:
        raise TooLarge(f"brute force capped at {_BRUTE_FORCE_CAP} vertices, got {n}")
    adj = g.adjacency
    load = np.zeros(n)
    for s in range(n):
        dist = {s: 0}
        q = deque([s])
        while q:
            v = q.popleft()
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    q.append(w)
        for t in range(n):
            if t == s or t not in dist:
                continue
            paths: list[list[int]] = []
            stack = [(s, [s])]
            while stack:
                v, path = stack.pop()
                if v == t:
                    paths.append(path)
                    continue
                if dist[v] >= dist[t]:
                    continue
                for w in adj[v]:
                    if dist.get(w) == dist[v] + 1:
                        stack.append((w, path + [w]))
            share = 1.0 / len(paths)
            for path in paths:
                members = path if include_endpoints else path[1:-1]
                for v in members:
                    load[v] += share
    return load


def map_step(p: ErramilliParams, x: float) -> float:
    """One application of the intermittency map; the first branch covers [0, d].

    Clamped into [0, 1] to absorb floating-point overshoot at the branch
    ends (mathematically the image already lies in [0, 1]).
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    if x <= p.d:
        y = x + (1.0 - p.d) * (x / p.d) ** p.m1
    else:
        y = x - p.d * ((1.0 - x) / (1.0 - p.d)) ** p.m2
    return min(max(y, 0.0), 1.0)


def advance(src: ErramilliSource) -> float:
    """Scalar reference of one step of `src`'s orbit, the oracle that
    `ErramilliSource.bits` must match bit for bit: map_step, then an
    endpoint trap is left by a redraw on its own side of d."""
    p = src.params
    x = map_step(p, src.x)
    if x >= 1.0 - _ENDPOINT_EPS:
        x = p.d + (1.0 - p.d) * src.rng.random()
    elif x <= _ENDPOINT_EPS:
        x = p.d * src.rng.random()
    src.x = x
    return x


def reference_calibrate_d(
    m1: float,
    m2: float,
    target_lambda: float,
    tol: float = 0.01,
    seed=0,
    samples: int = 100_000,
    max_steps: int = 60,
) -> float:
    """Bisection with a full `estimate_rate` per midpoint, the oracle that
    `calibrate_d` and its early stop must match: the same d, or
    NoConvergence in the same cases."""
    lo, hi = 1e-9, 1.0 - 1e-9
    for _ in range(max_steps):
        mid = 0.5 * (lo + hi)
        rate = estimate_rate(ErramilliParams(m1, m2, mid), samples=samples, seed=seed)
        if abs(rate - target_lambda) <= tol:
            return mid
        if rate > target_lambda:
            lo = mid
        else:
            hi = mid
    raise NoConvergence(f"no d in {max_steps} bisection steps")


def reference_routes(g: Graph, hosts) -> list[list[tuple[int, ...]] | None]:
    """Per-neighbour scan of the routing rule over the dense distances, the
    oracle that `SimState`'s route tables must equal: for every host dst
    and vertex v, the positions in v's adjacency list of the neighbours one
    hop closer to dst, empty at dst itself and where dst is out of reach;
    None for every vertex that is no host."""
    dist = all_pairs_hop_distances(g)
    routes: list[list[tuple[int, ...]] | None] = [None] * g.n_vertices
    for dst in hosts:
        row = dist[dst].tolist()
        routes[dst] = [
            tuple(k for k, u in enumerate(nbrs) if row[u] == row[v] - 1)
            for v, nbrs in enumerate(g.adjacency)
        ]
    return routes
