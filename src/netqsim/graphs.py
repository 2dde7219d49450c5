"""Graph generation along the random-to-scale-free continuum plus structural statistics.

The generator draws edge endpoints with probability proportional to the fixed
vertex fitness (i+1)**-alpha, so alpha=0 degenerates to a uniform G(N, M)
random graph and alpha>0 yields power-law degree tails.

Traversals are numpy over the `_csr` arrays. `_expand` lists a BFS level's
neighbours for `_hop_distances` (the simulator's host rows; from every vertex,
`all_pairs_hop_distances`, a test oracle) and for Brandes' BFS in `load`.
"""
from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np

UNREACHABLE = -1

# Pairs drawn per RNG batch; a deterministic function of remaining work only,
# so the consumed random stream is reproducible for a given seed.
_MAX_BATCH = 4096
# Cells (source row, vertex) per block of _hop_distances.
_BFS_CELLS = 1 << 16


class AttemptBudgetExceeded(RuntimeError):
    """Edge placement stalled: too many consecutive rejected draws."""


class InsufficientTail(ValueError):
    """Not enough distinct degrees above the fitting cutoff."""


class NoReachablePairs(ValueError):
    """The graph has no ordered pair s != t with a path from s to t."""


@dataclass(frozen=True)
class GenParams:
    """Parameters of the fitness-based generator.

    Vertex i (1-based) carries weight i**-alpha; endpoints of every candidate
    edge are drawn independently with the normalized weights until n_edges
    distinct edges exist.
    """

    n_vertices: int
    n_edges: int
    alpha: float
    seed: int

    def __post_init__(self) -> None:
        for name, low in (("n_vertices", 1), ("n_edges", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        max_edges = self.n_vertices * (self.n_vertices - 1) // 2
        if self.n_edges > max_edges:
            raise ValueError(
                f"n_edges={self.n_edges} exceeds the simple-graph maximum {max_edges}"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")

    @property
    def mean_degree(self) -> float:
        return 2.0 * self.n_edges / self.n_vertices

    @classmethod
    def from_avg_degree(
        cls, n_vertices: int, avg_degree: float, alpha: float, seed: int
    ) -> "GenParams":
        """Build params with n_edges = floor(avg_degree * n / 2)."""
        if not math.isfinite(avg_degree):
            raise ValueError(f"avg_degree: {avg_degree} is not finite")
        return cls(n_vertices, int(avg_degree * n_vertices // 2), alpha, seed)


class Graph:
    """Undirected simple graph stored as sorted adjacency lists."""

    __slots__ = ("n_vertices", "adjacency")

    def __init__(self, n_vertices: int, edges: Iterable[tuple[int, int]]):
        if n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        adjacency: list[list[int]] = [[] for _ in range(n_vertices)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            adjacency[u].append(v)
            adjacency[v].append(u)
        for nbrs in adjacency:
            nbrs.sort()
        self.n_vertices = n_vertices
        self.adjacency = adjacency

    @property
    def n_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adjacency]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted."""
        return [(u, v) for u in range(self.n_vertices) for v in self.adjacency[u] if u < v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n_vertices == other.n_vertices and self.adjacency == other.adjacency

    def __repr__(self) -> str:
        return f"Graph(n_vertices={self.n_vertices}, n_edges={self.n_edges})"


def generate_static_model(params: GenParams, attempt_budget: int | None = None) -> Graph:
    """Draw a graph with fixed vertex fitnesses until n_edges edges are placed.

    Each endpoint is sampled by inverse-CDF lookup in the precomputed
    cumulative weight table (weights are constant, so the table is built
    once). Draws that hit a self-pair or an existing edge are rejected;
    after `attempt_budget` consecutive rejections (default 200 * n_edges)
    the run aborts instead of hanging on unplaceable parameter combos.

    Deterministic for a given (params, seed): the PRNG is numpy's default
    PCG64 seeded with params.seed, consumed in a fixed batch schedule.
    """
    n, m = params.n_vertices, params.n_edges
    if attempt_budget is None:
        attempt_budget = 200 * m
    rng = np.random.default_rng(params.seed)
    weights = np.arange(1, n + 1, dtype=np.float64) ** -params.alpha
    cum = np.cumsum(weights)
    cum /= cum[-1]

    edges: set[tuple[int, int]] = set()
    failures = 0
    while len(edges) < m:
        batch = max(32, min(_MAX_BATCH, 2 * (m - len(edges))))
        draws = np.searchsorted(cum, rng.random(2 * batch), side="right").tolist()
        it = iter(draws)
        for u, v in zip(it, it):
            if len(edges) == m:
                break
            if u > v:
                u, v = v, u
            if u == v or (u, v) in edges:
                failures += 1
                if failures >= attempt_budget:
                    raise AttemptBudgetExceeded(
                        f"{failures} consecutive rejected draws with "
                        f"{len(edges)}/{m} edges placed (alpha={params.alpha})"
                    )
                continue
            edges.add((u, v))
            failures = 0
    return Graph(n, edges)


def _csr(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degrees, row pointers and neighbour indices of g's adjacency lists."""
    deg = np.fromiter(map(len, g.adjacency), dtype=np.intp, count=g.n_vertices)
    indptr = np.concatenate(([0], np.cumsum(deg)))
    indices = np.fromiter(chain.from_iterable(g.adjacency), dtype=np.intp, count=indptr[-1])
    return deg, indptr, indices


def _expand(csr, front: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (frontier cell, neighbour) pair of a BFS level, in frontier
    order, then adjacency order: the neighbour cells (a cell of source row
    r and vertex v is r * n + v) and the frontier index of each."""
    deg, indptr, indices = csr
    front_v = front % deg.size
    cnt = deg.take(front_v)
    ends = np.cumsum(cnt)
    seg = np.repeat(np.arange(cnt.size), cnt)
    cand = (indptr.take(front_v) - ends + cnt).take(seg)
    cand += np.arange(int(ends[-1]))
    cand = indices.take(cand)
    cand += (front - front_v).take(seg)
    return cand, seg


def giant_component(g: Graph) -> tuple[Graph, dict[int, int]]:
    """Extract the largest connected component, relabeled contiguously.

    Returns the component subgraph and the old-index -> new-index map.
    Equal-size ties go to the component containing the smallest original
    index.

    Labels come from hook and full shortcut over the CSR slots: every root
    hooks onto the smallest root across its edges, then pointers jump until
    each vertex points at its root, so a label ends at its component's
    smallest vertex in a number of rounds that ignores the diameter.
    """
    deg, _, v = _csr(g)
    label = np.arange(g.n_vertices)
    u = np.repeat(label, deg)
    while True:
        lu, lv = label.take(u), label.take(v)
        down = lv < lu  # an edge between two trees, from the larger root's side
        if not down.any():
            break
        np.minimum.at(label, lu[down], lv[down])  # hook
        while not np.array_equal(up := label.take(label), label):  # shortcut
            label = up
    keep = label == np.bincount(label).argmax()  # the first largest
    new = np.cumsum(keep) - 1
    edge = keep.take(u) & (u < v)  # each kept edge once
    sub = Graph(int(new[-1]) + 1, zip(new.take(u[edge]).tolist(), new.take(v[edge]).tolist()))
    old = np.flatnonzero(keep).tolist()
    return sub, dict(zip(old, range(len(old))))


def degree_histogram(g: Graph) -> dict[int, int]:
    """Map degree -> number of vertices with that degree."""
    return dict(sorted(Counter(g.degrees()).items()))


def fit_powerlaw_exponent(hist: dict[int, int], k_min: int) -> float:
    """Maximum-likelihood tail exponent for degrees >= k_min.

    Uses the continuous approximation of the discrete power-law MLE:
    gamma_hat = 1 + n / sum(count_k * ln(k / (k_min - 1/2))), which is the
    standard closed form with the half-integer shift correcting for
    discreteness.
    """
    if k_min < 1:
        raise ValueError("k_min must be >= 1")
    tail = {k: c for k, c in hist.items() if k >= k_min and c > 0}
    if len(tail) < 10:
        raise InsufficientTail(
            f"only {len(tail)} distinct degrees >= {k_min}; need at least 10"
        )
    shift = k_min - 0.5
    n = sum(tail.values())
    log_sum = sum(c * math.log(k / shift) for k, c in tail.items())
    return 1.0 + n / log_sum


def _hop_distances(g: Graph, sources) -> np.ndarray:
    """BFS hop counts from each source to every vertex, an int32 array with
    one row per source; UNREACHABLE (-1) marks vertices in another component.
    Blocks of rows run level by level: the unvisited neighbour cells of the
    frontier get the next depth, and the cells holding it are the next one."""
    csr = _csr(g)
    n = g.n_vertices
    sources = np.asarray(sources, dtype=np.intp)
    dist = np.full((sources.size, n), UNREACHABLE, dtype=np.int32)
    block = max(1, _BFS_CELLS // n)
    for lo in range(0, sources.size, block):
        cells = dist[lo:lo + block].reshape(-1)  # a view: writes land in dist
        front = np.arange(0, cells.size, n) + sources[lo:lo + block]
        depth = cells[front] = 0
        while front.size:
            cand, _ = _expand(csr, front)
            depth += 1
            cells[cand.compress(cells.take(cand) == UNREACHABLE)] = depth
            front = np.flatnonzero(cells == depth)
    return dist


def all_pairs_hop_distances(g: Graph) -> np.ndarray:
    """`_hop_distances` from every vertex: the int32 N x N array."""
    return _hop_distances(g, np.arange(g.n_vertices))


def characteristic_path_length(d: np.ndarray) -> float:
    """Mean hop count over all ordered reachable pairs s != t of the
    all_pairs_hop_distances array `d`."""
    reachable = d != UNREACHABLE
    n_pairs = int(reachable.sum()) - d.shape[0]  # drop the always-reachable diagonal
    if n_pairs <= 0:
        raise NoReachablePairs("no reachable ordered pair s != t")
    total = int(d[reachable].sum())  # diagonal contributes zero
    return total / n_pairs


def write_edge_list(
    g: Graph, path: str, alpha: float | None = None, seed: int | None = None
) -> None:
    """Plain-text edge list: header comment with n/m (plus alpha/seed when
    known), then one `u v` line per edge, u < v, sorted."""
    header = f"# n={g.n_vertices} m={g.n_edges}"
    if alpha is not None:
        header += f" alpha={alpha!r}"
    if seed is not None:
        header += f" seed={seed}"
    lines = [header]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_edge_list(path: str) -> tuple[Graph, dict[str, float]]:
    """Inverse of write_edge_list. Returns the graph and the header metadata.

    A malformed line (a non-integer `n=` or `m=` among them), a bad edge or
    an `m=` header that disagrees with the edges read raises ValueError
    naming the path and the 1-based line.
    """
    meta: dict[str, float] = {}
    meta_line: dict[str, int] = {}
    edges: list[tuple[int, int, int]] = []
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                if line.startswith("#"):
                    for token in line[1:].split():
                        if "=" in token:
                            key, val = token.split("=", 1)
                            meta[key] = int(val) if key in ("n", "m") else float(val)
                            meta_line[key] = lineno
                else:
                    u, v = line.split()
                    edges.append((lineno, int(u), int(v)))
            except ValueError:
                raise ValueError(
                    f"{path}, line {lineno}: malformed line {line!r}"
                ) from None
    if "n" not in meta:
        raise ValueError(f"{path}: missing 'n=' header")
    at = meta_line["n"]

    def numbered() -> Iterable[tuple[int, int]]:  # Graph checks edges in order
        nonlocal at
        for at, u, v in edges:
            yield u, v

    try:
        g = Graph(meta["n"], numbered())
        if meta.get("m", g.n_edges) != g.n_edges:
            at = meta_line["m"]
            raise ValueError(f"header m={meta['m']}, edges read: {g.n_edges}")
    except ValueError as exc:
        raise ValueError(f"{path}, line {at}: {exc}") from None
    return g, meta
