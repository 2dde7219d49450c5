"""Per-vertex shortest-path load: the sum over ordered vertex pairs of the
fraction of geodesics between them passing through each vertex.

`compute_load` is the production path: Brandes' per-source BFS plus
reverse dependency accumulation, O(N*M) overall, vectorised with numpy over
blocks of sources, each level listed by `graphs._expand` as in
`graphs._hop_distances`. It is bit-identical to the sequential per-source
loop, which the tests keep as their reference. The same BFS visits every hop
distance, so `load_and_cpl` also returns the characteristic path length from
that one pass, equal to `characteristic_path_length` of the dense distance
matrix without building it. The tests cross-check both against independent
oracles, among them a brute-force enumeration of every shortest path.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, NoReachablePairs, _csr, _expand

# Cells (source, vertex) per block of compute_load: small enough that the
# block's state stays in cache, large enough to amortise the per-level calls.
_BLOCK_CELLS = 1 << 14
# float64 counts whole numbers exactly only below this.
_EXACT_COUNT = 2.0**53
_NO_POSITION = np.iinfo(np.intp).max


@dataclass(frozen=True)
class LoadStats:
    mean: float
    std: float
    normalized_std: float
    max: float
    argmax_vertex: int


def compute_load(g: Graph, include_endpoints: bool = False) -> np.ndarray:
    """Fractional shortest-path load per vertex, summed over ordered pairs.

    For every source, a BFS counts geodesics (sigma) level by level; walking
    the BFS order backwards then accumulates each vertex's dependency
    delta[v] = sum over successors w of sigma[v]/sigma[w] * (1 + delta[w]),
    which totals the per-pair path fractions without touching individual
    paths. Endpoints are excluded by default (a pair contributes only at
    intermediate vertices); `include_endpoints=True` adds the constant
    endpoint terms, i.e. 2 * (number of reachable partners) per vertex.

    Unreachable pairs contribute nothing, so disconnected inputs are fine.
    Geodesic counts are held as float64, which counts exactly only below
    2**53; a graph whose counts reach that raises ValueError.
    """
    load, reach, _ = _brandes(g)
    if include_endpoints:
        load += 2.0 * reach
    return load


def load_and_cpl(g: Graph) -> tuple[np.ndarray, float]:
    """`compute_load(g)` and the characteristic path length, from one BFS pass.

    The path length is the mean hop count over ordered reachable pairs
    s != t, the same integer division as `characteristic_path_length`, so
    the two agree bit for bit. Raises NoReachablePairs when no pair is
    reachable.
    """
    load, reach, hops = _brandes(g)
    pairs = int(reach.sum())
    if pairs <= 0:
        raise NoReachablePairs("no reachable ordered pair s != t")
    return load, hops / pairs


def _brandes(g: Graph) -> tuple[np.ndarray, np.ndarray, int]:
    """Load without endpoint terms, the number of vertices each vertex
    reaches, and the total hop count over ordered reachable pairs."""
    n = g.n_vertices
    csr = _csr(g)
    load = np.zeros(n)
    reach = np.zeros(n, dtype=np.intp)
    hops = 0
    block = max(1, _BLOCK_CELLS // n)
    for sources in np.split(np.arange(n), range(block, n, block)):
        delta, reach[sources], block_hops = _dependencies(csr, sources)
        hops += block_hops
        for row in delta:  # ascending source order, as a per-source loop adds
            load += row
    return load, reach, hops


def _dependencies(csr, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Brandes dependencies of a block of sources on every vertex.

    Returns delta, one row per source with its own entry zeroed, the number
    of vertices each source reaches, and the block's total hop count over
    the pairs it reaches. State is flat over the cells (source row r, vertex
    v) at r * n + v. Each BFS level is expanded at once for all rows: the
    frontier keeps each row's deque order, and a new level is ordered by
    first discovery (the smallest candidate position, found by
    np.minimum.at). The dependencies then accumulate level by level, deepest
    first, over the predecessor edges of each level listed by successor in
    reverse BFS order, so that every delta[v] receives its terms in the same
    order, and hence rounds the same way, as a sequential reverse walk.
    """
    n = csr[0].size
    b = sources.size
    row_base = np.arange(b, dtype=np.intp) * n
    dist = np.full(b * n, -1, dtype=np.intp)
    sigma = np.zeros(b * n)
    first = np.full(b * n, _NO_POSITION, dtype=np.intp)
    front = row_base + sources
    dist[front] = 0
    sigma[front] = 1.0
    # per level >= 1: its cells, the predecessor cells of its edges to the
    # level above, and the index in the level of each edge's successor
    levels = []
    depth = 0
    hops = 0
    while True:
        cand, seg = _expand(csr, front)
        cand_dist = dist.take(cand)
        if depth:
            back = cand_dist == depth - 1
            levels.append((front, cand.compress(back), seg.compress(back)))
        new = cand_dist < 0
        succ = cand.compress(new)
        if succ.size == 0:
            break
        seg = seg.compress(new)
        pos = np.arange(succ.size)
        np.minimum.at(first, succ, pos)
        nxt = succ.compress(first.take(succ) == pos)
        first[nxt] = _NO_POSITION
        depth += 1
        dist[nxt] = depth
        hops += depth * nxt.size
        np.add.at(sigma, succ, sigma.take(front).take(seg))  # whole numbers: exact
        counts = sigma.take(nxt)
        if counts.max() >= _EXACT_COUNT:
            src = int(sources[nxt[counts.argmax()] // n])
            raise ValueError(
                f"geodesic counts from source {src} exceed exact float64 range (2**53)"
            )
        front = nxt
    delta = np.zeros(b * n)
    for front, pred, seg in reversed(levels):
        coef = (1.0 + delta.take(front)) / sigma.take(front)
        pred = pred[::-1]
        np.add.at(delta, pred, sigma.take(pred) * coef.take(seg[::-1]))
    delta[row_base + sources] = 0.0
    reached = (dist.reshape(b, n) >= 0).sum(axis=1) - 1
    return delta.reshape(b, n), reached, hops


def load_stats(values) -> LoadStats:
    """Mean, population std, std/mean, max and argmax of a load vector."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("load vector needs at least 2 entries")
    if np.any(arr < 0):
        raise ValueError("load values must be non-negative")
    mean = float(arr.mean())
    std = float(arr.std())
    normalized = std / mean if mean > 0 else 0.0
    argmax = int(np.argmax(arr))
    return LoadStats(mean, std, normalized, float(arr[argmax]), argmax)


def write_load_csv(values, path: str) -> None:
    """CSV rows `vertex,load` plus a trailing stats comment line."""
    arr = np.asarray(values, dtype=np.float64)
    stats = load_stats(arr)
    lines = ["vertex,load"]
    lines.extend(f"{v},{x!r}" for v, x in enumerate(arr.tolist()))
    lines.append(
        f"# mean={stats.mean!r} std={stats.std!r} "
        f"normalized_std={stats.normalized_std!r} "
        f"max={stats.max!r} argmax={stats.argmax_vertex}"
    )
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
