"""Per-vertex shortest-path load: the sum over ordered vertex pairs of the
fraction of geodesics between them passing through each vertex.

`compute_load` is the production path: Brandes' per-source BFS plus
reverse dependency accumulation, O(N*M) overall, vectorised with numpy over
blocks of sources, each level listed by `graphs._expand` as in
`graphs._hop_distances`. A leaf (a degree-1 vertex) next to a vertex of
degree >= 2 runs no BFS of its own: its row is its neighbour's, but for one
entry folded from that row, as long as the neighbour's row is among the
_HELD_CELLS // N rows kept. It is bit-identical to the sequential per-source
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
# Cells (held row, vertex) of the parent rows that leaves reuse in _brandes.
_HELD_CELLS = 1 << 18
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
    paths. A leaf whose neighbour has degree >= 2 reuses the neighbour's
    BFS while a bounded number of such rows is held, the most-leaved
    neighbours first; other sources are BFS'd in ascending blocks. Every
    row is added in ascending source order, so the result is that of a
    per-source loop, bit for bit. Endpoints are excluded by default (a pair
    contributes only at intermediate vertices); `include_endpoints=True`
    adds the constant endpoint terms, i.e. 2 * (number of reachable
    partners) per vertex.

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
    reaches, and the total hop count over ordered reachable pairs.

    A leaf l whose neighbour u has degree >= 2 sees u's BFS with l removed:
    the same order, the same sigma, the same successors of every v != u. So
    l's row is u's row but for its entry at u (`_leaf_dependencies`), and l
    reaches what u reaches, each one hop further. The rows of the held
    parents (`_held_parents`) are BFS'd first and kept, and their leaves run
    no BFS; every other source is BFS'd in ascending blocks. Rows are added
    to the load in ascending source order, as a per-source loop adds them.
    """
    n = g.n_vertices
    csr = _csr(g)
    load = np.zeros(n)
    reach = np.zeros(n, dtype=np.intp)
    hops = np.zeros(n, dtype=np.intp)
    block = max(1, _BLOCK_CELLS // n)

    def rows(sources: np.ndarray):
        for start in range(0, sources.size, block):
            chunk = sources[start : start + block]
            delta, reach[chunk], hops[chunk] = _dependencies(csr, chunk)
            yield from delta
            del delta  # before the next block's BFS

    parent, held = _held_parents(csr, _HELD_CELLS // n)
    held_rows = np.empty((held.size, n))
    for r, row in enumerate(rows(held)):
        held_rows[r] = row
    slot = np.full(n, -1, dtype=np.intp)  # each source's row in held_rows
    slot[held] = np.arange(held.size)
    leaf_dep = _leaf_dependencies(csr, parent, held, held_rows)
    leaves = np.flatnonzero(parent >= 0)
    up = parent.take(leaves)
    slot[leaves] = slot.take(up)
    reach[leaves] = reach.take(up)
    hops[leaves] = hops.take(up) + reach.take(up) - 1

    rest = rows(np.flatnonzero(slot < 0))
    for s, (r, u) in enumerate(zip(slot.tolist(), parent.tolist())):
        if r < 0:
            load += next(rest)
        else:
            load += held_rows[r]  # adds 0.0 at the row's own source: exact
            if u >= 0:
                load[u] += leaf_dep[s]
    return load, reach, int(hops.sum())


def _held_parents(csr, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Each vertex's held parent if it is a leaf of one, else -1; and the
    held parents, ascending. Candidates are the vertices of degree >= 2
    with a leaf (the two ends of a K2 each run a BFS); at most `cap` of them
    are held, those with the most leaves first, ties to the smaller index."""
    deg, indptr, indices = csr
    leaves = np.flatnonzero(deg == 1)
    up = indices.take(indptr.take(leaves))
    keep = deg.take(up) >= 2
    leaves, up = leaves[keep], up[keep]
    kids = np.bincount(up, minlength=deg.size)
    held = np.sort(np.argsort(-kids, kind="stable")[: min(cap, np.count_nonzero(kids))])
    is_held = np.zeros(deg.size, dtype=bool)
    is_held[held] = True
    derived = is_held.take(up)
    parent = np.full(deg.size, -1, dtype=np.intp)
    parent[leaves[derived]] = up[derived]
    return parent, held


def _leaf_dependencies(
    csr, parent: np.ndarray, held: np.ndarray, held_rows: np.ndarray
) -> np.ndarray:
    """delta_l(u) of each derived leaf l with parent u (0.0 elsewhere).

    From l, u is the one vertex at depth 1 and its other neighbours w all of
    depth 2, each with sigma 1. So a reverse BFS walk adds 1 + delta_u(w) to
    delta_l(u), from 0.0, over w in reverse adjacency order. u's leaves are
    folded in chunks of at most _BLOCK_CELLS // deg(u) (at least one), so a
    hub with many leaves needs no (leaves, deg) array.
    """
    _, indptr, indices = csr
    out = np.zeros(parent.size)
    for u, row in zip(held.tolist(), held_rows):
        mine = np.flatnonzero(parent == u)
        nbrs = indices[indptr[u] : indptr[u + 1]][::-1]
        terms = 1.0 + row.take(nbrs)
        step = max(1, _BLOCK_CELLS // nbrs.size)
        for start in range(0, mine.size, step):
            chunk = mine[start : start + step]
            out[chunk] = _folds_skipping(terms, nbrs == chunk[:, None])
    return out


def _folds_skipping(terms: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """The left fold of `terms` from 0.0, once per row of the boolean
    (rows, terms.size) `skip`, with the terms that row marks taken as 0.0,
    which adds exactly. np.add.accumulate sums in sequence, not pairwise as
    np.sum does, so each fold rounds as a sequential loop does."""
    return np.add.accumulate(np.where(skip, 0.0, terms), axis=1)[:, -1]


def _dependencies(csr, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brandes dependencies of a block of sources on every vertex.

    Returns delta, one row per source with its own entry zeroed, the number
    of vertices each source reaches, and each source's total hop count over
    them. State is flat over the cells (source row r, vertex v) at
    r * n + v. Each BFS level is expanded at once for all rows: the
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
    dist = dist.reshape(b, n)
    reached = (dist >= 0).sum(axis=1) - 1
    # the n - 1 - reached unreached cells each hold -1
    return delta.reshape(b, n), reached, dist.sum(axis=1) + (n - 1) - reached


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
