"""Per-vertex shortest-path load: the sum over ordered vertex pairs of the
fraction of geodesics between them passing through each vertex.

`compute_load` is the production path: Brandes' per-source BFS plus
reverse dependency accumulation, O(N*M) overall, vectorised with numpy over
blocks of sources on `graphs._levels`, the BFS level loop that
`graphs._hop_distances` also drains. A leaf (a degree-1 vertex) next to a
vertex of degree >= 2 runs no BFS of its own: its row is its neighbour's,
but for one entry at the neighbour. The same BFS visits every hop
distance, so `load_and_cpl` also returns the characteristic path length
from that one pass, equal to `characteristic_path_length` of the dense
distance matrix without building it. The tests cross-check both against
the sequential per-source loop (to a relative 1e-12) and other oracles,
among them a brute-force enumeration of every shortest path.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import UNREACHABLE, Graph, NoReachablePairs, _csr, _expand, _levels

# Cells (source, vertex) per block of compute_load: small enough that the
# block's state stays in cache, large enough to amortise the per-level calls.
_BLOCK_CELLS = 1 << 14
# float64 counts whole numbers exactly only below this.
_EXACT_COUNT = 2.0**53


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
    the levels backwards then accumulates each vertex's dependency
    delta[v] = sum over successors w of sigma[v]/sigma[w] * (1 + delta[w]),
    which totals the per-pair path fractions without touching individual
    paths. A leaf whose neighbour has degree >= 2 reuses the neighbour's
    BFS; every other source is BFS'd once, in ascending blocks. The result
    equals that of a per-source loop up to float64 rounding, since the
    terms are added in another order. Endpoints are excluded by default (a
    pair contributes only at intermediate vertices); `include_endpoints=True`
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
    the same levels, the same sigma, the same successors of every v != u.
    So l's row is u's row but for its entry at u, where the reverse walk
    from l adds 1 + delta_u(w) over w in N(u) - {l}: deg(u) - 1 plus the
    sum of delta_u over N(u), as delta_u(l) = 0. Such leaves run no BFS;
    u's row is added once for itself and once for each of its leaves, and
    l reaches what u reaches, each one hop further.
    """
    n = g.n_vertices
    csr = _csr(g)
    deg, indptr, indices = csr
    load = np.zeros(n)
    reach = np.zeros(n, dtype=np.intp)
    hops = np.zeros(n, dtype=np.intp)
    leaves = np.flatnonzero(deg == 1)
    up = indices.take(indptr.take(leaves))
    keep = deg.take(up) >= 2
    leaves, up = leaves[keep], up[keep]
    kids = np.bincount(up, minlength=n)
    bfsd = np.ones(n, dtype=bool)
    bfsd[leaves] = False
    sources = np.flatnonzero(bfsd)
    block = max(1, _BLOCK_CELLS // n)
    for start in range(0, sources.size, block):
        chunk = sources[start : start + block]
        delta, reach[chunk], hops[chunk] = _dependencies(csr, chunk)
        rows = np.flatnonzero(kids.take(chunk))
        if rows.size:
            cand, seg = _expand(csr, rows * n + chunk.take(rows))
            nbr = np.bincount(seg, weights=delta.reshape(-1).take(cand), minlength=rows.size)
            u = chunk.take(rows)
            load[u] += kids.take(u) * (deg.take(u) - 1 + nbr)
        delta *= (1.0 + kids.take(chunk))[:, None]
        load += delta.sum(axis=0)
        del delta  # before the next block's BFS
    reach[leaves] = reach.take(up)
    hops[leaves] = hops.take(up) + reach.take(up) - 1
    return load, reach, int(hops.sum())


def _dependencies(csr, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brandes dependencies of a block of sources on every vertex.

    Returns delta, one row per source with its own entry zeroed, the number
    of vertices each source reaches, and each source's total hop count over
    them, over flat cells (source row r, vertex v) at r * n + v. Each level
    of `graphs._levels` adds the counts of its edges' predecessor cells into
    sigma and is kept for the reverse walk, deepest first. Counts only grow,
    and float64 sums of whole numbers are exact below 2**53, so one check of
    the largest count after the BFS finds any that reached it."""
    n = csr[0].size
    b = sources.size
    row_base = np.arange(b, dtype=np.intp) * n
    dist = np.full(b * n, UNREACHABLE, dtype=np.intp)
    sigma = np.zeros(b * n)
    front = row_base + sources
    sigma[front] = 1.0
    levels = []  # per level >= 1: the (predecessor, successor) cells of its edges
    for level_front, seg, new, succ in _levels(csr, dist, front):
        pred = level_front.take(seg.compress(new))
        levels.append((pred, succ))
        np.add.at(sigma, succ, sigma.take(pred))  # whole numbers: exact below 2**53
    if sigma.max() >= _EXACT_COUNT:
        src = int(sources[sigma.argmax() // n])
        raise ValueError(
            f"geodesic counts from source {src} exceed exact float64 range (2**53)"
        )
    delta = np.zeros(b * n)
    for pred, succ in reversed(levels):
        coef = (1.0 + delta.take(succ)) / sigma.take(succ)
        np.add.at(delta, pred, sigma.take(pred) * coef)
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
