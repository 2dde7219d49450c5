"""Machine-speed correction of the benchmark's timings.

The benchmark runs on a few cores of a shared host. How fast those cores
run Python drifts with the neighbours' load: the same sweep of one seed
took between 6.2 and 11.0 s within three minutes in one process. Medians
of whole runs cannot remove a drift that lasts longer than a run.

`SpeedProbe` times a region and samples the machine's speed while the
region runs. An interval timer (SIGALRM, in the main thread; no extra
thread or process) runs a fixed pure-Python loop, the probe, every
`PERIOD_S` seconds. Each stretch of program time between two probes is
scaled by the probe's nominal duration over the duration of the probe that
ends it, and the probes' own time is left out. The scaled time is what the
region would have taken on a machine where the probe takes its nominal
duration; a change to the program moves it as it moves the wall time,
while the probe, which runs no program code, does not change.

The drift does not slow all code alike, so each workload uses the probe
that resembles its hot loop (see `workloads.WORKLOADS`):

- `arith`: float arithmetic, a branch and a dict store, like the per-step
  code of the sources and the simulator. On back-to-back fig34-saturated
  sweeps of one seed, the wall time varied with a coefficient of variation
  of 16% and the scaled time of 4.3%; scaled by the BFS probe, of 7.4%.
- `bfs`: breadth-first searches with geodesic counts over a small fixed
  graph, like `load.compute_load`. On back-to-back `compute_load` calls
  (N=2000), the wall time varied by 17%, the scaled time by 3.4%, and the
  time scaled by the arithmetic probe by 5.5%.

A probe that chased pointers through a list of several MB, to follow
memory contention, tracked the drift worse than either.
"""
from __future__ import annotations

import random
import signal
import time
from collections import deque

clock = time.perf_counter

PERIOD_S = 0.02


def arith_loop(n: int = 3000) -> float:
    x = 0.3
    table = {}
    for i in range(n):
        x = x + 0.7 * (1.0 - x) ** 2 if x < 0.5 else x - 0.4 * x ** 2
        table[i & 255] = x
    return x


def _probe_graph(n: int) -> list[list[int]]:
    """A fixed connected sparse graph: a random tree plus n/2 random edges."""
    rng = random.Random(1)
    adj = [[] for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u].append(v)
        adj[v].append(u)
    for _ in range(n // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    return adj


_BFS_ADJ = _probe_graph(300)


def bfs_loop(sources: int = 4) -> int:
    adj = _BFS_ADJ
    n = len(adj)
    total = 0
    for s in range(sources):
        dist = [-1] * n
        sigma = [0] * n
        dist[s] = 0
        sigma[s] = 1
        q = deque([s])
        while q:
            v = q.popleft()
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
        total += dist[-1]
    return total


# kind -> (probe loop, nominal duration in s). The nominal durations are
# typical of the probes inside sweeps on the machine the benchmark was tuned
# on (Intel Xeon, 2 vCPUs of a shared host, Python 3.11), so that a scaled
# time reads close to the wall time there.
PROBES = {
    "arith": (arith_loop, 6.0e-4),
    "bfs": (bfs_loop, 5.0e-4),
}


class SpeedProbe:
    """Context manager: `wall_s` is the region's wall time, `scaled_s` its
    program time rescaled to the nominal machine speed, `probes` the number
    of probes run inside it."""

    def __init__(self, kind: str = "arith"):
        self._loop, self._nominal_s = PROBES[kind]
        self.wall_s = self.scaled_s = 0.0
        self.probes = 0
        self._mark = 0.0
        self._previous = None

    def _probe(self, *_):
        self._close_stretch(clock())
        self._mark = clock()

    def _close_stretch(self, stretch_end: float) -> None:
        """Scale the program time since the last probe by a probe run now."""
        t0 = clock()
        self._loop()
        probe_s = clock() - t0
        self.scaled_s += (stretch_end - self._mark) * self._nominal_s / probe_s
        self.probes += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._start = self._mark = clock()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        end = clock()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._close_stretch(end)  # the last stretch ends with a probe too
        self.wall_s = end - self._start
        return False
