"""Workload plans of the sweep benchmark.

Each workload is one `ExperimentPlan` for one of the CLI sweeps. The seed
list is the only argument; the program receives nothing but the plan. A
run's seed list holds several consecutive seeds derived from `--seed`, so
that one sweep averages over graphs: the work of a fig34-saturated cell
depends on how large the backlog of its graph grows.

- fig12-load: load statistics versus alpha at 4x the paper's N. Only the
  graphs and load layers run (compute_load ~75%, APSP ~15%), so a change to
  traffic or sim is predicted to leave it unchanged.
- fig34-freeflow: lambda=0.01 keeps the queues short, so the per-host
  sources (`ErramilliSource.next_bit`) and one `calibrate_d` dominate.
- fig34-saturated: lambda=0.1 is past the congestion transition; the
  forwarding phase and the growing backlog dominate.
"""
from __future__ import annotations

from typing import NamedTuple

ALPHAS = [0.0, 0.5, 1.0]

_FIG34 = dict(
    n_vertices=500, avg_degree=3.0, alphas=ALPHAS, rho=0.16, m1=2.0, m2=2.0,
    warmup_steps=1000, measure_steps=10_000,
)


class Workload(NamedTuple):
    kind: str  # "fig12" or "fig34": which CLI sweep runs
    fields: dict  # ExperimentPlan fields other than the seeds
    seeds_per_run: int
    probe: str  # the `speed.PROBES` kind that resembles the hot loop


WORKLOADS = {
    "fig12-load": Workload("fig12", dict(n_vertices=2000, avg_degree=3.0, alphas=ALPHAS), 2, "bfs"),
    "fig34-freeflow": Workload("fig34", dict(_FIG34, lambdas=[0.01]), 3, "arith"),
    "fig34-saturated": Workload("fig34", dict(_FIG34, lambdas=[0.1]), 3, "arith"),
}


def plan_seeds(name: str, seed: int) -> list[int]:
    """The seed list of workload `name` for benchmark seed `seed`; the lists
    of different seeds do not overlap."""
    per_run = WORKLOADS[name].seeds_per_run
    return [seed * per_run + i for i in range(per_run)]


def make_plan(name: str, seeds: list[int]):
    """The validated plan of workload `name` over `seeds`."""
    from netqsim.cli import ExperimentPlan

    plan = ExperimentPlan(**WORKLOADS[name].fields, seeds=list(seeds))
    plan.validate()
    return plan


def sweep_function(name: str):
    """The public CLI sweep that workload `name` drives, looked up at call
    time so that a patched module attribute is the one called."""
    import netqsim.cli

    kind = WORKLOADS[name].kind
    return getattr(netqsim.cli, "run_fig12_sweep" if kind == "fig12" else "run_fig34_sweep")
