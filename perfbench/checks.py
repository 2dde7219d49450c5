"""Output checks of the sweep benchmark, run outside the timed region.

Every check works per cell. A cell is one (alpha, seed) of fig12 or one
(alpha, lambda, seed) of fig34; a cell that is missing or violates a check
counts as failed.
"""
from __future__ import annotations

import contextlib
import hashlib
import math
from pathlib import Path

# load_mean == (n_giant - 1) * (cpl - 1) holds exactly in real arithmetic:
# the load summed over vertices is the sum over ordered pairs of (d - 1).
IDENTITY_RTOL = 1e-9
# Both cpl values divide the same two integers.
CPL_RTOL = 1e-12


def cell_keys(kind: str, plan) -> list[tuple]:
    """Cells of a plan, in sweep order."""
    if kind == "fig12":
        return [(a, s) for a in plan.alphas for s in plan.seeds]
    return [(a, lam, s) for a in plan.alphas for s in plan.seeds for lam in plan.lambdas]


def _row_key(kind: str, row: dict) -> tuple:
    if kind == "fig12":
        return (row["alpha"], row["seed"])
    return (row["alpha"], row["lambda"], row["seed"])


@contextlib.contextmanager
def capture_sims(store: list):
    """Pass-through wrapper on `netqsim.cli.run_sim` that keeps every
    (config, SimMetrics) pair, one per fig34 cell."""
    import netqsim.cli as cli

    inner = cli.run_sim

    def run_sim(config, *args, **kwargs):
        metrics = inner(config, *args, **kwargs)
        store.append((config, metrics))
        return metrics

    cli.run_sim = run_sim
    try:
        yield store
    finally:
        cli.run_sim = inner


def check_sweep(kind: str, plan, rows: list[dict], failures: list, sims: list) -> dict:
    """Failed cells of one sweep, as {cell: problem}.

    A cell the sweep reported as failed has no row, so it fails as missing.
    A row for a cell outside the plan fails too.
    """
    by_key: dict[tuple, list[dict]] = {}
    for row in rows:
        by_key.setdefault(_row_key(kind, row), []).append(row)
    # run_sim is called once per row, in row order.
    sim_by_key = {_row_key(kind, row): s for row, s in zip(rows, sims)}
    problems = {}
    for key in cell_keys(kind, plan):
        found = by_key.pop(key, [])
        if len(found) != 1:
            problems[key] = f"{len(found)} rows"
            continue
        problem = _check_identity(found[0])
        if problem is None and kind == "fig34":
            problem = _check_sim(found[0], *sim_by_key.get(key, (None, None)), plan)
        if problem is not None:
            problems[key] = problem
    for key in by_key:
        problems[key] = "row for a cell outside the plan"
    if failures and not problems:
        problems["sweep"] = f"failures list not empty: {failures}"
    return problems


def _check_identity(row: dict) -> str | None:
    want = (row["n_giant"] - 1) * (row["cpl"] - 1)
    got = row["load_mean"]
    if not abs(got - want) <= IDENTITY_RTOL * max(1.0, abs(want)):
        return f"load_mean {got!r} != (n_giant-1)*(cpl-1) = {want!r}"
    return None


def _check_sim(row: dict, config, metrics, plan) -> str | None:
    if metrics is None:
        return "no SimMetrics captured"
    if config.seed != row["seed"]:
        return f"run_sim call for seed {config.seed} paired with this row"
    if metrics.generated_total != metrics.delivered_total + metrics.in_flight_at_end:
        return (
            f"generated_total {metrics.generated_total} != delivered_total "
            f"{metrics.delivered_total} + in_flight_at_end {metrics.in_flight_at_end}"
        )
    steps = plan.warmup_steps + plan.measure_steps
    if len(metrics.queue_length_timeseries) != steps:
        return f"queue series has {len(metrics.queue_length_timeseries)} entries, want {steps}"
    for col, value in (
        ("generated", metrics.generated), ("delivered", metrics.delivered),
        ("in_flight", metrics.in_flight_at_end), ("max_queue", metrics.max_queue),
    ):
        if row[col] != value:
            return f"row {col}={row[col]!r} but SimMetrics has {value!r}"
    return None


def check_cpl_with_networkx(kind: str, plan, rows: list[dict]) -> str | None:
    """Recompute the giant component size and cpl of one cell with networkx,
    on the graph regenerated from the cell's seed. The cell with the smallest
    giant component is taken, because networkx needs ~15 s for 1300 nodes."""
    import networkx as nx
    from netqsim.graphs import GenParams, generate_static_model

    row = min(rows, key=lambda r: r["n_giant"])
    params = GenParams.from_avg_degree(plan.n_vertices, plan.avg_degree, row["alpha"], row["seed"])
    full = generate_static_model(params)
    g = nx.Graph(full.edges())
    g.add_nodes_from(range(full.n_vertices))
    giant = g.subgraph(max(nx.connected_components(g), key=len))
    where = f"cell {_row_key(kind, row)}"
    if giant.number_of_nodes() != row["n_giant"]:
        return f"{where}: networkx giant component has {giant.number_of_nodes()} nodes, row {row['n_giant']}"
    cpl = nx.average_shortest_path_length(giant)
    if not math.isclose(cpl, row["cpl"], rel_tol=CPL_RTOL):
        return f"{where}: networkx cpl {cpl!r}, row {row['cpl']!r}"
    return None


def rows_digest(kind: str, rows: list[dict], path: Path) -> str:
    """sha256 of the rows as `netqsim.cli.emit_csv` writes them."""
    from netqsim.cli import FIG12_COLUMNS, FIG34_COLUMNS, emit_csv

    emit_csv(rows, str(path), FIG12_COLUMNS if kind == "fig12" else FIG34_COLUMNS)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def offered_rate(sims: list) -> float:
    """Packets generated in the measurement windows per host per step."""
    from netqsim.sim import assign_hosts

    generated = sum(m.generated for _, m in sims)
    slots = sum(
        len(assign_hosts(c.graph, c.rho, c.seed)) * c.measure_steps for c, _ in sims
    )
    return generated / slots if slots else 0.0

