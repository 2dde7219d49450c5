import ast
import importlib.util
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netqsim.graphs
import netqsim.sim
from netqsim import NoConvergence, read_bit_trace, read_edge_list
from netqsim.cli import (
    FIG12_COLUMNS,
    FIG34_COLUMNS,
    ExperimentPlan,
    ParseError,
    ValidationError,
    emit_csv,
    gamma_of_alpha,
    main,
    parse_plan,
    run_fig12_sweep,
    run_fig34_sweep,
)
from _helpers import read_csv

DATA = Path(__file__).parent / "data"


# -- plan parsing ------------------------------------------------------------------

def test_empty_config_gives_defaults():
    plan = parse_plan("")
    assert plan.n_vertices == 500
    assert plan.avg_degree == 3.0
    assert plan.rho == 0.16
    assert plan.alphas == [0.0, 0.5, 1.0]
    assert len(plan.seeds) == 10


def test_config_parsing_and_comments():
    text = """
    # experiment setup
    n = 200
    alphas = 0,0.5,1
    seeds = 3,4   # two seeds
    rho = 0.2
    """
    plan = parse_plan(text)
    assert plan.n_vertices == 200
    assert plan.seeds == [3, 4]
    assert plan.rho == 0.2


def test_unknown_key_reports_line_number():
    with pytest.raises(ParseError) as exc:
        parse_plan("n = 100\nbogus = 3\n")
    assert exc.value.lineno == 2
    assert "bogus" in str(exc.value)


def test_repeated_key_names_both_lines():
    with pytest.raises(ParseError) as exc:
        parse_plan("n = 40\nseeds = 1\nn = 60\n")
    assert exc.value.lineno == 3
    assert str(exc.value) == "line 3: key 'n' already set on line 1"


@pytest.mark.parametrize("text, message", [
    ("n = 30\nseeds = 1\nfoo = 2\n", "line 3: unknown key 'foo'"),
    ("n = 40\nseeds = 1\nn = 60\n", "line 3: key 'n' already set on line 1"),
])
def test_sweep_config_errors_name_the_file(text, message, tmp_path, capsys):
    cfg = tmp_path / "plan.txt"
    cfg.write_text(text)
    out = tmp_path / "out.csv"
    assert main(["sweep", "--kind", "fig12", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}, {message}\n"
    assert not out.exists()


def test_malformed_line_is_parse_error():
    with pytest.raises(ParseError):
        parse_plan("just some words\n")
    with pytest.raises(ParseError):
        parse_plan("n = not_a_number\n")


def test_flag_overrides_beat_config():
    plan = parse_plan("alphas = 0,0.5,1\n", {"alphas": "1"})
    assert plan.alphas == [1.0]


def test_validation_errors_name_the_field():
    with pytest.raises(ValidationError, match="rho"):
        parse_plan("rho = 1.5\n")
    with pytest.raises(ValidationError, match="alphas"):
        parse_plan("alphas = 0,2\n")
    with pytest.raises(ValidationError, match="lambdas"):
        parse_plan("lambdas = 0\n")
    with pytest.raises(ValidationError, match="seeds"):
        parse_plan("seeds =\n")
    with pytest.raises(ValidationError, match="^seeds: -1 is negative$"):
        parse_plan("seeds = -1,2\n")
    with pytest.raises(ValidationError, match="m1"):
        parse_plan("m1 = 1.0\n")
    for value in ("inf", "nan"):
        with pytest.raises(ValidationError, match="^avg_degree: "):
            parse_plan(f"avg_degree = {value}\n")


@pytest.mark.parametrize("field, values, repeated", [
    ("seeds", "1,1", "1"), ("lambdas", "0.1,0.2,0.1", "0.1"), ("alphas", "0,0", "0.0"),
])
def test_repeated_plan_values_are_rejected(field, values, repeated):
    with pytest.raises(ValidationError, match=f"^{field}: {repeated} repeated$"):
        parse_plan(f"{field} = {values}\n")


@pytest.mark.parametrize("field, kwargs", [
    ("n", {"n_vertices": 40.5}), ("seeds", {"seeds": [0, 1.5]}),
    ("warmup", {"warmup_steps": 10.5}), ("steps", {"measure_steps": 100.5}),
])
def test_non_integer_plan_values_are_rejected(field, kwargs):
    # each would otherwise fail every fig34 cell in SimConfig, SeedSequence or range
    with pytest.raises(ValidationError, match=f"^{field}: [0-9.]+ is not an integer$"):
        ExperimentPlan(**kwargs).validate()


def test_gamma_of_alpha():
    assert gamma_of_alpha(0.5) == 3.0
    assert gamma_of_alpha(1.0) == 2.0
    assert gamma_of_alpha(0.25) == 5.0
    assert gamma_of_alpha(0.0) == float("inf")


# -- CSV emission -------------------------------------------------------------------

def test_emit_csv_rejects_empty(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError):
        emit_csv([], str(path), ["a"])
    assert not path.exists()


def test_emit_csv_round_trip(tmp_path):
    records = [
        {"a": 1.0 / 3.0, "b": 7, "c": "inf"},
        {"a": float("nan"), "b": -1, "c": "x"},
    ]
    path = tmp_path / "out.csv"
    emit_csv(records, str(path), ["a", "b", "c"])
    back = read_csv(str(path))
    assert back[0]["a"] == records[0]["a"]  # exact float round trip
    assert back[0]["b"] == 7.0
    assert back[0]["c"] == float("inf")
    assert math.isnan(back[1]["a"])


def test_fig12_golden_csv(tmp_path, monkeypatch):
    def no_apsp(*args, **kwargs):
        raise AssertionError("fig12 built hop-distance rows")

    # cpl and load come from one BFS pass
    monkeypatch.setattr(netqsim.graphs, "_hop_distances", no_apsp)
    plan = ExperimentPlan(n_vertices=30, avg_degree=2.0, alphas=[0.0, 1.0], seeds=[1, 2])
    rows, avg, failures = run_fig12_sweep(plan)
    assert failures == []
    assert len(rows) == 4 and len(avg) == 2
    path = tmp_path / "fig12.csv"
    emit_csv(rows, str(path), FIG12_COLUMNS)
    assert path.read_bytes() == (DATA / "golden_fig12_tiny.csv").read_bytes()


def test_fig12_gamma_column_rule(tmp_path):
    plan = ExperimentPlan(n_vertices=30, avg_degree=2.0, alphas=[0.0, 0.5], seeds=[1])
    rows, _, _ = run_fig12_sweep(plan)
    by_alpha = {r["alpha"]: r for r in rows}
    assert by_alpha[0.0]["gamma"] == float("inf")
    assert by_alpha[0.5]["gamma"] == 1.0 + 1.0 / 0.5


def test_fig34_sweep_counts_and_columns():
    plan = ExperimentPlan(
        n_vertices=30, avg_degree=2.0, alphas=[0.0, 1.0], lambdas=[0.2],
        seeds=[0, 1], warmup_steps=50, measure_steps=200,
    )
    rows, avg, failures = run_fig34_sweep(plan)
    assert failures == []
    assert len(rows) == 4 and len(avg) == 2
    for row in rows:
        assert list(row) == FIG34_COLUMNS
        assert row["generated"] >= 0 and row["delivered"] >= 0


# -- subcommands ----------------------------------------------------------------------

def test_gen_load_run_pipeline(tmp_path, capsys):
    edges = tmp_path / "graph.txt"
    assert main([
        "gen", "--n", "40", "--avg-degree", "3", "--alpha", "0.5",
        "--seed", "3", "--giant", "--out", str(edges),
    ]) == 0
    g, meta = read_edge_list(str(edges))
    assert meta["alpha"] == 0.5

    loads = tmp_path / "load.csv"
    assert main(["load", "--edges", str(edges), "--out", str(loads)]) == 0
    assert loads.read_text().startswith("vertex,load")

    series = tmp_path / "series.csv"
    out = tmp_path / "run.csv"
    assert main([
        "run", "--edges", str(edges), "--seed", "2", "--rho", "0.3",
        "--d", "0.8", "--warmup", "20", "--steps", "100",
        "--queue-series", str(series), "--out", str(out),
    ]) == 0
    header, row = out.read_text().strip().splitlines()
    assert header.split(",")[:4] == ["alpha", "gamma", "lambda", "seed"]
    assert len(row.split(",")) == len(header.split(","))
    lines = series.read_text().strip().splitlines()
    assert lines[0] == "step,total_queued"
    assert len(lines) == 1 + 120


def test_run_prints_to_stdout(tmp_path, capsys):
    assert main([
        "run", "--n", "30", "--avg-degree", "2", "--alpha", "0", "--seed", "1",
        "--d", "0.8", "--warmup", "10", "--steps", "50",
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("alpha,gamma,lambda")


def test_traffic_trace_and_rate(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    assert main([
        "traffic", "--m1", "1.5", "--m2", "1.5", "--d", "0.5", "--seed", "4",
        "--bits", "2000", "--format", "rle", "--out", str(trace),
        "--estimate-rate",
    ]) == 0
    out = capsys.readouterr().out
    assert "rate=" in out
    assert read_bit_trace(str(trace)).size == 2000


def test_traffic_calibration_prints_d(capsys):
    assert main([
        "traffic", "--m1", "1.7", "--m2", "1.7", "--target-lambda", "0.3",
        "--tol", "0.05", "--seed", "2",
    ]) == 0
    out = capsys.readouterr().out
    d = float(out.split("d=")[1].split()[0])
    assert 0.0 < d < 1.0


def test_traffic_flag_conflicts(capsys):
    assert main(["traffic", "--d", "0.5", "--target-lambda", "0.2"]) == 1
    assert main(["traffic", "--m1", "1.7"]) == 1
    assert main(["traffic", "--d", "0.5", "--hurst"]) == 1
    run_flags = ["run", "--n", "30", "--avg-degree", "2", "--alpha", "0", "--steps", "10"]
    assert main(run_flags + ["--d", "0.5", "--target-lambda", "0.2"]) == 1
    assert main(run_flags) == 1
    # the graph comes from exactly one of --edges / --alpha
    assert main(["run", "--edges", "g.txt", "--alpha", "0.9", "--d", "0.9"]) == 1
    assert main(["run", "--d", "0.9"]) == 1
    assert capsys.readouterr().err.count("--edges") == 2


@pytest.mark.parametrize("flags, message", [
    (["--bits", "0", "--out", "t.txt"], "--bits: must be >= 1, got 0"),
    (["--bits", "-5"], "--bits: must be >= 1, got -5"),
    (["--out", "t.txt"], "--out requires --bits"),
    (["--bits", "10"], "--bits requires --out or --hurst"),
    (["--bits", "10", "--estimate-rate"], "--bits requires --out or --hurst"),
])
def test_traffic_with_no_bits_to_draw_names_the_flag(flags, message, tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["traffic", "--d", "0.5", *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "t.txt").exists()


def test_traffic_bits_with_no_use_fails_before_calibrating(monkeypatch, capsys):
    import netqsim.cli as cli

    def no_calibration(*args, **kwargs):
        raise AssertionError("calibrated d for bits that nothing uses")

    monkeypatch.setattr(cli, "calibrate_d", no_calibration)
    assert main(["traffic", "--target-lambda", "0.2", "--bits", "10"]) == 1
    assert capsys.readouterr().err == "error: --bits requires --out or --hurst\n"


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("command", [
    ["gen", "--out", "g.txt"], ["run", "--d", "0.5", "--steps", "10"],
])
def test_avg_degree_not_finite_names_the_field(command, value, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(command + ["--n", "50", "--avg-degree", value, "--alpha", "0.5"]) == 1
    assert capsys.readouterr().err == f"error: avg_degree: {value} is not finite\n"
    assert not (tmp_path / "g.txt").exists()


@pytest.mark.parametrize("command", [
    ["traffic", "--d", "0.5", "--bits", "10"],
    ["traffic", "--d", "0.5", "--estimate-rate"],
    ["run", "--edges", "g.txt", "--d", "0.5", "--steps", "10"],
])
def test_negative_seed_names_the_field(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--n", "30", "--alpha", "0.5", "--giant", "--out", "g.txt"]) == 0
    capsys.readouterr()
    assert main(command + ["--seed", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error: seed must be ")


def test_sweep_fig12_deterministic_output(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    flags = [
        "sweep", "--kind", "fig12", "--n", "30", "--avg-degree", "2",
        "--alphas", "0,1", "--seeds", "1,2",
    ]
    assert main(flags + ["--out", str(out1)]) == 0
    assert main(flags + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    assert out1.read_text() == (DATA / "golden_fig12_tiny.csv").read_text()
    avg = read_csv(str(tmp_path / "a_avg.csv"))
    assert len(avg) == 2 and avg[0]["n_seeds"] == 2.0


def test_sweep_fig34_end_to_end(tmp_path):
    out = tmp_path / "f34.csv"
    assert main([
        "sweep", "--kind", "fig34", "--n", "30", "--avg-degree", "2",
        "--alphas", "0,1", "--lambdas", "0.2", "--seeds", "0,1",
        "--warmup", "50", "--steps", "200", "--out", str(out),
    ]) == 0
    rows = read_csv(str(out))
    assert len(rows) == 4
    assert math.isinf(rows[0]["gamma"])
    assert (tmp_path / "f34_avg.csv").exists()


def test_fig34_sweep_isolates_failing_cells(monkeypatch):
    import netqsim.cli as cli

    real_run = cli.run_sim

    def flaky_run(config, *args, **kwargs):
        if config.seed == 1:
            raise RuntimeError("boom")
        return real_run(config, *args, **kwargs)

    monkeypatch.setattr(cli, "run_sim", flaky_run)
    plan = ExperimentPlan(
        n_vertices=30, avg_degree=2.0, alphas=[0.0], lambdas=[0.2],
        seeds=[0, 1, 2], warmup_steps=20, measure_steps=100,
    )
    rows, avg, failures = run_fig34_sweep(plan)
    assert [r["seed"] for r in rows] == [0, 2]
    assert len(failures) == 1 and failures[0]["seed"] == 1
    assert avg[0]["n_seeds"] == 2


def test_fig12_sweep_isolates_failing_cells(monkeypatch):
    import netqsim.cli as cli

    real_generate = cli.generate_static_model

    def flaky_generate(params):
        if params.seed == 1:
            raise RuntimeError("boom")
        return real_generate(params)

    monkeypatch.setattr(cli, "generate_static_model", flaky_generate)
    plan = ExperimentPlan(n_vertices=30, avg_degree=2.0, alphas=[0.0], seeds=[0, 1, 2])
    rows, avg, failures = run_fig12_sweep(plan)
    assert [r["seed"] for r in rows] == [0, 2]
    assert failures == [{"alpha": 0.0, "seed": 1, "error": "RuntimeError('boom')"}]
    assert avg[0]["n_seeds"] == 2


def test_fig34_topology_failure_fails_every_lambda(monkeypatch):
    import netqsim.cli as cli

    real_generate = cli.generate_static_model
    built = []

    def flaky_generate(params):
        built.append((params.alpha, params.seed))
        if params.seed == 1:
            raise RuntimeError("boom")
        return real_generate(params)

    monkeypatch.setattr(cli, "generate_static_model", flaky_generate)
    monkeypatch.setattr(cli, "calibrate_d", lambda *args, **kwargs: 0.8)
    plan = ExperimentPlan(
        n_vertices=30, avg_degree=2.0, alphas=[0.0, 1.0], lambdas=[0.1, 0.2],
        seeds=[0, 1], warmup_steps=20, measure_steps=100,
    )
    rows, _, failures = run_fig34_sweep(plan)
    assert built == [(0.0, 0), (0.0, 1), (1.0, 0), (1.0, 1)]  # once per (alpha, seed)
    assert [(r["alpha"], r["seed"], r["lambda"]) for r in rows] == [
        (0.0, 0, 0.1), (0.0, 0, 0.2), (1.0, 0, 0.1), (1.0, 0, 0.2),
    ]
    assert failures == [
        {"alpha": alpha, "lambda": lam, "seed": 1, "error": "RuntimeError('boom')"}
        for alpha in (0.0, 1.0) for lam in (0.1, 0.2)
    ]


def test_fig34_calibration_failure_fails_only_its_lambda(monkeypatch):
    import netqsim.cli as cli

    calibrated = []

    def calibrate(m1, m2, lam, **kwargs):
        calibrated.append(lam)
        if lam == 0.1:
            raise NoConvergence("no d")
        return 0.8

    monkeypatch.setattr(cli, "calibrate_d", calibrate)
    plan = ExperimentPlan(
        n_vertices=30, avg_degree=2.0, alphas=[0.0], lambdas=[0.1, 0.2],
        seeds=[0, 1, 2], warmup_steps=20, measure_steps=100,
    )
    rows, avg, failures = run_fig34_sweep(plan)
    assert [(r["seed"], r["lambda"]) for r in rows] == [(0, 0.2), (1, 0.2), (2, 0.2)]
    assert failures == [
        {"alpha": 0.0, "lambda": 0.1, "seed": seed, "error": "NoConvergence('no d')"}
        for seed in (0, 1, 2)
    ]
    assert [a["lambda"] for a in avg] == [0.2]
    # each lambda is calibrated once per sweep, also when its calibration fails
    assert calibrated == [0.1, 0.2]


@pytest.mark.parametrize("kind, sweep", [("fig12", run_fig12_sweep), ("fig34", run_fig34_sweep)])
def test_progress_once_per_alpha_seed(kind, sweep, monkeypatch):
    import netqsim.cli as cli

    monkeypatch.setattr(cli, "calibrate_d", lambda *args, **kwargs: 0.8)
    plan = ExperimentPlan(
        n_vertices=30, avg_degree=2.0, alphas=[0.0, 1.0], lambdas=[0.1, 0.2],
        seeds=[0, 1], warmup_steps=20, measure_steps=100,
    )
    messages = []
    sweep(plan, progress=messages.append)
    assert messages == [f"{kind} alpha={a} seed={s}" for a in (0.0, 1.0) for s in (0, 1)]


def test_fig34_builds_no_distance_matrix(monkeypatch):
    hop_distances = netqsim.sim._hop_distances  # sim binds the name at import
    rows_asked = []

    def host_rows_only(g, sources):
        rows_asked.append((len(sources), g.n_vertices))
        return hop_distances(g, sources)

    # the simulator routes by one BFS row per host, never one per vertex
    monkeypatch.setattr(netqsim.sim, "_hop_distances", host_rows_only)
    plan = ExperimentPlan(
        n_vertices=30, avg_degree=2.0, alphas=[0.0, 1.0], lambdas=[0.1, 0.2],
        seeds=[0, 1], warmup_steps=20, measure_steps=100,
    )
    rows, _, failures = run_fig34_sweep(plan)
    assert failures == [] and len(rows) == 8
    # once per (alpha, seed): its lambdas share the hosts and routes
    assert len(rows_asked) == 4 and all(h < n for h, n in rows_asked)


def _capture_runs(monkeypatch, calls: list):
    """Wrap `cli.run_sim` so that `calls` gets the arguments of every call."""
    import netqsim.cli as cli

    real_run = cli.run_sim

    def capture(config, *args, **kwargs):
        calls.append((config, args))
        return real_run(config, *args, **kwargs)

    monkeypatch.setattr(cli, "run_sim", capture)


def test_fig34_sweep_rows_equal_runs_without_the_store(monkeypatch):
    import netqsim.cli as cli

    monkeypatch.setattr(cli, "calibrate_d", lambda m1, m2, lam, **kw: {0.1: 0.85, 0.2: 0.75}[lam])
    calls = []
    _capture_runs(monkeypatch, calls)
    real_steps = netqsim.sim.SimState.run_steps
    steps_calls = []

    def run_steps(state, count):
        steps_calls.append(count)
        if len(steps_calls) == 4:  # the second cell fails partway through its window
            real_steps(state, count // 2)
            raise RuntimeError("boom")
        return real_steps(state, count)

    monkeypatch.setattr(netqsim.sim.SimState, "run_steps", run_steps)
    # the later alpha has more hosts, so its runs replay some streams and
    # draw others, among them the streams the failed cell left part-drawn
    plan = ExperimentPlan(
        n_vertices=80, avg_degree=3.0, alphas=[1.0, 0.0], lambdas=[0.1, 0.2],
        seeds=[0, 1], warmup_steps=200, measure_steps=2400,
    )
    rows, _, failures = run_fig34_sweep(plan)
    monkeypatch.setattr(netqsim.sim.SimState, "run_steps", real_steps)
    assert failures == [{"alpha": 1.0, "lambda": 0.2, "seed": 0, "error": "RuntimeError('boom')"}]
    del calls[1]
    assert len(rows) == len(calls) == 7
    hosts = {}  # per graph, in sweep order
    for config, _ in calls:
        hosts[id(config.graph)] = len(netqsim.sim.assign_hosts(config.graph, config.rho, config.seed))
    assert list(hosts.values()) == [11, 10, 12, 12]
    for row, (config, _) in zip(rows, calls):
        assert row == {**row, **cli._metrics_columns(netqsim.sim.run(config))}


def test_fig34_sweep_draws_each_stream_and_route_once(monkeypatch):
    import netqsim.cli as cli
    from netqsim.sim import assign_hosts
    from netqsim.traffic import _BURN_IN, ErramilliSource

    map_steps = [0, 0]  # all, in calibrate_d

    real_orbit = ErramilliSource._orbit

    def orbit(source, count):
        map_steps[0] += count
        return real_orbit(source, count)

    real_calibrate = cli.calibrate_d

    def calibrate(*args, **kwargs):
        before = map_steps[0]
        try:
            return real_calibrate(*args, **kwargs)
        finally:
            map_steps[1] += map_steps[0] - before

    real_routes = netqsim.sim._route_tables
    route_builds = [0]

    def routes(*args):
        route_builds[0] += 1
        return real_routes(*args)

    monkeypatch.setattr(ErramilliSource, "_orbit", orbit)
    monkeypatch.setattr(cli, "calibrate_d", calibrate)
    monkeypatch.setattr(netqsim.sim, "_route_tables", routes)
    calls = []
    _capture_runs(monkeypatch, calls)
    plan = ExperimentPlan(
        n_vertices=80, avg_degree=3.0, alphas=[0.0, 0.5, 1.0], lambdas=[0.1, 0.2],
        seeds=[0, 1], warmup_steps=100, measure_steps=1100, calib_tol=0.05,
    )
    rows, _, failures = run_fig34_sweep(plan)
    assert failures == [] and len(rows) == len(calls) == 12
    stores = {id(args[0]) for _, args in calls}
    assert len(stores) == 1  # one store per sweep
    store = calls[0][1][0]
    max_hosts = {}  # (seed, lambda) -> max H over the alphas
    for config, _ in calls:
        key = (config.seed, config.traffic)
        h = len(assign_hosts(config.graph, config.rho, config.seed))
        max_hosts[key] = max(max_hosts.get(key, 0), h)
    steps = plan.warmup_steps + plan.measure_steps
    assert map_steps[1] > 0
    assert map_steps[0] == map_steps[1] + sum(max_hosts.values()) * (_BURN_IN + steps)
    assert route_builds[0] == len(plan.alphas) * len(plan.seeds)
    held = sum(len(packed) for _, packed in store._streams.values())
    assert held == sum(max_hosts.values()) * math.ceil(steps / 8)
    assert held <= len(plan.seeds) * len(plan.lambdas) * max(max_hosts.values()) * math.ceil(steps / 8)
    # a second sweep has its own store and draws every stream again
    map_steps[:] = [0, 0]
    run_fig34_sweep(plan)
    assert map_steps[0] == map_steps[1] + sum(max_hosts.values()) * (_BURN_IN + steps)
    assert calls[12][1][0] is not store


def test_sweep_with_every_cell_failed_prints_each_failure(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main([
        "sweep", "--kind", "fig34", "--n", "30", "--avg-degree", "2",
        "--alphas", "0,1", "--lambdas", "0.2", "--seeds", "0,1", "--rho", "0.01",
        "--warmup", "5", "--steps", "10", "--out", str(out),
    ]) == 1
    err = capsys.readouterr().err.splitlines()
    failed = [line for line in err if line.startswith("failed cell: ")]
    assert len(failed) == 4
    assert all("TooFewHosts" in line for line in failed)
    assert err[-1] == "error: no records to write"
    assert not out.exists()


def test_sweep_config_file(tmp_path):
    cfg = tmp_path / "plan.cfg"
    out = tmp_path / "out.csv"
    cfg.write_text(f"n = 30\navg_degree = 2\nalphas = 0\nseeds = 1\nout = {out}\n")
    assert main(["sweep", "--kind", "fig12", "--config", str(cfg)]) == 0
    assert out.exists()


# -- exit codes --------------------------------------------------------------------------

def test_exit_code_validation_error(capsys):
    assert main(["sweep", "--kind", "fig12", "--rho", "7", "--out", "x.csv"]) == 1
    assert main(["gen", "--alpha", "2", "--out", "x.txt"]) == 1  # alpha out of range
    assert main(["bogus-command"]) == 1


def test_exit_code_runtime_error(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    assert main(["run", "--edges", str(missing), "--d", "0.8", "--steps", "10"]) == 2


# -- package surface ---------------------------------------------------------------------

def test_public_names_are_pinned():
    # adding or dropping a name of the package's surface is a deliberate act
    names = sorted(
        name for name, value in vars(netqsim).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert names == [
        "AttemptBudgetExceeded", "ErramilliParams", "ErramilliSource", "GenParams", "Graph",
        "InsufficientData", "InsufficientTail", "LoadStats", "NoConvergence",
        "NoReachablePairs", "SimConfig", "SimMetrics", "SimState", "TooFewHosts",
        "assign_hosts", "calibrate_d", "compute_load", "default_block_sizes",
        "degree_histogram", "estimate_rate", "fit_powerlaw_exponent",
        "generate_static_model", "giant_component", "hurst_aggregated_variance",
        "load_and_cpl", "load_stats", "measure_load_proxy", "read_bit_trace",
        "read_edge_list", "run", "write_bit_trace", "write_edge_list", "write_load_csv",
    ]


def test_package_imports_no_scipy():
    # numpy is the package's only dependency; scipy is a test extra
    src = Path(netqsim.__file__).resolve().parent.parent
    code = (
        "import sys, netqsim.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_module_layering_is_pinned():
    # each module imports only the layers below it; a new edge is a deliberate act
    layers = {
        "graphs": set(), "traffic": set(), "load": {"graphs"}, "sim": {"graphs", "traffic"},
        "cli": {"graphs", "load", "sim", "traffic"},
        "__init__": {"graphs", "load", "sim", "traffic"}, "__main__": {"cli"},
    }
    imports = {}
    for path in Path(netqsim.__file__).parent.glob("*.py"):
        imports[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:  # a relative import
                names = [node.module] if node.module else [a.name for a in node.names]
                imports[path.stem].update(names)
    assert imports == layers


# -- benchmark tracer --------------------------------------------------------------------

def _load_perfbench(name: str):
    """A module of perfbench/, which is no package, loaded by path."""
    path = Path(__file__).parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_targets_resolve():
    # perfbench/spans.py patches these names from outside the program; a
    # rename here would silently drop a layer from the traced benchmark
    spans = _load_perfbench("spans")
    assert spans.TARGETS
    for module, qualname, *_ in spans.TARGETS:
        owner = importlib.import_module(module)
        for attr in qualname.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), f"{module}.{qualname}"
    # its probes also bind these parameters by name
    from netqsim.sim import SimState, run
    from netqsim.traffic import estimate_rate

    for func, names in ((estimate_rate, {"burn_in", "samples", "n_orbits"}),
                        (SimState.run_steps, {"count"}), (run, {"config"})):
        missing = names - set(inspect.signature(func).parameters)
        assert not missing, f"{func.__qualname__} lacks {sorted(missing)}"


def test_benchmark_cell_checks_pass():
    # the benchmark's cell_pass_ratio counts the cells these checks pass
    checks = _load_perfbench("checks")
    plan = ExperimentPlan(
        n_vertices=40, alphas=[0.0, 1.0], lambdas=[0.05, 0.2], seeds=[0, 1],
        warmup_steps=20, measure_steps=100,
    )
    rows, _, failures = run_fig12_sweep(plan)
    assert checks.check_sweep("fig12", plan, rows, failures, []) == {}
    with checks.capture_sims([]) as sims:
        rows, _, failures = run_fig34_sweep(plan)
    assert len(sims) == 8
    assert checks.check_sweep("fig34", plan, rows, failures, sims) == {}
