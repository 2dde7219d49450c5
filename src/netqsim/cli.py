"""Command-line front end: single-stage subcommands plus experiment sweeps
that emit figure-ready CSV datasets (load statistics vs alpha, throughput
and delivery time vs generation rate per topology)."""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .graphs import (
    GenParams,
    generate_static_model,
    giant_component,
    read_edge_list,
    write_edge_list,
)
from .load import compute_load, load_and_cpl, load_stats, write_load_csv
from .sim import SimConfig, SimMetrics, _Shared, run as run_sim
from .traffic import (
    ErramilliParams,
    ErramilliSource,
    _check_seed,
    _is_int,
    calibrate_d,
    default_block_sizes,
    estimate_rate,
    hurst_aggregated_variance,
    write_bit_trace,
)

_TOPOLOGY_COLUMNS = ["n_giant", "cpl", "load_mean", "load_nstd"]
_SIM_COLUMNS = ["generated", "delivered", "mean_delivery_time", "in_flight", "max_queue"]
RUN_COLUMNS = ["alpha", "gamma", "lambda", "seed", *_SIM_COLUMNS]
FIG34_COLUMNS = RUN_COLUMNS[:4] + _TOPOLOGY_COLUMNS + _SIM_COLUMNS
FIG12_COLUMNS = ["alpha", "gamma", "seed", *_TOPOLOGY_COLUMNS]


class ParseError(ValueError):
    """Malformed config line; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class ValidationError(ValueError):
    """A plan field is out of range or missing."""


@dataclass
class ExperimentPlan:
    n_vertices: int = 500
    avg_degree: float = 3.0
    alphas: list[float] = field(default_factory=lambda: [0.0, 0.5, 1.0])
    lambdas: list[float] = field(default_factory=lambda: [0.005, 0.01, 0.02, 0.05, 0.1])
    seeds: list[int] = field(default_factory=lambda: list(range(10)))
    rho: float = 0.16
    m1: float = 2.0
    m2: float = 2.0
    warmup_steps: int = 1000
    measure_steps: int = 10_000
    out: str | None = None

    def validate(self) -> None:
        for name, value in (
            ("n", self.n_vertices), ("warmup", self.warmup_steps), ("steps", self.measure_steps)
        ):
            if not _is_int(value):
                raise ValidationError(f"{name}: {value!r} is not an integer")
        if self.n_vertices < 2:
            raise ValidationError("n: need at least 2 vertices")
        if not math.isfinite(self.avg_degree):
            raise ValidationError(f"avg_degree: {self.avg_degree} is not finite")
        n_edges = int(self.avg_degree * self.n_vertices // 2)
        if n_edges < 1:
            raise ValidationError("avg_degree: resolves to zero edges")
        if n_edges > self.n_vertices * (self.n_vertices - 1) // 2:
            raise ValidationError("avg_degree: exceeds the simple-graph maximum")
        for name in ("alphas", "lambdas", "seeds"):
            values = getattr(self, name)
            if not values:
                raise ValidationError(f"{name}: need at least one value")
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValidationError(f"{name}: {repeated[0]} repeated")
        for seed in self.seeds:
            if not _is_int(seed):
                raise ValidationError(f"seeds: {seed!r} is not an integer")
            if seed < 0:
                raise ValidationError(f"seeds: {seed} is negative")
        for a in self.alphas:
            if not 0.0 <= a <= 1.0:
                raise ValidationError(f"alphas: {a} outside [0, 1]")
        for lam in self.lambdas:
            if not 0.0 < lam < 1.0:
                raise ValidationError(f"lambdas: {lam} outside (0, 1)")
        if not 0.0 < self.rho <= 1.0:
            raise ValidationError(f"rho: {self.rho} outside (0, 1]")
        for name, m in (("m1", self.m1), ("m2", self.m2)):
            if not 1.5 <= m <= 2.0:
                raise ValidationError(f"{name}: {m} outside [1.5, 2.0]")
        if self.warmup_steps < 0:
            raise ValidationError("warmup: must be >= 0")
        if self.measure_steps < 1:
            raise ValidationError("steps: must be >= 1")


def _list_of(kind):
    """Parser of a comma-separated list of `kind` values."""
    return lambda text: [kind(tok) for tok in text.split(",") if tok.strip() != ""]


# config key -> (plan attribute, parser)
_PLAN_KEYS = {
    "n": ("n_vertices", int),
    "avg_degree": ("avg_degree", float),
    "alphas": ("alphas", _list_of(float)),
    "lambdas": ("lambdas", _list_of(float)),
    "seeds": ("seeds", _list_of(int)),
    "rho": ("rho", float),
    "m1": ("m1", float),
    "m2": ("m2", float),
    "warmup": ("warmup_steps", int),
    "steps": ("measure_steps", int),
    "out": ("out", str),
}


def parse_plan(text: str, overrides: dict[str, str] | None = None) -> ExperimentPlan:
    """Build a plan from `key = value` config text, then apply flag overrides.

    Unknown or repeated keys and malformed lines raise ParseError with the
    line number; out-of-range values, and unknown or malformed overrides,
    raise ValidationError naming the field.
    """
    kwargs = {}
    key_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(lineno, f"expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _PLAN_KEYS:
            raise ParseError(lineno, f"unknown key {key!r}")
        if key in key_line:
            raise ParseError(lineno, f"key {key!r} already set on line {key_line[key]}")
        key_line[key] = lineno
        attr, parse = _PLAN_KEYS[key]
        try:
            kwargs[attr] = parse(value)
        except ValueError:
            raise ParseError(lineno, f"bad value for {key!r}: {value!r}") from None
    for key, value in (overrides or {}).items():
        if key not in _PLAN_KEYS:
            raise ValidationError(f"{key}: unknown key")
        attr, parse = _PLAN_KEYS[key]
        try:
            kwargs[attr] = parse(value)
        except ValueError:
            raise ValidationError(f"{key}: bad value {value!r}") from None
    plan = ExperimentPlan(**kwargs)
    plan.validate()
    return plan


def gamma_of_alpha(alpha: float) -> float:
    """Degree exponent 1 + 1/alpha; +inf marks the purely random case."""
    return 1.0 + 1.0 / alpha if alpha > 0 else float("inf")


def _build_topology(plan: ExperimentPlan, alpha: float, seed: int):
    """Generate, reduce to the giant component, and compute its
    characteristic path length and load statistics. Both come from the one
    BFS pass of `load_and_cpl`; no sweep builds a dense distance matrix.
    Returns the graph and its `_TOPOLOGY_COLUMNS`."""
    params = GenParams.from_avg_degree(plan.n_vertices, plan.avg_degree, alpha, seed)
    g, _ = giant_component(generate_static_model(params))
    load, cpl = load_and_cpl(g)
    stats = load_stats(load)
    return g, dict(zip(_TOPOLOGY_COLUMNS, (g.n_vertices, cpl, stats.mean, stats.normalized_std)))


def _sweep(plan: ExperimentPlan, kind: str, progress) -> tuple[list[dict], list[dict], list[dict]]:
    """One row per cell, in (alpha, seed, lambda) order: a fig12 (alpha,
    seed) has one cell, a fig34 one has a cell per lambda. Each fig34 lambda
    is calibrated once, in plan order, before the first cell, and the
    topology of an (alpha, seed) is built once for all its cells.

    The plan is validated before anything runs. A failing cell is recorded
    and skipped so the rest of the sweep survives. It fails with its
    topology's error first, then its lambda's calibration error, then its
    own. The seed average groups by the columns before "seed" and averages
    those after it. Returns (per-seed rows, seed-averaged rows, failures).
    """
    plan.validate()
    columns = FIG34_COLUMNS if kind == "fig34" else FIG12_COLUMNS
    calibrated = {None: None}  # a fig12 cell has no lambda and runs no simulation
    if kind == "fig34":
        calibrated = {}  # lambda -> d, or the error of its failed calibration
        for lam in plan.lambdas:
            try:
                calibrated[lam] = calibrate_d(plan.m1, plan.m2, lam)
            except Exception as exc:  # noqa: BLE001 - fails every cell of its lambda
                calibrated[lam] = exc
    shared = _Shared()
    split = columns.index("seed")
    rows = []
    failures = []
    for alpha in plan.alphas:
        for seed in plan.seeds:
            if progress:
                progress(f"{kind} alpha={alpha} seed={seed}")
            # the last graph goes before the next one is built, with the run
            # config and the store's layout that still refer to it
            g = topology = config = shared._layout = None
            try:
                g, topology = _build_topology(plan, alpha, seed)
            except Exception as exc:  # noqa: BLE001 - fails every cell of its (alpha, seed)
                topology = exc
            for lam, d in calibrated.items():
                key = {"alpha": alpha, "lambda": lam, "seed": seed}
                try:
                    for error in (topology, d):  # the topology's error first
                        if isinstance(error, Exception):
                            raise error.with_traceback(None)  # without earlier raises' frames
                    row = {**key, "gamma": gamma_of_alpha(alpha), **topology}
                    if d is not None:
                        config = SimConfig(
                            graph=g,
                            rho=plan.rho,
                            traffic=ErramilliParams(plan.m1, plan.m2, d),
                            warmup_steps=plan.warmup_steps,
                            measure_steps=plan.measure_steps,
                            seed=seed,
                        )
                        row.update(_metrics_columns(run_sim(config, shared)))
                    rows.append({c: row[c] for c in columns})
                except Exception as exc:  # noqa: BLE001 - cell isolation by contract
                    failure = {k: v for k, v in key.items() if k in columns}  # fig12: no lambda
                    failures.append({**failure, "error": repr(exc)})
    return rows, average_records(rows, columns[:split], columns[split + 1:]), failures


def run_fig12_sweep(
    plan: ExperimentPlan, progress=None
) -> tuple[list[dict], list[dict], list[dict]]:
    """Load statistics against alpha: one row per (alpha, seed), see `_sweep`."""
    return _sweep(plan, "fig12", progress)


def _metrics_columns(metrics: SimMetrics) -> dict:
    """The simulation columns shared by the fig34 and `run` rows."""
    return dict(zip(_SIM_COLUMNS, (
        metrics.generated, metrics.delivered, metrics.mean_delivery_time,
        metrics.in_flight_at_end, metrics.max_queue,
    )))


def run_fig34_sweep(
    plan: ExperimentPlan, progress=None
) -> tuple[list[dict], list[dict], list[dict]]:
    """Throughput and delivery time against the generation rate, per
    topology: one simulation per (alpha, seed, lambda), see `_sweep`.

    The runs share one `_Shared` store: each host's source stream is drawn
    once per (seed, lambda) and replayed at every alpha, and the hosts and
    routes of an (alpha, seed) are built once for all its lambdas.
    """
    return _sweep(plan, "fig34", progress)


def average_records(
    rows: list[dict], group_cols: list[str], metric_cols: list[str]
) -> list[dict]:
    """Collapse rows sharing `group_cols` into mean/std (sample) columns,
    preserving first-seen group order."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(tuple(row[c] for c in group_cols), []).append(row)
    out = []
    for key, members in groups.items():
        rec = dict(zip(group_cols, key))
        rec["n_seeds"] = len(members)
        for col in metric_cols:
            vals = np.asarray([float(m[col]) for m in members])
            rec[f"{col}_mean"] = float(vals.mean())
            rec[f"{col}_std"] = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        out.append(rec)
    return out


def _csv_lines(columns: list[str], rows):
    """The header, then one line per row of values, each ending in a
    newline; floats via repr so output is byte-stable and round-trips exactly."""
    yield ",".join(columns) + "\n"
    for row in rows:
        yield ",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n"


def emit_csv(records: list[dict], path: str, columns: list[str]) -> None:
    """Header plus one row per record, see `_csv_lines`."""
    if not records:
        raise ValueError("no records to write")
    lines = list(_csv_lines(columns, ([rec[c] for c in columns] for rec in records)))
    with open(path, "w") as f:
        f.writelines(lines)


def _avg_path(path: str) -> str:
    return path[:-4] + "_avg.csv" if path.endswith(".csv") else path + "_avg"


# ---------------------------------------------------------------------------
# subcommands


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit code 1
        raise ValidationError(message)


def _check_out(flag: str, path: str | None) -> None:
    """Raise ValidationError naming `flag` and `path` when an output cannot
    go there: the path is a directory, or its directory does not exist.
    Every command checks its outputs this way before any work."""
    if not path:
        return
    if os.path.isdir(path):
        raise ValidationError(f"{flag}: {path!r} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValidationError(f"{flag}: the directory of {path!r} does not exist")


def _cmd_gen(args) -> int:
    _check_out("--out", args.out)
    params = GenParams.from_avg_degree(args.n, args.avg_degree, args.alpha, args.seed)
    g = generate_static_model(params)
    if args.giant:
        g, _ = giant_component(g)
    write_edge_list(g, args.out, alpha=args.alpha, seed=args.seed)
    print(f"wrote {args.out}: n={g.n_vertices} m={g.n_edges}")
    return 0


def _cmd_load(args) -> int:
    _check_out("--out", args.out)
    g, _ = read_edge_list(args.edges)
    if args.giant:
        g, _ = giant_component(g)
    values = compute_load(g, include_endpoints=args.include_endpoints)
    write_load_csv(values, args.out)
    stats = load_stats(values)
    print(
        f"wrote {args.out}: mean={stats.mean!r} normalized_std={stats.normalized_std!r}"
    )
    return 0


def _source_params(args) -> tuple[ErramilliParams, float]:
    """The map exponents with the threshold d from --d, or calibrated to
    --target-lambda as a sweep calibrates it; also the target rate (nan for
    --d)."""
    if args.d is not None:
        return ErramilliParams(args.m1, args.m2, args.d), float("nan")
    d = calibrate_d(args.m1, args.m2, args.target_lambda)
    return ErramilliParams(args.m1, args.m2, d), args.target_lambda


def _cmd_traffic(args) -> int:
    _check_seed(args.seed)  # a bad seed is named before any flag conflict
    if args.format is not None and not args.out:
        raise ValidationError("--format requires --out")
    if args.bits is None:
        for flag in ("hurst", "out"):
            if getattr(args, flag):
                raise ValidationError(f"--{flag} requires --bits")
    elif args.bits < 1:
        raise ValidationError(f"--bits: must be >= 1, got {args.bits}")
    elif not (args.out or args.hurst):
        raise ValidationError("--bits requires --out or --hurst")
    if args.d is not None and not args.estimate_rate and args.bits is None:
        raise ValidationError("--d requires --estimate-rate or --bits")
    _check_out("--out", args.out)
    if args.hurst:
        max_block = max(1000, args.bits // 100)
        sizes = default_block_sizes(max(10, max_block // 100), max_block)
        if args.bits < 100 * sizes[-1]:
            raise ValidationError(
                f"--bits: --hurst needs at least {100 * sizes[-1]} bits, got {args.bits}"
            )
    params, _ = _source_params(args)
    if args.target_lambda is not None:
        print(f"d={params.d!r}")
    if args.estimate_rate:
        rate = estimate_rate(params, seed=args.seed)
        print(f"rate={rate!r}")
    if args.bits is not None:
        src = ErramilliSource(params, seed=args.seed)
        bits = src.bits(args.bits)
        if args.out:
            fmt = args.format or "raw"
            write_bit_trace(bits, args.out, fmt=fmt)
            print(f"wrote {args.out}: {args.bits} bits ({fmt})")
        if args.hurst:
            h = hurst_aggregated_variance(bits, sizes)
            print(f"hurst={h!r}")
    return 0


def _cmd_run(args) -> int:
    _check_out("--out", args.out)
    _check_out("--queue-series", args.queue_series)
    if args.out and args.queue_series and (
        os.path.realpath(args.out) == os.path.realpath(args.queue_series)
    ):
        raise ValidationError(f"--out and --queue-series: both name {args.out!r}")
    config = SimConfig(  # checks its fields before d and the graph are known, then gets them
        graph=None,
        rho=args.rho,
        traffic=None,
        warmup_steps=args.warmup,
        measure_steps=args.steps,
        seed=args.seed,
    )
    gen = (GenParams.from_avg_degree(args.n, args.avg_degree, args.alpha, args.seed)
           if args.edges is None else None)  # argparse makes --edges exclusive of --alpha
    config.traffic, lam = _source_params(args)
    if gen is None:
        g, meta = read_edge_list(args.edges)
        alpha = meta.get("alpha", float("nan"))
    else:
        g, alpha = generate_static_model(gen), args.alpha
    config.graph, _ = giant_component(g)
    metrics = run_sim(config)
    gamma = gamma_of_alpha(alpha) if not math.isnan(alpha) else float("nan")
    row = {
        "alpha": alpha,
        "gamma": gamma,
        "lambda": lam,
        "seed": args.seed,
        **_metrics_columns(metrics),
    }
    if args.out:
        emit_csv([row], args.out, RUN_COLUMNS)
    else:
        sys.stdout.writelines(_csv_lines(RUN_COLUMNS, [[row[c] for c in RUN_COLUMNS]]))
    if args.queue_series:
        with open(args.queue_series, "w") as f:
            series = enumerate(metrics.queue_length_timeseries)
            f.writelines(_csv_lines(["step", "total_queued"], series))
    return 0


def _cmd_sweep(args) -> int:
    text = ""
    if args.config:
        with open(args.config) as f:
            text = f.read()
    overrides = {
        key: getattr(args, key) for key in _PLAN_KEYS if getattr(args, key) is not None
    }
    try:
        plan = parse_plan(text, overrides)
    except ParseError as exc:  # only the config text raises it
        raise ValueError(f"{args.config}, {exc}") from None
    if not plan.out:
        raise ValidationError("out: no output path (use --out or config)")
    _check_out("out", plan.out)
    _check_out("out", _avg_path(plan.out))

    def progress(msg: str) -> None:
        print(msg, file=sys.stderr)

    if args.kind == "fig12":
        sweep, columns = run_fig12_sweep, FIG12_COLUMNS
    else:
        sweep, columns = run_fig34_sweep, FIG34_COLUMNS
    rows, avg, failures = sweep(plan, progress=progress)
    for failure in failures:  # also when no cell is left to write
        print(f"failed cell: {failure}", file=sys.stderr)
    emit_csv(rows, plan.out, columns)
    if avg:
        emit_csv(avg, _avg_path(plan.out), list(avg[0]))
    print(
        f"wrote {plan.out} ({len(rows)} rows) and {_avg_path(plan.out)} "
        f"({len(avg)} rows); {len(failures)} failed cells"
    )
    return 0


def _add_source_args(p: argparse.ArgumentParser) -> None:
    """Map exponents and exactly one of --d / --target-lambda (see _source_params)."""
    p.add_argument("--m1", type=float, default=ExperimentPlan.m1)
    p.add_argument("--m2", type=float, default=ExperimentPlan.m2)
    threshold = p.add_mutually_exclusive_group(required=True)
    threshold.add_argument("--d", type=float)
    threshold.add_argument("--target-lambda", type=float)


def _build_parser() -> _Parser:
    parser = _Parser(prog="netqsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph and export its edge list")
    p.add_argument("--n", type=int, default=ExperimentPlan.n_vertices)
    p.add_argument("--avg-degree", type=float, default=ExperimentPlan.avg_degree)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--giant", action="store_true", help="export only the giant component")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("load", help="per-vertex load CSV from an edge list")
    p.add_argument("--edges", required=True)
    p.add_argument("--giant", action="store_true")
    p.add_argument("--include-endpoints", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_load)

    p = sub.add_parser("traffic", help="bit traces, rate estimation, calibration")
    _add_source_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bits", type=int)
    p.add_argument("--format", choices=["raw", "rle"], help="with --out (default raw)")
    p.add_argument(
        "--estimate-rate", action="store_true",
        help="print the On fraction of 8 orbits of 100,000 steps, each after a 1000-step "
        "burn-in: the source's long-run rate, not its rate over a run's measured window",
    )
    p.add_argument("--hurst", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_traffic)

    p = sub.add_parser("run", help="single simulation, metrics row to stdout or file")
    p.add_argument("--n", type=int, default=ExperimentPlan.n_vertices)
    p.add_argument("--avg-degree", type=float, default=ExperimentPlan.avg_degree)
    graph = p.add_mutually_exclusive_group(required=True)
    graph.add_argument("--alpha", type=float)
    graph.add_argument("--edges", help="edge-list path (instead of generating)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rho", type=float, default=ExperimentPlan.rho)
    _add_source_args(p)
    p.add_argument("--warmup", type=int, default=ExperimentPlan.warmup_steps)
    p.add_argument("--steps", type=int, default=ExperimentPlan.measure_steps)
    p.add_argument("--queue-series", help="write step,total_queued CSV here")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="figure-dataset sweeps over (alpha, lambda, seed)")
    p.add_argument("--kind", choices=["fig12", "fig34"], required=True)
    p.add_argument("--config", help="key = value plan file")
    for key in _PLAN_KEYS:
        p.add_argument("--" + key.replace("_", "-"), dest=key)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # -h/--help
        return int(exc.code or 0)
    except ValueError as exc:  # ParseError and ValidationError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failure exit code
        # an OSError's str names its file, its repr does not
        print(f"runtime error: {exc if isinstance(exc, OSError) else repr(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
