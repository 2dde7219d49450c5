"""Command-line front end: single-stage subcommands plus experiment sweeps
that emit figure-ready CSV datasets (load statistics vs alpha, throughput
and delivery time vs generation rate per topology)."""
from __future__ import annotations

import argparse
import functools
import math
import numbers
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
    calibrate_d,
    default_block_sizes,
    estimate_rate,
    hurst_aggregated_variance,
    write_bit_trace,
)

# Fixed seed for the d-calibration objective so that a plan is a pure
# function of its own seed list.
_CALIBRATION_SEED = 1_234_567

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
    calib_tol: float = 0.01
    out: str | None = None

    def validate(self) -> None:
        for name, value in (
            ("n", self.n_vertices), ("warmup", self.warmup_steps), ("steps", self.measure_steps)
        ):
            if not isinstance(value, numbers.Integral):
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
            if not isinstance(seed, numbers.Integral):
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
        if not 0.0 < self.calib_tol < 1.0:
            raise ValidationError("calib_tol: must lie in (0, 1)")


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
    "calib_tol": ("calib_tol", float),
    "out": ("out", str),
}

# Plan keys that `sweep` takes as flags; calib_tol is set in a config file only.
_SWEEP_FLAGS = [key for key in _PLAN_KEYS if key != "calib_tol"]


def parse_plan(text: str, overrides: dict[str, str] | None = None) -> ExperimentPlan:
    """Build a plan from `key = value` config text, then apply flag overrides.

    Unknown or repeated keys and malformed lines raise ParseError with the
    line number; out-of-range values raise ValidationError naming the field.
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


def _sweep(plan: ExperimentPlan, kind: str, columns: list[str], parts: list[dict], simulate,
           progress) -> tuple[list[dict], list[dict], list[dict]]:
    """One row per cell, in (alpha, seed, part) order. A part holds the key
    columns between gamma and seed: `{}` for fig12, `{"lambda": lam}` for
    fig34. The topology of an (alpha, seed) is built once for all its parts,
    and `simulate(g, seed, part)` gives the columns of each part's row.

    A failing cell is recorded and skipped so the rest of the sweep
    survives; a failed topology fails every part of its (alpha, seed). The
    seed average groups by the columns before "seed" and averages those
    after it. Returns (per-seed rows, seed-averaged rows, failures).
    """
    rows = []
    failures = []
    for alpha in plan.alphas:
        for seed in plan.seeds:
            if progress:
                progress(f"{kind} alpha={alpha} seed={seed}")
            topology = None
            for part in parts:
                try:
                    topology = topology or _build_topology(plan, alpha, seed)
                    g, topology_columns = topology
                    rows.append({
                        "alpha": alpha, "gamma": gamma_of_alpha(alpha), **part, "seed": seed,
                        **topology_columns, **simulate(g, seed, part),
                    })
                except Exception as exc:  # noqa: BLE001 - cell isolation by contract
                    failed = parts if topology is None else [part]
                    failures.extend(
                        {"alpha": alpha, **p, "seed": seed, "error": repr(exc)} for p in failed
                    )
                    if topology is None:
                        break
    split = columns.index("seed")
    return rows, average_records(rows, columns[:split], columns[split + 1:]), failures


def run_fig12_sweep(
    plan: ExperimentPlan, progress=None
) -> tuple[list[dict], list[dict], list[dict]]:
    """Load statistics against alpha: one row per (alpha, seed), see `_sweep`."""
    return _sweep(plan, "fig12", FIG12_COLUMNS, [{}], lambda g, seed, part: {}, progress)


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
    shared = _Shared()

    @functools.cache
    def calibrated(lam: float):
        """d for `lam`, or the error of its failed calibration: either is
        found once per sweep, not once per cell."""
        try:
            return calibrate_d(
                plan.m1, plan.m2, lam, tol=plan.calib_tol, seed=_CALIBRATION_SEED
            )
        except Exception as exc:  # noqa: BLE001 - failed by _sweep in each of its cells
            return exc

    def simulate(g, seed: int, part: dict) -> dict:
        d = calibrated(part["lambda"])
        if isinstance(d, Exception):
            raise d.with_traceback(None)  # without the frames of earlier cells
        config = SimConfig(
            graph=g,
            rho=plan.rho,
            traffic=ErramilliParams(plan.m1, plan.m2, d),
            warmup_steps=plan.warmup_steps,
            measure_steps=plan.measure_steps,
            seed=seed,
        )
        return _metrics_columns(run_sim(config, shared))

    parts = [{"lambda": lam} for lam in plan.lambdas]
    return _sweep(plan, "fig34", FIG34_COLUMNS, parts, simulate, progress)


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


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(records: list[dict], path: str, columns: list[str]) -> None:
    """Header plus one row per record; floats via repr so output is
    byte-stable and round-trips exactly."""
    if not records:
        raise ValueError("no records to write")
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(rec[c]) for c in columns) for rec in records)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _avg_path(path: str) -> str:
    return path[:-4] + "_avg.csv" if path.endswith(".csv") else path + "_avg"


# ---------------------------------------------------------------------------
# subcommands


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit code 1
        raise ValidationError(message)


def _cmd_gen(args) -> int:
    params = GenParams.from_avg_degree(args.n, args.avg_degree, args.alpha, args.seed)
    g = generate_static_model(params)
    if args.giant:
        g, _ = giant_component(g)
    write_edge_list(g, args.out, alpha=args.alpha, seed=args.seed)
    print(f"wrote {args.out}: n={g.n_vertices} m={g.n_edges}")
    return 0


def _cmd_load(args) -> int:
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


def _resolve_d(args) -> tuple[float, float]:
    """Threshold d from --d, or calibrated to --target-lambda; also the
    target rate (nan for --d)."""
    if args.d is not None:
        return args.d, float("nan")
    d = calibrate_d(
        args.m1, args.m2, args.target_lambda, tol=args.tol, seed=_CALIBRATION_SEED
    )
    return d, args.target_lambda


def _cmd_traffic(args) -> int:
    _check_seed(args.seed)  # a bad seed is named before any flag conflict
    if args.bits is None:
        for flag in ("hurst", "out"):
            if getattr(args, flag):
                raise ValidationError(f"--{flag} requires --bits")
    elif args.bits < 1:
        raise ValidationError(f"--bits: must be >= 1, got {args.bits}")
    elif not (args.out or args.hurst):
        raise ValidationError("--bits requires --out or --hurst")
    d, _ = _resolve_d(args)
    if args.target_lambda is not None:
        print(f"d={d!r}")
    params = ErramilliParams(args.m1, args.m2, d)
    if args.estimate_rate:
        rate = estimate_rate(params, seed=args.seed)
        print(f"rate={rate!r}")
    if args.bits is not None:
        src = ErramilliSource(params, seed=args.seed)
        bits = src.bits(args.bits)
        if args.out:
            write_bit_trace(bits, args.out, fmt=args.format)
            print(f"wrote {args.out}: {args.bits} bits ({args.format})")
        if args.hurst:
            max_block = max(1000, args.bits // 100)
            sizes = default_block_sizes(max(10, max_block // 100), max_block)
            h = hurst_aggregated_variance(bits, sizes)
            print(f"hurst={h!r}")
    return 0


def _cmd_run(args) -> int:
    if args.edges is not None:  # argparse makes it exclusive of --alpha
        g, meta = read_edge_list(args.edges)
        alpha = meta.get("alpha", float("nan"))
    else:
        alpha = args.alpha
        params = GenParams.from_avg_degree(args.n, args.avg_degree, alpha, args.seed)
        g = generate_static_model(params)
    g, _ = giant_component(g)
    d, lam = _resolve_d(args)
    config = SimConfig(
        graph=g,
        rho=args.rho,
        traffic=ErramilliParams(args.m1, args.m2, d),
        warmup_steps=args.warmup,
        measure_steps=args.steps,
        seed=args.seed,
    )
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
        print(",".join(RUN_COLUMNS))
        print(",".join(_fmt(row[c]) for c in RUN_COLUMNS))
    if args.queue_series:
        with open(args.queue_series, "w") as f:
            f.write("step,total_queued\n")
            f.writelines(
                f"{i},{q}\n" for i, q in enumerate(metrics.queue_length_timeseries)
            )
    return 0


def _cmd_sweep(args) -> int:
    text = ""
    if args.config:
        with open(args.config) as f:
            text = f.read()
    overrides = {
        key: getattr(args, key) for key in _SWEEP_FLAGS if getattr(args, key) is not None
    }
    try:
        plan = parse_plan(text, overrides)
    except ParseError as exc:  # only the config text raises it
        raise ValueError(f"{args.config}, {exc}") from None
    if not plan.out:
        raise ValidationError("out: no output path (use --out or config)")

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
    """Map exponents plus exactly one of --d / --target-lambda (see _resolve_d)."""
    p.add_argument("--m1", type=float, default=2.0)
    p.add_argument("--m2", type=float, default=2.0)
    threshold = p.add_mutually_exclusive_group(required=True)
    threshold.add_argument("--d", type=float)
    threshold.add_argument("--target-lambda", type=float)
    p.add_argument("--tol", type=float, default=0.01)


def _build_parser() -> _Parser:
    parser = _Parser(prog="netqsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph and export its edge list")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--avg-degree", type=float, default=3.0)
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
    p.add_argument("--format", choices=["raw", "rle"], default="raw")
    p.add_argument("--estimate-rate", action="store_true")
    p.add_argument("--hurst", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_traffic)

    p = sub.add_parser("run", help="single simulation, metrics row to stdout or file")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--avg-degree", type=float, default=3.0)
    graph = p.add_mutually_exclusive_group(required=True)
    graph.add_argument("--alpha", type=float)
    graph.add_argument("--edges", help="edge-list path (instead of generating)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rho", type=float, default=0.16)
    _add_source_args(p)
    p.add_argument("--warmup", type=int, default=1000)
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--queue-series", help="write step,total_queued CSV here")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="figure-dataset sweeps over (alpha, lambda, seed)")
    p.add_argument("--kind", choices=["fig12", "fig34"], required=True)
    p.add_argument("--config", help="key = value plan file")
    for key in _SWEEP_FLAGS:
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
        print(f"runtime error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
