"""Sweep benchmark of netqsim: times the CLI's fig12/fig34 sweeps end to end,
checks their output, and in a traced run reports numbers per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fig34-freeflow --seed 1 --seconds 30 --trace 0

The program is imported from `src/` of the checkout, never from an installed
copy. Workloads are defined in `perfbench/workloads.py`. With `--trace 0` the
run repeats the sweep until `--seconds` are used and reports the end-to-end
metrics; with `--trace 1` it alternates untraced and traced sweeps and
reports the per-layer metrics. The last line of standard output is one JSON
object; the lines before it are a readable report. A record of the run,
with the spans of a traced run, is written under `perfbench/out/`.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Reserved for checking a claim on a seed that no tuning used: pass
# `--seed held-out`. Seeds 1-10 were used while the benchmark was tuned.
HELD_OUT_SEED = 104_729
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402
import checks  # noqa: E402
from speed import SpeedProbe  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _import_program():
    if not (SRC / "netqsim" / "cli.py").is_file():
        raise BenchError(f"no netqsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import netqsim.cli

    if Path(netqsim.cli.__file__).resolve().parent != SRC / "netqsim":
        raise BenchError(f"netqsim imported from {netqsim.cli.__file__}, not from {SRC}")


_SETUP_CHILD = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
from speed import SpeedProbe
with SpeedProbe() as probe:
    import netqsim.cli
    import workloads
    workloads.make_plan({name!r}, {seeds!r})
print(repr(probe.wall_s), repr(probe.scaled_s))
"""


def measure_setup(name: str, seeds: list[int]) -> tuple[list[float], list[float]]:
    """Import of netqsim.cli in a fresh interpreter plus building the plan,
    repeated; the first repeat may also compile the bytecode. Returns the
    wall times and the times scaled to the nominal machine speed."""
    code = _SETUP_CHILD.format(src=str(SRC), bench=str(BENCH_DIR), name=name, seeds=seeds)
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed:\n{proc.stderr}")
        w, s = proc.stdout.strip().splitlines()[-1].split()
        wall.append(float(w))
        scaled.append(float(s))
    return wall, scaled


def run_sweep(name: str, plan, progress=None, probe=None):
    """One timed sweep call: (seconds, rows, failures, captured sims). With
    a `SpeedProbe`, the probe times the call instead and samples the speed."""
    sweep = workloads.sweep_function(name)
    sims: list = []
    with checks.capture_sims(sims), probe or contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            result = sweep(plan, progress=progress)
        except Exception as exc:  # noqa: BLE001 - reported as failed cells
            traceback.print_exc()
            result = ([], [], [repr(exc)])
        elapsed = time.perf_counter() - t0
    rows, failures = result[0], (result[2] if len(result) > 2 else [])
    return elapsed, rows, failures, sims


class Outcome:
    """Cells attempted and failed, the digests and the problems of a run."""

    def __init__(self, name: str, seed: int):
        self.kind = workloads.WORKLOADS[name].kind
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[str] = []
        self.csv_path = OUT_DIR / f"rows-{name}-seed{seed}.csv"

    def check(self, plan, rows, failures, sims) -> None:
        bad = checks.check_sweep(self.kind, plan, rows, failures, sims)
        self.attempted += max(len(checks.cell_keys(self.kind, plan)), len(bad))
        self.failed += len(bad)
        self.problems.extend(f"{cell}: {why}" for cell, why in bad.items())
        digest = checks.rows_digest(self.kind, rows, self.csv_path) if rows else "no rows"
        if self.digests and digest != self.digests[0]:
            # The sweep is deterministic: a repeat that differs is wrong.
            self.failed += len(rows)
            self.problems.append(f"sweep repeat gave rows digest {digest}, first {self.digests[0]}")
        self.digests.append(digest)

    def check_cpl(self, plan, rows) -> None:
        problem = checks.check_cpl_with_networkx(self.kind, plan, rows)
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _more_time(t_start: float, seconds: float, durations: list[float]) -> bool:
    """Another round should start: it is predicted (from the median round) to
    end within the measuring window. The first round always runs, so a round
    longer than the window is measured once."""
    elapsed = time.perf_counter() - t_start
    return elapsed + statistics.median(durations) <= seconds


def run_untraced(name, plan, seconds, outcome):
    """Sweeps under a `SpeedProbe` until the time is used; returns their
    scaled times, and the peak RSS after the first sweep, so that it does
    not depend on how many sweeps fit in the time."""
    wall_times, sweep_times, probes = [], [], []
    sims_seen = []
    t_start = time.perf_counter()
    while True:
        probe = SpeedProbe(workloads.WORKLOADS[name].probe)
        _, rows, failures, sims = run_sweep(name, plan, probe=probe)
        wall_times.append(probe.wall_s)
        sweep_times.append(probe.scaled_s)
        probes.append(probe.probes)
        if len(wall_times) == 1:
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outcome.check(plan, rows, failures, sims)
        sims_seen = sims
        if not _more_time(t_start, seconds, wall_times):
            break
    info = {"sweep_wall_times_s": wall_times, "sweep_scaled_times_s": sweep_times,
            "speed_probes": probes}
    if outcome.kind == "fig34":
        info["target_lambda"] = plan.lambdas
        info["offered_rate"] = checks.offered_rate(sims_seen)
    return sweep_times, peak_rss_mib, rows, info


# Counters that a traced sweep must repeat exactly.
EXACT_COUNTERS = (
    "sim.steps", "sim.forwards", "traffic.next_bit_calls", "traffic.bits_calls",
    "traffic.estimate_rate_calls", "load.edge_scans", "graphs.n_giant", "cli.cells",
)
COVERAGE_TOL = 0.01


def run_traced(name, plan, seed, seconds, outcome):
    """Untraced and traced sweeps in turn; per-layer numbers of the first
    traced sweep, and traced over untraced median sweep time."""
    from spans import Tracer, layer_metrics

    plain_times, traced_times, layer_runs = [], [], []
    first_tracer = None
    t_start = time.perf_counter()
    while True:
        elapsed, rows, failures, sims = run_sweep(name, plan)
        plain_times.append(elapsed)
        outcome.check(plan, rows, failures, sims)
        tracer = Tracer()
        with tracer.installed():
            elapsed, rows, failures, sims = run_sweep(name, plan, progress=tracer.progress)
        traced_times.append(elapsed)
        outcome.check(plan, rows, failures, sims)
        layer_runs.append(layer_metrics(tracer, elapsed))
        first_tracer = first_tracer or tracer
        pair = [p + t for p, t in zip(plain_times, traced_times)]
        if not _more_time(t_start, seconds, pair):
            break
    metrics = dict(layer_runs[0])
    metrics["trace.untraced_sweep_s"] = statistics.median(plain_times)
    metrics["trace.overhead_ratio"] = statistics.median(traced_times) / statistics.median(plain_times)
    for later in layer_runs[1:]:
        for key in EXACT_COUNTERS:
            if later[key] != metrics[key]:
                outcome.problems.append(f"{key} differs between traced sweeps: {metrics[key]} vs {later[key]}")
    for run in layer_runs:
        if abs(run["trace.coverage"] - 1.0) > COVERAGE_TOL:
            outcome.problems.append(
                f"layer self times plus cli.self_s cover {run['trace.coverage']:.4f} of the traced sweep"
            )
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    t0 = first_tracer.spans[0].start if first_tracer.spans else 0.0
    with open(spans_path, "w") as f:
        for span in first_tracer.spans:
            f.write(json.dumps(span.record(t0)) + "\n")
    info = {"sweep_times_s": plain_times, "traced_sweep_times_s": traced_times, "spans": str(spans_path)}
    return metrics, rows, info


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "git_sha": _git_sha(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git (which would
    search the parent directories)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _reference_digest(name: str, seed: int) -> str | None:
    path = BENCH_DIR / "digests.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(name, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, help="non-negative integer, or 'held-out'")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    held_out = args.seed == "held-out"
    seed = HELD_OUT_SEED if held_out else int(args.seed)
    if seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        _import_program()
        OUT_DIR.mkdir(exist_ok=True)
        seeds = workloads.plan_seeds(args.workload, seed)
        setup_wall, setup_times = ([], []) if args.trace else measure_setup(args.workload, seeds)
        plan = workloads.make_plan(args.workload, seeds)
        outcome = Outcome(args.workload, seed)
        if args.trace:
            metrics, rows, info = run_traced(args.workload, plan, seed, args.seconds, outcome)
        else:
            sweep_times, peak_rss_mib, rows, info = run_untraced(
                args.workload, plan, args.seconds, outcome
            )
        if rows:
            outcome.check_cpl(plan, rows)
        if not args.trace:
            metrics = {
                "sweep_s": statistics.median(sweep_times),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": peak_rss_mib,
                "cell_pass_ratio": 1.0 - outcome.failed / outcome.attempted,
            }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    units = _units()
    reference = _reference_digest(args.workload, seed)
    digest = outcome.digests[0]
    record = {
        "workload": args.workload,
        "seed": seed,
        "held_out": held_out,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(),
        "plan_seeds": seeds,
        "setup_wall_times_s": setup_wall,
        "setup_scaled_times_s": setup_times,
        "cells_attempted": outcome.attempted,
        "cells_failed": outcome.failed,
        "cell_fail_ratio": outcome.failed / outcome.attempted,
        "rows_sha256": digest,
        "rows_sha256_reference": reference,
        "problems": outcome.problems,
        **info,
        "metrics": metrics,
    }
    record_path = OUT_DIR / f"result-{args.workload}-seed{seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {seed}{' (held out)' if held_out else ''} trace {args.trace}")
    for key, value in record["environment"].items():
        print(f"env {key}: {value}")
    for key, value in info.items():
        print(f"info {key}: {value}")
    print(f"info cell_fail_ratio: {record['cell_fail_ratio']} "
          f"({outcome.failed} of {outcome.attempted} cells)")
    status = "no reference" if reference is None else ("same" if reference == digest else "CHANGED")
    print(f"info rows_sha256: {digest} ({status} vs perfbench/digests.json)")
    for problem in outcome.problems:
        print(f"problem: {problem}")
    for key, value in metrics.items():
        print(f"metric {key}: {value} {units.get(key, '')}")
    print(f"record: {record_path}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            key: {"value": value, "unit": units[key]} for key, value in metrics.items() if key in units
        },
    }))
    return 0


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
