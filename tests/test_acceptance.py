"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The two expensive
ensembles (load statistics vs alpha, and the throughput/delivery sweep)
are computed once at module scope and shared by their criteria.
"""
import copy
import math
import time

import numpy as np
import pytest

from netqsim import (
    ErramilliParams,
    ErramilliSource,
    GenParams,
    Graph,
    SimConfig,
    compute_load,
    default_block_sizes,
    generate_static_model,
    giant_component,
    hurst_aggregated_variance,
    load_stats,
    run,
)
from netqsim.cli import FIG34_COLUMNS, ExperimentPlan, emit_csv, run_fig34_sweep
from netqsim.graphs import all_pairs_hop_distances
from netqsim.sim import InvariantViolation, SimState
from _helpers import (
    assert_equals_reference,
    brute_force_load,
    cycle_graph,
    degree_histogram,
    degrees,
    fit_powerlaw_exponent,
    pack,
    path_graph,
    petersen_graph,
    random_graph,
    reference_run,
    star_graph,
    unpack,
)

N_SEEDS = 10
FIG_N, FIG_DEG, FIG_RHO = 500, 3.0, 0.16
LAMBDA_GRID = [0.01, 0.05, 0.1]


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}" + (f" :: {detail}" if detail else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def fig12_ensemble():
    """Seed-averaged load statistics per alpha at N=500, <k>=3."""
    t0 = time.time()
    stats = {}
    for alpha in (0.0, 0.5, 1.0):
        means, nstds = [], []
        for seed in range(N_SEEDS):
            params = GenParams.from_avg_degree(FIG_N, FIG_DEG, alpha, seed)
            gc, _ = giant_component(generate_static_model(params))
            st = load_stats(compute_load(gc))
            means.append(st.mean)
            nstds.append(st.normalized_std)
        stats[alpha] = (float(np.mean(means)), float(np.mean(nstds)))
    return stats, time.time() - t0


@pytest.fixture(scope="module")
def fig34_sweep():
    """Full throughput/delivery sweep: 3 alphas x 3 lambdas x 10 seeds."""
    t0 = time.time()
    plan = ExperimentPlan(
        n_vertices=FIG_N,
        avg_degree=FIG_DEG,
        alphas=[0.0, 0.5, 1.0],
        lambdas=LAMBDA_GRID,
        seeds=list(range(N_SEEDS)),
        rho=FIG_RHO,
    )
    rows, avg, failures = run_fig34_sweep(plan)
    return rows, avg, failures, time.time() - t0


def test_criterion_01_degree_exponent_windows():
    t0 = time.time()
    windows = {0.5: (2.6, 3.4), 1.0: (1.8, 2.4)}
    fits = {alpha: [] for alpha in windows}
    for alpha in windows:
        for seed in range(5):
            params = GenParams.from_avg_degree(10_000, 4.0, alpha, seed)
            hist = degree_histogram(generate_static_model(params))
            fits[alpha].append(fit_powerlaw_exponent(hist, k_min=5))
    elapsed = time.time() - t0
    ok = elapsed < 60 and all(
        windows[a][0] <= f <= windows[a][1] for a in windows for f in fits[a]
    )
    detail = (
        f"alpha=0.5: {[round(f, 3) for f in fits[0.5]]}, "
        f"alpha=1.0: {[round(f, 3) for f in fits[1.0]]}, {elapsed:.1f}s"
    )
    _report(1, "degree exponent tracks 1 + 1/alpha", ok, detail)


def test_criterion_02_er_limit_poisson_moments():
    t0 = time.time()
    means, ratios = [], []
    for seed in range(5):
        g = generate_static_model(GenParams.from_avg_degree(10_000, 4.0, 0.0, seed))
        deg = np.asarray(degrees(g), dtype=float)
        means.append(float(deg.mean()))
        ratios.append(float(deg.var() / deg.mean()))
    elapsed = time.time() - t0
    ok = (
        elapsed < 10
        and all(3.9 <= m <= 4.1 for m in means)
        and all(0.9 <= r <= 1.1 for r in ratios)
    )
    _report(
        2, "alpha=0 limit has Poisson degree moments", ok,
        f"means={[round(m, 3) for m in means]} var/mean={[round(r, 3) for r in ratios]}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_03_load_oracle_equivalence():
    networkx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    t0 = time.time()
    worst = 0.0
    checked = 0
    for nxg in graph_atlas_g():
        if nxg.number_of_nodes() < 1 or not networkx.is_connected(nxg):
            continue
        g = Graph(nxg.number_of_nodes(), list(nxg.edges()))
        diff = float(np.max(np.abs(compute_load(g) - brute_force_load(g))))
        worst = max(worst, diff)
        checked += 1
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(n - 2, n * (n - 1) // 2 + 1))
        g = random_graph(n, m, rng)
        diff = float(np.max(np.abs(compute_load(g) - brute_force_load(g))))
        worst = max(worst, diff)
    elapsed = time.time() - t0
    ok = elapsed < 60 and worst < 1e-9 and checked >= 996
    _report(
        3, "dependency accumulation matches brute-force enumeration", ok,
        f"{checked} atlas graphs + 100 random, worst diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_load_conservation():
    def gap(g: Graph) -> float:
        d = all_pairs_hop_distances(g)
        reach = d >= 0
        target = float(d[reach].sum() - (int(reach.sum()) - g.n_vertices))
        return abs(float(compute_load(g).sum()) - target)

    worst = 0.0
    for g in (path_graph(5), cycle_graph(8), star_graph(6), petersen_graph()):
        worst = max(worst, gap(g))
    rng = np.random.default_rng(99)
    for _ in range(20):
        n = int(rng.integers(5, 13))
        m = int(rng.integers(n - 2, n * (n - 1) // 2 + 1))
        worst = max(worst, gap(random_graph(n, m, rng)))
    for alpha, seed in ((0.0, 1), (0.5, 2), (1.0, 3)):
        params = GenParams.from_avg_degree(FIG_N, FIG_DEG, alpha, seed)
        gc, _ = giant_component(generate_static_model(params))
        worst = max(worst, gap(gc))
    ok = worst < 1e-6
    _report(4, "total load equals sum of (dist - 1) over reachable pairs", ok,
            f"worst gap {worst:.2e}")


def test_criterion_05_mean_load_decreases_with_alpha(fig12_ensemble):
    stats, elapsed = fig12_ensemble
    means = {a: stats[a][0] for a in stats}
    ok = elapsed < 120 and means[0.0] > means[0.5] > means[1.0]
    _report(5, "seed-averaged mean load decreases along the alpha grid", ok,
            f"{ {a: round(v, 1) for a, v in means.items()} }, ensemble {elapsed:.1f}s")


def test_criterion_06_load_spread_increases_with_alpha(fig12_ensemble):
    stats, elapsed = fig12_ensemble
    nstds = {a: stats[a][1] for a in stats}
    ok = nstds[0.0] < nstds[0.5] < nstds[1.0]
    _report(6, "seed-averaged normalized load STD increases along the alpha grid", ok,
            f"{ {a: round(v, 3) for a, v in nstds.items()} }")


def test_criterion_07_hurst_regime_separation():
    t0 = time.time()
    sizes = default_block_sizes()
    srd, lrd = [], []
    for k in range(5):
        src = ErramilliSource(ErramilliParams(1.5, 1.5, 0.5), seed=100 + k)
        srd.append(hurst_aggregated_variance(src.bits(1_000_000), sizes))
        src = ErramilliSource(ErramilliParams(2.0, 2.0, 0.5), seed=200 + k)
        lrd.append(hurst_aggregated_variance(src.bits(1_000_000), sizes))
    elapsed = time.time() - t0
    ok = (
        elapsed < 120
        # the band bounds the mean: one seed's H read above 0.6 on 5 of seeds
        # 105-139 (mean 0.573, sd 0.025); a 5-seed mean leaves it with
        # probability about 0.007
        and 0.45 <= sum(srd) / len(srd) <= 0.6
        and all(h > 0.7 for h in lrd)
        and max(srd) < min(lrd)
    )
    _report(
        7, "short- and long-range regimes separate in Hurst exponent", ok,
        f"srd={[round(h, 3) for h in srd]} lrd={[round(h, 3) for h in lrd]}, {elapsed:.1f}s",
    )


def test_criterion_08_throughput_ordering_and_widening_gap(fig34_sweep):
    rows, avg, failures, elapsed = fig34_sweep
    delivered = {
        (rec["alpha"], rec["lambda"]): rec["delivered_mean"] for rec in avg
    }
    top = LAMBDA_GRID[-1]
    ordered = (
        delivered[(0.0, top)] > delivered[(0.5, top)] > delivered[(1.0, top)]
    )
    widening = True
    for hi, lo in ((0.0, 0.5), (0.5, 1.0), (0.0, 1.0)):
        gaps = [delivered[(hi, lam)] - delivered[(lo, lam)] for lam in LAMBDA_GRID]
        widening = widening and all(b > a for a, b in zip(gaps, gaps[1:]))
    ok = not failures and elapsed < 900 and ordered and widening
    detail = (
        f"delivered@lambda={top}: "
        + ", ".join(f"alpha={a}: {delivered[(a, top)]:.0f}" for a in (0.0, 0.5, 1.0))
        + f", sweep {elapsed:.1f}s"
    )
    _report(8, "random topology out-delivers scale-free, gap grows with rate", ok, detail)


def test_criterion_09_simulation_invariants():
    # every run raises on a breach of the delivery-time lower bound, and of
    # the queue census or conservation at each block end; FIFO holds when the
    # run, with queues of several packets, equals the reference simulator,
    # whose delivered packets meet the bound; determinism is a bit-exact
    # re-run comparison
    params = GenParams.from_avg_degree(150, 3.0, 0.5, 7)
    gc, _ = giant_component(generate_static_model(params))
    dist = all_pairs_hop_distances(gc)  # oracle of the delivery bound
    hosts = sorted(range(0, gc.n_vertices, 3))
    traffic = ErramilliParams(2.0, 2.0, 0.75)
    state = SimState(gc, hosts, traffic=traffic, seed=13)
    state.run_steps(600)  # raises on any invariant violation
    ref = reference_run(gc, hosts, traffic, 13, 600)
    try:
        assert_equals_reference(state, ref)
        same = True
    except AssertionError:
        same = False
    bound_ok = same and bool(ref.records) and all(
        delivered_at - created_at >= int(dist[src, dst])
        for _, src, dst, created_at, delivered_at in ref.records
    )
    # the bound check is live: queued packets created one step in the
    # future make the next delivery fail it
    broken = copy.deepcopy(state)
    for q in broken._queues:
        for i, pkt in enumerate(q):
            _, src, dst = unpack(broken, pkt)
            q[i] = pack(broken, broken.clock + 1, src, dst)
    try:
        broken.run_steps(1)
        bound_ok = False
    except InvariantViolation as exc:
        bound_ok = bound_ok and "lower bound" in str(exc)
    fifo_ok = same and state.max_queue >= 2
    cfg = SimConfig(
        graph=gc, rho=0.3, traffic=ErramilliParams(2.0, 2.0, 0.8),
        warmup_steps=100, measure_steps=400, seed=5,
    )
    deterministic = run(cfg) == run(cfg)
    ok = fifo_ok and bound_ok and deterministic
    _report(
        9, "conservation, FIFO, delivery bound and determinism hold", ok,
        f"fifo={fifo_ok} bound={bound_ok} reference={same} deterministic={deterministic} "
        f"({state.delivered_total} delivered, each against its bound)",
    )


def test_criterion_10_delivery_time_curves(fig34_sweep, tmp_path):
    rows, avg, failures, _ = fig34_sweep
    out = tmp_path / "fig34.csv"
    emit_csv(rows, str(out), FIG34_COLUMNS)
    emitted = out.exists() and len(rows) == 3 * len(LAMBDA_GRID) * N_SEEDS
    curves = {}
    for rec in avg:
        curves.setdefault(rec["alpha"], []).append(
            (rec["lambda"], rec["mean_delivery_time_mean"])
        )
    monotone = True
    for alpha, pts in curves.items():
        vals = [v for _, v in sorted(pts)]
        monotone = monotone and all(b >= a for a, b in zip(vals, vals[1:]))
    ok = emitted and len(curves) == 3 and monotone
    detail = "; ".join(
        f"alpha={a}: " + " -> ".join(f"{v:.0f}" for _, v in sorted(pts))
        for a, pts in sorted(curves.items())
    )
    _report(10, "delivery-time curves emitted and non-decreasing in rate", ok, detail)


# Criterion 11's thresholds, fixed from seeds 10-49 (four 10-seed ensembles)
# before seeds 0-9 were read: there the lambda 0.1 gap of the seed means,
# alpha 0 minus alpha 1, read 0.298-0.336, each per-seed difference
# 0.117-0.476, and every lambda 0.01 mean 0.998-1.0006.
FRACTION_GAP_FLOOR = 0.15
FRACTION_BAND = 0.01
PAIRED_POSITIVE = 9


def test_criterion_11_delivered_fraction_needs_congestion(fig34_sweep):
    # delivered / generated is 1 in every cell of a network that never
    # congests, whatever its host count; a fraction above 1 is real, as the
    # window delivers packets generated during warmup
    rows, _, failures, _ = fig34_sweep
    fraction: dict[tuple, dict[int, float]] = {}  # (alpha, lambda) -> seed -> fraction
    for row in rows:
        cell = fraction.setdefault((row["alpha"], row["lambda"]), {})
        cell[row["seed"]] = row["delivered"] / row["generated"]
    mean = {key: float(np.mean(list(by_seed.values()))) for key, by_seed in fraction.items()}
    low, top = LAMBDA_GRID[0], LAMBDA_GRID[-1]
    alphas = (0.0, 0.5, 1.0)
    ordered = mean[(0.0, top)] > mean[(0.5, top)] > mean[(1.0, top)]
    gap = mean[(0.0, top)] - mean[(1.0, top)]
    near_one = all(abs(mean[(a, low)] - 1.0) <= FRACTION_BAND for a in alphas)
    # host i replays one stream at every alpha of a (seed, lambda), so pair by seed
    paired = [fraction[(0.0, top)][s] - fraction[(1.0, top)][s] for s in range(N_SEEDS)]
    positive = sum(diff > 0 for diff in paired)
    ok = (
        not failures and ordered and gap >= FRACTION_GAP_FLOOR and near_one
        and positive >= PAIRED_POSITIVE
    )
    detail = (
        "; ".join(
            f"lambda={lam}: " + ", ".join(f"alpha={a}: {mean[(a, lam)]:.4f}" for a in alphas)
            for lam in (top, low)
        )
        + f"; gap {gap:.4f} (floor {FRACTION_GAP_FLOOR}), band {FRACTION_BAND}"
        + f"; alpha 0 - 1 per seed at lambda={top}: {[round(d, 3) for d in paired]}"
        + f", {positive} of {N_SEEDS} positive (need {PAIRED_POSITIVE})"
    )
    _report(11, "delivered fraction falls with alpha under congestion, is 1 without", ok, detail)
