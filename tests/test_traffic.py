import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netqsim.traffic
from netqsim import (
    ErramilliParams,
    ErramilliSource,
    InsufficientData,
    NoConvergence,
    calibrate_d,
    default_block_sizes,
    estimate_rate,
    hurst_aggregated_variance,
    read_bit_trace,
    write_bit_trace,
)
from netqsim.cli import _CALIBRATION_SEED, ExperimentPlan
from _helpers import advance, map_step, reference_calibrate_d

# Frozen fixture: long-run rate at m1=m2=1.7, d=0.5 (8 orbits of 1e6 samples,
# seed 31). Recorded after checking that doubling the samples moves the
# estimate by < 0.005.
RATE_FIXTURE_17 = 0.508097375


def test_params_validation():
    with pytest.raises(ValueError):
        ErramilliParams(1.4, 1.8, 0.5)
    with pytest.raises(ValueError):
        ErramilliParams(1.8, 2.1, 0.5)
    with pytest.raises(ValueError):
        ErramilliParams(1.8, 1.8, 0.0)
    with pytest.raises(ValueError):
        ErramilliParams(1.8, 1.8, 1.0)


# -- map -------------------------------------------------------------------------

def test_map_fixed_point_at_zero():
    p = ErramilliParams(1.5, 1.5, 0.5)
    assert map_step(p, 0.0) == 0.0


def test_map_first_branch_endpoint_hits_one():
    for d in (0.2, 0.5, 0.9):
        p = ErramilliParams(1.8, 1.8, d)
        assert map_step(p, d) == 1.0


def test_map_exact_values():
    p = ErramilliParams(2.0, 2.0, 0.5)
    assert map_step(p, 1.0) == 1.0
    assert math.isclose(map_step(p, 0.9), 0.88)


def test_map_image_stays_in_unit_interval():
    for m1 in (1.5, 1.75, 2.0):
        for m2 in (1.5, 2.0):
            for d in (0.1, 0.5, 0.93):
                p = ErramilliParams(m1, m2, d)
                for x in np.linspace(0.0, 1.0, 201):
                    y = map_step(p, float(x))
                    assert 0.0 <= y <= 1.0


def test_map_first_branch_strictly_increasing():
    p = ErramilliParams(1.6, 1.9, 0.4)
    xs = np.linspace(0.0, 0.4, 100)
    ys = [map_step(p, float(x)) for x in xs]
    assert all(b > a for a, b in zip(ys, ys[1:]))


def test_map_rejects_out_of_domain():
    p = ErramilliParams(1.5, 1.5, 0.5)
    with pytest.raises(ValueError):
        map_step(p, -0.1)
    with pytest.raises(ValueError):
        map_step(p, 1.1)


# -- source ------------------------------------------------------------------------

def test_orbit_determinism():
    p = ErramilliParams(1.8, 1.9, 0.3)
    a = ErramilliSource(p, seed=5).bits(5000)
    b = ErramilliSource(p, seed=5).bits(5000)
    assert np.array_equal(a, b)


def test_bits_match_repeated_next_bit():
    p = ErramilliParams(2.0, 1.6, 0.7)
    ref_src = ErramilliSource(p, seed=9)
    ref = np.array([advance(ref_src) > p.d for _ in range(2000)], dtype=np.uint8)
    fast_src = ErramilliSource(p, seed=9)
    assert np.array_equal(fast_src.bits(2000), ref)
    slow_src = ErramilliSource(p, seed=9)
    slow = np.array([slow_src.next_bit() for _ in range(2000)], dtype=np.uint8)
    assert np.array_equal(slow, ref)
    count_src = ErramilliSource(p, seed=9)
    assert count_src.on_count(2000) == int(ref.sum())
    assert fast_src.x == slow_src.x == count_src.x == ref_src.x


def test_endpoint_traps_are_left_on_their_own_side():
    p = ErramilliParams(1.5, 1.5, 0.5)
    for x in (0.0, 1e-13, 1.0 - 1e-13, 1.0):
        src, ref = ErramilliSource(p, seed=3), ErramilliSource(p, seed=3)
        src.x = ref.x = x
        assert src.next_bit() == (advance(ref) > p.d) == (x > p.d)
        assert src.x == ref.x and 0.0 < src.x < 1.0


@pytest.mark.parametrize("method", ["bits", "on_count"])
def test_negative_count_names_the_count(method):
    src = ErramilliSource(ErramilliParams(), seed=1)
    with pytest.raises(ValueError, match="count must be an integer >= 0, got -5"):
        getattr(src, method)(-5)


def test_high_threshold_gives_long_off_runs():
    src = ErramilliSource(ErramilliParams(1.5, 1.5, 0.999), seed=2)
    bits = src.bits(100_000)
    assert bits.mean() < 0.05


def test_on_fraction_near_half_at_symmetric_threshold():
    src = ErramilliSource(ErramilliParams(1.5, 1.5, 0.5), seed=77)
    frac = float(src.bits(1_000_000).mean())
    assert 0.35 <= frac <= 0.65


def test_orbit_stays_in_unit_interval():
    src = ErramilliSource(ErramilliParams(2.0, 2.0, 0.5), seed=13)
    for _ in range(10_000):
        src.next_bit()
        assert 0.0 < src.x < 1.0


# -- rate estimation and calibration -------------------------------------------------

def test_estimate_rate_limits():
    assert estimate_rate(ErramilliParams(1.7, 1.7, 0.999), samples=50_000, seed=3) < 0.05
    assert estimate_rate(ErramilliParams(1.7, 1.7, 0.001), samples=50_000, seed=3) > 0.95


def test_rate_non_increasing_in_d():
    rates = [
        estimate_rate(ErramilliParams(1.7, 1.7, float(d)), samples=20_000, seed=11)
        for d in np.linspace(0.05, 0.95, 10)
    ]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_rate_fixture_and_convergence():
    p = ErramilliParams(1.7, 1.7, 0.5)
    v = estimate_rate(p, samples=1_000_000, seed=31)
    assert v == RATE_FIXTURE_17  # bit-reproducible
    v2 = estimate_rate(p, samples=2_000_000, seed=31)
    assert abs(v2 - v) < 0.005


def test_calibration_fixed_point():
    target = estimate_rate(ErramilliParams(1.7, 1.7, 0.5), samples=50_000, seed=21)
    d = calibrate_d(1.7, 1.7, target, tol=0.01, seed=21, samples=50_000)
    assert abs(d - 0.5) < 0.05
    achieved = estimate_rate(ErramilliParams(1.7, 1.7, d), samples=50_000, seed=21)
    assert abs(achieved - target) <= 0.01


def test_calibration_small_target_posthoc():
    d = calibrate_d(2.0, 2.0, 0.05, tol=0.01, seed=5, samples=50_000)
    assert 0.5 < d < 1.0
    achieved = estimate_rate(ErramilliParams(2.0, 2.0, d), samples=50_000, seed=5)
    assert abs(achieved - 0.05) <= 0.01


def test_calibration_rejects_bad_target():
    with pytest.raises(ValueError):
        calibrate_d(1.7, 1.7, 0.0)
    with pytest.raises(ValueError):
        calibrate_d(1.7, 1.7, 1.0)


@pytest.mark.parametrize("tol", [0.0, -1.0, 1.0, 5.0, float("nan")])
def test_calibration_rejects_bad_tol(tol):
    # rejected before the first bisection step: tol 0 would spend the whole
    # step budget, and tol >= 1 would accept the first midpoint for any target
    with pytest.raises(ValueError, match="tol must lie in"):
        calibrate_d(2.0, 2.0, 0.05, tol=tol)


@pytest.mark.parametrize("samples", [0, -5])
def test_estimate_rate_rejects_bad_samples(samples):
    with pytest.raises(ValueError, match="samples"):
        estimate_rate(ErramilliParams(), samples=samples)


def test_calibration_no_convergence():
    with pytest.raises(NoConvergence):
        calibrate_d(1.7, 1.7, 0.3, tol=1e-15, seed=1, samples=2000, max_steps=8)


@pytest.mark.parametrize("max_steps", [0, -3])
def test_calibration_rejects_bad_max_steps(max_steps):
    with pytest.raises(ValueError, match=f"max_steps must be an integer >= 1, got {max_steps}"):
        calibrate_d(2.0, 2.0, 0.1, max_steps=max_steps)


@pytest.mark.parametrize("name", ["burn_in", "seed"])
@pytest.mark.parametrize("make", [ErramilliSource, estimate_rate])
def test_negative_burn_in_or_seed_is_named(make, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 0, got -1"):
        make(ErramilliParams(), **{name: -1})


@pytest.mark.parametrize("call, message", [
    (lambda p: ErramilliSource(p, seed=1.5), "seed must be an integer >= 0, got 1.5"),
    (lambda p: ErramilliSource(p, burn_in=1.5), "burn_in must be an integer >= 0, got 1.5"),
    (lambda p: estimate_rate(p, samples=1e3), "samples must be an integer >= 1, got 1000.0"),
    (lambda p: calibrate_d(2, 2, 0.1, samples=1.5e3),
     "samples must be an integer >= 1, got 1500.0"),
    (lambda p: calibrate_d(2, 2, 0.1, max_steps=1.5),
     "max_steps must be an integer >= 1, got 1.5"),
], ids=["source-seed", "source-burn_in", "estimate_rate-samples", "calibrate_d-samples",
        "calibrate_d-max_steps"])
def test_non_integer_counts_and_seeds_are_named(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(ErramilliParams())


def test_calibration_early_stop_matches_full_bisection(monkeypatch):
    # calibrate_d decides a midpoint from a partial count; a full estimate
    # per midpoint must give the same d, or fail in the same cases
    monkeypatch.setattr(netqsim.traffic, "_RATE_CHUNK", 700)  # 3 chunks an orbit
    outcomes = set()
    for (m1, m2, tol), target in itertools.product(
        [(2.0, 2.0, 0.01), (1.5, 1.5, 0.002), (1.7, 2.0, 0.05), (2.0, 1.5, 1e-4)],
        [0.005, 0.02, 0.1, 0.3, 0.6, 0.9],
    ):
        kwargs = dict(tol=tol, seed=7, samples=2000, max_steps=16)
        try:
            expected = reference_calibrate_d(m1, m2, target, **kwargs)
        except NoConvergence:
            with pytest.raises(NoConvergence):
                calibrate_d(m1, m2, target, **kwargs)
            outcomes.add("no convergence")
        else:
            assert calibrate_d(m1, m2, target, **kwargs) == expected, (m1, m2, tol, target)
            outcomes.add("d")
    assert outcomes == {"d", "no convergence"}


def test_default_grid_calibrates_to_pinned_d():
    plan = ExperimentPlan()
    d = {
        lam: calibrate_d(plan.m1, plan.m2, lam, tol=plan.calib_tol, seed=_CALIBRATION_SEED)
        for lam in plan.lambdas
    }
    assert d == {
        0.005: 0.9687499990624999,
        0.01: 0.9687499990624999,
        0.02: 0.9374999991249999,
        0.05: 0.8945312492109374,
        0.1: 0.812499999375,
    }


# -- Hurst estimation ------------------------------------------------------------------

def test_hurst_iid_sequence():
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, 1_000_000)
    h = hurst_aggregated_variance(bits, default_block_sizes())
    assert 0.45 <= h <= 0.55


def test_hurst_regime_separation_small():
    sizes = default_block_sizes(30, 3000, 6)
    srd = ErramilliSource(ErramilliParams(1.5, 1.5, 0.5), seed=5).bits(300_000)
    lrd = ErramilliSource(ErramilliParams(2.0, 2.0, 0.5), seed=5).bits(300_000)
    assert hurst_aggregated_variance(lrd, sizes) > hurst_aggregated_variance(srd, sizes) + 0.1


def test_hurst_preconditions():
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, 100_000)
    with pytest.raises(InsufficientData):
        hurst_aggregated_variance(bits, [10, 20, 1000])  # too few sizes
    with pytest.raises(InsufficientData):
        hurst_aggregated_variance(bits, [10, 20, 40, 80])  # narrow span
    with pytest.raises(InsufficientData):
        hurst_aggregated_variance(bits[:5000], [10, 100, 500, 1000])  # short series
    with pytest.raises(InsufficientData):
        hurst_aggregated_variance(np.ones(1_000_000), default_block_sizes())  # degenerate


def test_default_block_sizes_span():
    sizes = default_block_sizes()
    assert len(sizes) >= 4
    assert sizes[-1] >= 100 * sizes[0]
    assert sizes == [100, 193, 373, 720, 1389, 2683, 5179, 10000]
    # rounding that repeats a size keeps one copy, in ascending order
    assert default_block_sizes(1, 4, 8) == [1, 2, 3, 4]
    assert all(type(s) is int for s in sizes)


def test_default_block_sizes_leave_numpy_ma_unimported():
    src = Path(netqsim.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "from netqsim import default_block_sizes\n"
        "default_block_sizes()\n"
        "print('numpy.ma' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# -- trace export ------------------------------------------------------------------------

@pytest.mark.parametrize("fmt", ["raw", "rle"])
def test_bit_trace_round_trip(tmp_path, fmt):
    src = ErramilliSource(ErramilliParams(1.9, 1.6, 0.4), seed=8)
    bits = src.bits(5000)
    path = tmp_path / f"trace_{fmt}.txt"
    write_bit_trace(bits, str(path), fmt=fmt)
    assert np.array_equal(read_bit_trace(str(path)), bits)
    for short in ([], [1], [0, 0, 0], [1, 0]):
        write_bit_trace(short, str(path), fmt=fmt)
        back = read_bit_trace(str(path))
        assert back.dtype == np.uint8 and back.tolist() == short


@pytest.mark.parametrize("text, line, token", [
    ("0\n1\n2\n", 3, "2"),  # raw bits are 0 or 1
    ("On:1\nMaybe:3\n", 2, "Maybe:3"),
    ("Off:2 On:-2\n", 1, "On:-2"),
    ("Off:x\n", 1, "Off:x"),
])
def test_read_bit_trace_names_file_line_and_token(tmp_path, text, line, token):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        read_bit_trace(str(path))
    assert str(err.value).startswith(f"{path}, line {line}: ")
    assert str(err.value).endswith(repr(token))


def test_rle_format_shape(tmp_path):
    path = tmp_path / "trace.txt"
    write_bit_trace([0, 0, 1, 1, 1, 0], str(path), fmt="rle")
    assert path.read_text() == "Off:2 On:3 Off:1\n"
    with pytest.raises(ValueError):
        write_bit_trace([0, 1], str(path), fmt="nope")
    for fmt in ("raw", "rle"):  # a value other than 0/1 is named, not written
        with pytest.raises(ValueError, match="got 2$"):
            write_bit_trace([0, 2, 1], str(path), fmt=fmt)
    assert path.read_text() == "Off:2 On:3 Off:1\n"
