"""On-Off traffic sources driven by a piecewise intermittency map.

The interval map has two branches split at threshold d: below d the orbit
creeps away from the fixed point at 0 (Off), above d it creeps toward 1
(On). Intermittency exponents m1, m2 in [1.5, 2.0] tune the sojourn-time
tails; m1 = m2 = 1.5 gives short-range-dependent output while pushing the
larger exponent to 2.0 makes the binary sequence long-range dependent.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import groupby

import numpy as np

# Orbits this close to the endpoint fixed points are reinjected; both
# endpoints are measure-zero traps for finite-precision arithmetic.
_ENDPOINT_EPS = 1e-12
# Burn-in and orbit count of estimate_rate, which calibrate_d uses too; the
# burn-in is also each source's default.
_BURN_IN = 1000
_N_ORBITS = 8
# Steps per on_count call of the rate loop; calibrate_d's early stop looks
# at the count this often.
_RATE_CHUNK = 4096


class NoConvergence(RuntimeError):
    """Bisection exhausted its step budget without hitting the tolerance."""


class InsufficientData(ValueError):
    """Sequence too short or block grid too narrow for a stable fit."""


@dataclass(frozen=True)
class ErramilliParams:
    """Map parameters: intermittency exponents and the Off/On threshold."""

    m1: float = 2.0
    m2: float = 2.0
    d: float = 0.5

    def __post_init__(self) -> None:
        if not 1.5 <= self.m1 <= 2.0:
            raise ValueError("m1 must lie in [1.5, 2.0]")
        if not 1.5 <= self.m2 <= 2.0:
            raise ValueError("m2 must lie in [1.5, 2.0]")
        if not 0.0 < self.d < 1.0:
            raise ValueError("d must lie in (0, 1)")


class ErramilliSource:
    """A single traffic source: owns its orbit point and its PRNG.

    The PRNG seeds the initial condition and reinjects orbits that land on
    the absorbing endpoints (0 stays Off-side, 1 stays On-side, so the
    current regime is preserved). A burn-in discards the transient before
    any bit is consumed.
    """

    def __init__(self, params: ErramilliParams, seed=None, burn_in: int = _BURN_IN):
        _check_seed(seed)
        _check_int("burn_in", burn_in, 0)
        self.params = params
        self.rng = np.random.default_rng(seed)
        x = self.rng.random()
        while not 0.0 < x < 1.0:  # random() may return exactly 0
            x = self.rng.random()
        self.x = x
        self._orbit(burn_in)

    def next_bit(self) -> int:
        """Advance once; 1 (On, a packet is generated) iff the orbit lands above d."""
        return self._orbit(1)[0]

    def _orbit(self, count: int) -> bytearray:
        """Advance `count` times; byte i is the bit of the i-th new orbit point.

        The one form of the map: the first branch covers [0, d], and a point
        that lands within _ENDPOINT_EPS of 0 or 1 (floating-point overshoot
        past them included) is redrawn uniformly on its own side of d.
        Scalar `**` keeps the orbit equal to the scalar reference in the
        tests; numpy's vectorised power differs in the last bits, and the
        chaotic orbit amplifies that.
        """
        _check_int("count", count, 0)
        p = self.params
        d, m1, m2 = p.d, p.m1, p.m2
        omd = 1.0 - d
        hi = 1.0 - _ENDPOINT_EPS
        rand = self.rng.random
        out = bytearray(count)
        x = self.x
        for i in range(count):
            if x <= d:
                x = x + omd * (x / d) ** m1
            else:
                x = x - d * ((1.0 - x) / omd) ** m2
            if x >= hi:
                x = d + omd * rand()
            elif x <= _ENDPOINT_EPS:
                x = d * rand()
            if x > d:
                out[i] = 1
        self.x = x
        return out

    def bits(self, count: int) -> np.ndarray:
        """Vector of `count` consecutive bits (uint8), equal to as many
        next_bit() calls."""
        return np.frombuffer(self._orbit(count), dtype=np.uint8)

    def on_count(self, count: int) -> int:
        """Number of On bits among the next `count`; the source advances
        exactly as bits(count) would."""
        return self._orbit(count).count(1)


def _check_int(name: str, value, low: int) -> None:
    if not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_seed(seed) -> None:
    """A seed is None, a SeedSequence or an integer >= 0."""
    if seed is not None and not isinstance(seed, np.random.SeedSequence):
        _check_int("seed", seed, 0)


def _rate_bounds(params: ErramilliParams, burn_in: int, samples: int, seed, n_orbits: int):
    """The rate loop of estimate_rate, yielding after every chunk of at most
    _RATE_CHUNK steps the bounds (low, high) on its result: the On count so
    far, and that count plus every step still to run, each over all steps.
    The last pair is the rate twice."""
    _check_int("samples", samples, 1)
    _check_int("n_orbits", n_orbits, 1)
    _check_seed(seed)
    total = n_orbits * samples
    count = 0
    left = total
    for child in np.random.SeedSequence(seed).spawn(n_orbits):
        src = ErramilliSource(params, seed=child, burn_in=burn_in)
        for start in range(0, samples, _RATE_CHUNK):
            chunk = min(_RATE_CHUNK, samples - start)
            count += src.on_count(chunk)
            left -= chunk
            yield count / total, (count + left) / total


def estimate_rate(
    params: ErramilliParams,
    burn_in: int = _BURN_IN,
    samples: int = 100_000,
    seed=0,
    n_orbits: int = _N_ORBITS,
) -> float:
    """Mean On fraction after burn-in, averaged over independent orbits.

    Deterministic for a given seed: orbit seeds are spawned from it.
    """
    for rate, _ in _rate_bounds(params, burn_in, samples, seed, n_orbits):
        pass
    return rate


def calibrate_d(
    m1: float,
    m2: float,
    target_lambda: float,
    tol: float = 0.01,
    seed=0,
    samples: int = 100_000,
    max_steps: int = 60,
) -> float:
    """Bisect the threshold d until the measured On rate matches the target.

    The On rate decreases in d (larger Off interval), and evaluations reuse
    the same seed so the objective is a fixed deterministic function of d:
    the rate is `estimate_rate(..., samples=samples, seed=seed)` with its
    other defaults. A midpoint's orbits stop as soon as the On count so far
    decides the side: too high once its lower bound is above the band
    `|rate - target_lambda| <= tol`, too low once its upper bound (every
    step left On) is below it. Float division and subtraction are monotone,
    so each decision, and the returned d, are those of the full estimate.
    """
    if not 0.0 < target_lambda < 1.0:
        raise ValueError("target_lambda must lie in (0, 1)")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol!r}")
    _check_int("max_steps", max_steps, 1)
    lo, hi = 1e-9, 1.0 - 1e-9
    for _ in range(max_steps):
        mid = 0.5 * (lo + hi)
        params = ErramilliParams(m1, m2, mid)
        for low, high in _rate_bounds(params, _BURN_IN, samples, seed, _N_ORBITS):
            if low - target_lambda > tol:
                lo = mid
                break
            if target_lambda - high > tol:
                hi = mid
                break
        else:  # the full rate is in the band
            return mid
    raise NoConvergence(
        f"no d with |rate - {target_lambda}| <= {tol} in {max_steps} bisection steps"
    )


def default_block_sizes(
    min_size: int = 100, max_size: int = 10_000, count: int = 8
) -> list[int]:
    """Log-spaced block sizes for the aggregated-variance fit.

    Starting at 100 keeps the fit out of the small-block region where
    short-range correlations inflate the slope.
    """
    sizes = np.round(np.logspace(math.log10(min_size), math.log10(max_size), count))
    return sorted({int(s) for s in sizes})


def hurst_aggregated_variance(bits, block_sizes) -> float:
    """Hurst exponent via the aggregated-variance method.

    Blocks the series into non-overlapping windows of each size, fits
    log(variance of block means) against log(block size) by least squares,
    and returns H = 1 + slope/2. An independent sequence has slope -1 and
    so H = 0.5; slower variance decay signals long-range dependence.
    """
    x = np.asarray(bits, dtype=np.float64)
    sizes = sorted({int(s) for s in block_sizes})
    if len(sizes) < 4:
        raise InsufficientData("need at least 4 distinct block sizes")
    if sizes[0] < 1:
        raise InsufficientData("block sizes must be positive")
    if sizes[-1] < 100 * sizes[0]:
        raise InsufficientData("block sizes must span at least two decades")
    if x.size < 100 * sizes[-1]:
        raise InsufficientData(
            f"sequence of length {x.size} too short for block size {sizes[-1]}"
        )
    log_s = []
    log_var = []
    for s in sizes:
        n_blocks = x.size // s
        means = x[: n_blocks * s].reshape(n_blocks, s).mean(axis=1)
        var = float(means.var())
        if var <= 0.0:
            raise InsufficientData(f"degenerate block means at block size {s}")
        log_s.append(math.log(s))
        log_var.append(math.log(var))
    slope = float(np.polyfit(log_s, log_var, 1)[0])
    return 1.0 + slope / 2.0


def write_bit_trace(bits, path: str, fmt: str = "raw") -> None:
    """Export a bit sequence: `raw` is one 0/1 per line, `rle` is a single
    line of `On:len Off:len ...` run tokens. A value other than 0/1 raises
    ValueError naming the first one."""
    arr = np.asarray(bits)
    bad = arr[(arr != 0) & (arr != 1)]
    if bad.size:
        raise ValueError(f"bit trace values must be 0 or 1, got {bad[0].item()!r}")
    arr = arr.astype(np.uint8)
    if fmt == "raw":
        body = "\n".join(str(int(b)) for b in arr)
    elif fmt == "rle":
        runs = groupby(arr.tolist())
        body = " ".join(f"{'On' if b else 'Off'}:{len(list(run))}" for b, run in runs)
    else:
        raise ValueError(f"unknown trace format {fmt!r}")
    with open(path, "w") as f:
        f.write(body + "\n")


def read_bit_trace(path: str) -> np.ndarray:
    """Read either trace format back into a uint8 bit vector. A raw bit
    other than 0/1, or a run token other than `On:<count>` / `Off:<count>`,
    raises ValueError naming the path and the 1-based line."""
    with open(path) as f:
        lines = f.read().splitlines()
    raw = "".join(lines).lstrip()[:1] in "01"  # an empty trace reads either way
    out: list[int] = []
    tokens = ((lineno, token) for lineno, line in enumerate(lines, 1) for token in line.split())
    for lineno, token in tokens:
        state, _, length = token.partition(":")
        if raw and token in ("0", "1"):
            out.append(int(token))
        elif not raw and state in ("On", "Off") and length.isdecimal():
            out.extend([int(state == "On")] * int(length))
        else:
            raise ValueError(f"{path}, line {lineno}: bad {'bit' if raw else 'run'} {token!r}")
    return np.array(out, dtype=np.uint8)
