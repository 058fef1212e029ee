"""Linear transport along characteristics, and the Picard ladder built on it.

Solves f_t + v(t,x) f_x = g(t,x) semi-Lagrangian style, slice to slice:
each grid node of an output frame is traced backward with RK4 to the
previous output time, where the previous frame is sampled, and g is
accumulated along the path (trapezoid in time).  Field samples between
grid nodes come from 4-point periodic Lagrange cubics, so the scheme is
globally third order in dt for smooth data (interpolation is fourth order
in dx), plus an interpolation error that builds up with the number of
output slices.

The cubics are held as tables: the power-form coefficients of each cell's
cubic, built once per field (for `TimeSlices`, once for all its frames, on
first sample).  A sample then costs one gather of four coefficients and
three Horner steps per point; a time between slices blends two tables once
and reuses the blend for every sample at that time.

The Picard ladder freezes velocity and source from the previous iterate of
the momentum equation and transports against them; contraction of the
Besov distances d_n is the quantitative content of local well-posedness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import momentum_coefficients
from .errors import ConfigError, EstimationError
from .fields import Grid1D, RealField, spectrum
from .lpaley import besov_norm, low_cutoff, partition_for


def _cubic_table(values: np.ndarray) -> np.ndarray:
    """Power-form coefficients (c0, c1, c2, c3) of the cubic on each cell.

    Cell j holds the cubic through values[j-1..j+2] in the local
    coordinate theta = (x - x_j)/dx.  Works on a stack of frames along the
    last axis; the result has shape (4, ..., n).
    """
    pad = np.concatenate((values[..., -1:], values, values[..., :2]), axis=-1)
    fm, f0, f1, f2 = pad[..., :-3], pad[..., 1:-2], pad[..., 2:-1], pad[..., 3:]
    table = np.empty((4,) + values.shape)
    table[0] = f0
    table[2] = 0.5 * (fm + f1) - f0
    table[3] = (f2 - fm) / 6.0 + 0.5 * (f0 - f1)
    # the cubic passes through f1 at theta = 1
    table[1] = f1 - f0 - table[2] - table[3]
    return table


def _cubic_eval(table: np.ndarray, grid: Grid1D, xq: np.ndarray) -> np.ndarray:
    """Sample a (4, n) coefficient table at arbitrary points.

    One modulo for the cell index, one gather of the four coefficients of
    each point's cell, then Horner in place.
    """
    s = (xq + grid.L) / grid.dx
    cell = np.floor(s)
    th = s - cell
    # Grid1D keeps n a power of two, so masking is the modulo; take's
    # mode="wrap" instead steps an index back one period at a time, which
    # hangs on the far-off feet of a diverged run
    idx = cell.astype(np.int64)
    idx &= grid.n - 1
    c = np.take(table, idx, axis=-1)
    out = c[3]
    out *= th
    out += c[2]
    out *= th
    out += c[1]
    out *= th
    out += c[0]
    return out


def _wrap_periodic(x: np.ndarray, L: float) -> None:
    """Wrap x into the periodic box [-L, L], in place.

    Bitwise equal to (x + L) % (2L) - L for x in [-3L, 3L], where the
    rounded quotient (x + L) / 2L has the exact floor and each subtraction
    is exact or rounds once as the remainder does, at half its cost.
    Farther out the two may differ by one period at a seam, which the
    periodic interpolation does not see.
    """
    period = 2.0 * L
    x += L
    x -= period * np.floor(x / period)
    x -= L


def cubic_interp_periodic(values: np.ndarray, grid: Grid1D, xq: np.ndarray) -> np.ndarray:
    """Sample a grid field at arbitrary points via 4-point Lagrange cubics."""
    return _cubic_eval(_cubic_table(values), grid, xq)


class TimeSlices:
    """Snapshots of a field on a shared grid, interpolated linearly in t.

    The frames are a read-only copy.  Sampling at points builds the
    coefficient table of every frame on first use and blends the tables of
    the two neighbouring slices; the last (t, blended table) is memoized,
    since an RK4 backtrace samples each time twice.
    """

    def __init__(self, grid: Grid1D, times: np.ndarray, frames: np.ndarray):
        times = np.asarray(times, dtype=float)
        frames = np.array(frames, dtype=float)
        if times.ndim != 1 or len(times) < 1:
            raise ConfigError("need at least one time slice")
        if frames.shape != (len(times), grid.n):
            raise ConfigError(
                f"frames shape {frames.shape} does not match "
                f"({len(times)}, {grid.n})"
            )
        if len(times) > 1 and np.any(np.diff(times) <= 0):
            raise ConfigError("slice times must be strictly increasing")
        frames.setflags(write=False)
        self.grid = grid
        self.times = times
        self.frames = frames
        self._tables: np.ndarray | None = None
        self._last: tuple[float, np.ndarray] | None = None

    def _blend(self, stack: np.ndarray, t: float) -> np.ndarray:
        """Linear blend in t along the slice axis (second to last) of stack."""
        ts = self.times
        if len(ts) == 1 or t <= ts[0]:
            return stack[..., 0, :]
        if t >= ts[-1]:
            return stack[..., -1, :]
        j = int(np.searchsorted(ts, t, side="right")) - 1
        th = (t - ts[j]) / (ts[j + 1] - ts[j])
        return (1.0 - th) * stack[..., j, :] + th * stack[..., j + 1, :]

    def at(self, t: float) -> np.ndarray:
        return self._blend(self.frames, t)

    def __call__(self, t: float, xq: np.ndarray) -> np.ndarray:
        last = self._last
        if last is None or last[0] != t:
            if self._tables is None:
                self._tables = _cubic_table(self.frames)
            last = (t, self._blend(self._tables, t))
            self._last = last
        return _cubic_eval(last[1], self.grid, xq)


def _trace_interval(frame, g: Grid1D, velocity, source, t0: float, t1: float, nst: int):
    """The frame at t1 from the frame at t0, traced back in nst RK4 steps.

    The nodes are traced backward to t0, where the frame is interpolated at
    the feet, and the source is summed along the path by the trapezoid rule.
    """
    h = (t1 - t0) / nst
    x = g.x.copy()
    acc = np.zeros(g.n)
    s_here = source(t1, x) if source is not None else None
    t = t1
    for _ in range(nst):
        # RK4 for dx/dt = v along the reversed path
        k1 = velocity(t, x)
        k2 = velocity(t - 0.5 * h, x - 0.5 * h * k1)
        k3 = velocity(t - 0.5 * h, x - 0.5 * h * k2)
        k4 = velocity(t - h, x - h * k3)
        x = x - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _wrap_periodic(x, g.L)
        t -= h
        if source is not None:
            s_prev = source(t, x)
            acc += 0.5 * h * (s_here + s_prev)
            s_here = s_prev
    return cubic_interp_periodic(frame, g, x) + acc


def solve_transport(
    f0: RealField, velocity, dt: float, out_times, source=None
) -> TimeSlices:
    """March characteristics backward from each output time to the previous one.

    Solves on f0's grid.  Velocity and source are `TimeSlices` on a grid of
    the same L and n, or any callable (t, x_array) -> array; no source means
    g = 0.  Output times are required: they must be finite, >= 0 and
    strictly increasing, and the last one is the horizon; t=0 with f0
    is the implicit first frame.  Each interval [t_{i-1}, t_i] gets its own
    RK4 backtrace in round((t_i - t_{i-1})/dt) steps (at least one), and the
    frame is the previous frame interpolated at the feet plus the trapezoid
    sum of the source along the path.  The cost is about one RK4 step per
    dt of horizon in total, not one per dt of horizon per frame as a
    retrace to t=0 would take.

    Velocity and source given as `TimeSlices` are sampled from their cubic
    tables: per RK4 step two table blends for the velocity (k2 and k3 share
    one time, and k4 shares the next step's k1) and one for the source, then
    one gather and Horner pass per sample, about 18 ns per point at n = 1024
    (2-core x86_64, numpy 2.4.6).

    The price is interpolation error that builds up with the number of
    slices, which `n_slices` sets in the picard config.  Measured final-
    frame max error at T=1, dt 0.05, for 1 / 4 / 16 / 64 / 256 intervals:
    constant advection (n=512) 5.3e-10 / 2.0e-9 / 2.7e-9 / 2.6e-8 / 1.2e-7;
    v = cos t (n=512) 1.9e-9 / 2.1e-9 / 6.4e-9 / 1.8e-8 / 1.0e-7.
    """
    if dt <= 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    g = f0.grid
    for sampler in (velocity,) if source is None else (velocity, source):
        if not callable(sampler):
            raise ConfigError("velocity/source must be TimeSlices or callable(t, x)")
        if isinstance(sampler, TimeSlices) and (sampler.grid.L, sampler.grid.n) != (g.L, g.n):
            raise ConfigError("velocity/source slices live on a different grid")
    out_times = np.asarray(out_times, dtype=float)
    if out_times.ndim != 1 or len(out_times) < 1:
        raise ConfigError("need a 1-d array of at least one output time")
    if not np.all(np.isfinite(out_times)) or out_times[0] < 0.0:
        raise ConfigError(f"output times must be finite and >= 0, got {out_times}")
    if np.any(np.diff(out_times) <= 0):
        raise ConfigError("output times must be strictly increasing")
    frames = np.empty((len(out_times), g.n))
    frame = f0.values
    t_prev = 0.0
    for oi, tout in enumerate(out_times):
        if tout != 0.0:
            nst = max(1, round((tout - t_prev) / dt))
            frame = _trace_interval(frame, g, velocity, source, t_prev, tout, nst)
            t_prev = tout
        frames[oi] = frame
    return TimeSlices(g, out_times, frames)


def _require_finite(quantity: str, *values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        raise EstimationError(f"{quantity} is not finite; lower s or the data")


def _least(ok, lo: float, hi: float, steps: int) -> float:
    """Bisect [lo, hi] toward the least C with ok(C), given ok(hi)."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass
class AprioriReport:
    fitted_C: float
    ratios: np.ndarray
    refinement_drift: float
    passed: bool


def transport_apriori_audit(
    f0: RealField, velocity, T: float, dt: float, s: float = 0.5
) -> AprioriReport:
    """Fit the smallest C >= 0 making the source-free transport bound hold.

    The bound reads, with V(t) the time integral of ||v||_{B^{s+2}},

       ||f(t)||_{B^s} <= e^{CV(t)} ||f0||_{B^s}.

    A-priori theory guarantees some finite C; the audit fits it by
    bisection at nine evenly spaced times in [0, T] and checks it is stable
    under halving dt.  The velocity norms, ||f0|| and V(t) are computed once;
    each dt run solves and takes the nine frame norms.
    """
    g = f0.grid
    part = partition_for(g)
    out_times = np.linspace(0.0, T, 9)
    vnorm = np.array(
        [
            besov_norm(RealField(g, np.asarray(velocity(t, g.x))), s + 2.0, 2.0, 2.0, part)
            for t in out_times
        ]
    )
    V = np.concatenate(
        [[0.0], np.cumsum(0.5 * np.diff(out_times) * (vnorm[1:] + vnorm[:-1]))]
    )
    a0 = besov_norm(f0, s, 2.0, 2.0, part)
    # an overflowed norm leaves no growth bound to fit, and an infinite V(T)
    # would start the bracket below at C = 0, where doubling never ends
    _require_finite(f"V(T), the time integral of ||v||_B^{s + 2:g}", V[-1])
    _require_finite(f"||f0||_B^{s:g}", a0)

    def fit(dt_run: float) -> tuple[np.ndarray, float]:
        sol = solve_transport(f0, velocity, dt_run, out_times)
        lhs = np.array(
            [besov_norm(RealField(g, fr), s, 2.0, 2.0, part) for fr in sol.frames]
        )
        _require_finite(f"a frame norm ||f(t)||_B^{s:g}", *lhs)

        def ok(C: float) -> bool:
            return bool(np.all(lhs <= np.exp(C * V) * a0 * (1.0 + 1e-12) + 1e-300))

        C = 0.0
        if not ok(C):
            # start where e^{CV(T)} is e: from C = 1, e^{V(T)} overflows
            # once V(T) passes about 709
            hi = 1.0 / max(float(V[-1]), 1.0)
            while not ok(hi):
                hi *= 2.0
                if hi > 1e8:
                    raise EstimationError("no finite C satisfies the growth bound")
            C = _least(ok, 0.0, hi, 60)
        return lhs / np.maximum(np.exp(C * V) * a0, 1e-300), C

    ratios, C = fit(dt)
    C_ref = fit(0.5 * dt)[1]
    drift = abs(C_ref - C) / max(C, 1.0)
    passed = bool(np.all(ratios <= 1.0 + 1e-9)) and drift < 0.5
    return AprioriReport(C, ratios, drift, passed)


def picard_bound(m0_norm: float, C: float, T: float) -> float:
    """Uniform bound M = C ||m0|| / (1 - 2 C^2 ||m0|| T) on the ladder."""
    q = 2.0 * C * C * m0_norm * T
    if q >= 1.0:
        raise ConfigError(
            f"smallness fails: 2 C^2 ||m0|| T = {q:.6g} >= 1; shrink T"
        )
    return C * m0_norm / (1.0 - q)


# Picard's transport step, when none is given: the step-doubling test
# (Hairer, Norsett & Wanner, Solving ODEs I, 2nd ed., sec. II.4) accepts k
# RK4 steps per slice interval when the probe frame traced in k and in 2k
# steps differs by at most STEP_TOL of its largest value.  The probe is the
# first interval of the first iteration, where the step error is smallest:
# at the picard defaults and k = 1 it reads 9.6e-8, while the frames of
# every iteration stay within 5.7e-6 of the T/200 ladder, about 60x more
# (the 16 intervals add up, and the later iterations carry about three
# times more).  So 1e-6 on the probe holds the ladder within about 1e-4
# of its largest value.
STEP_TOL = 1e-6


def _steps_by_doubling(frame, g: Grid1D, velocity, source, t0: float, t1: float, cap: int):
    """Smallest k = 1, 2, 4, ... below cap that passes the step-doubling test.

    Returns k and the relative difference max|f_2k - f_k| / max|f_2k| of the
    probe that passed.  When no k below cap passes, or a probe frame is not
    finite, it returns cap and the last difference (None if cap is 1).
    """
    k, est = 1, None
    coarse = _trace_interval(frame, g, velocity, source, t0, t1, 1)
    while k < cap:
        fine = _trace_interval(frame, g, velocity, source, t0, t1, 2 * k)
        diff, scale = float(np.max(np.abs(fine - coarse))), float(np.max(np.abs(fine)))
        est = diff / scale if scale > 0.0 else diff
        if not math.isfinite(est):
            break
        if diff <= STEP_TOL * scale:
            return k, est
        k, coarse = 2 * k, fine
    return cap, est


@dataclass
class PicardReport:
    d: list[float]  # d_n = sup_t distance between consecutive iterates
    ratios: list[float]
    sup_norms: list[float]
    fitted_C: float
    bound: float | None
    smallness_ok: bool
    final_frame: np.ndarray  # the last iterate at time T
    steps_per_interval: int  # RK4 steps of the first slice interval
    step_estimate: float | None  # the step-doubling difference, None for a given dt


def picard_run(
    m0: RealField,
    T: float,
    n_iter: int = 6,
    s: float = 1.5,
    dt: float | None = None,
    n_slices: int = 17,
) -> PicardReport:
    """Run the frozen-coefficient iteration on the momentum datum m0.

    Iterate n+1 transports the mollified datum S_{n+1} m0 with the velocity
    and source of the momentum transport form (`momentum_coefficients`)
    evaluated on iterate n.  Iterate 0 is m0 held constant in
    time; the low-pass cutoffs S_j saturate to the identity once j clears
    the grid's top dyadic block.

    With no dt, the first iteration picks the number k of RK4 steps per
    slice interval by step doubling (`STEP_TOL`), and every iteration steps
    at dt = (T / (n_slices - 1)) / k.  The doubling stops at T/200, the
    former default, which is then the step.  A norm of m0 or a distance
    d_n that is not finite raises `EstimationError`.
    """
    if n_iter < 2:
        raise ConfigError("need at least two iterations to measure a distance")
    g = m0.grid
    part = partition_for(g)
    times = np.linspace(0.0, T, n_slices)
    interval = times[1] - times[0]
    finest = T / 200.0  # the former default, where step doubling stops
    step_estimate = None

    m0_norm = besov_norm(m0, s - 1.0, 2.0, 2.0, part)
    _require_finite(f"||m0||_B^{s - 1.0:g}", m0_norm)
    prev = TimeSlices(g, times, np.tile(m0.values, (len(times), 1)))
    d: list[float] = []
    sups: list[float] = [m0_norm]
    for it in range(1, n_iter + 1):
        vel, src = momentum_coefficients(g, prev.frames, spectrum(prev.frames))
        f0 = low_cutoff(m0, it, part)
        velocity, source = TimeSlices(g, times, vel), TimeSlices(g, times, src)
        if dt is None:
            cap = max(1, round(interval / finest))
            k, step_estimate = _steps_by_doubling(
                f0.values, g, velocity, source, times[0], times[1], cap
            )
            dt = finest if k == cap else interval / k
        cur = solve_transport(f0, velocity, dt, times, source)
        del velocity, source  # their tables go before the next iteration's
        dists = [
            besov_norm(RealField(g, cur.frames[i] - prev.frames[i]), s - 1.0, 2.0, 2.0, part)
            for i in range(len(times))
        ]
        # max() passes over a NaN that is not first, so check every slice
        _require_finite(f"the distance d_{it} in B^{s - 1.0:g}", *dists)
        d.append(max(dists))
        sups.append(
            max(
                besov_norm(RealField(g, fr), s - 1.0, 2.0, 2.0, part)
                for fr in cur.frames
            )
        )
        prev = cur
    ratios = [d[i + 1] / d[i] if d[i] > 0 else 0.0 for i in range(len(d) - 1)]

    # smallest C whose geometric bound dominates the observed ladder
    def dominated(C: float) -> bool:
        q = 2.0 * C * C * m0_norm * T
        if q >= 1.0:
            return False
        lead = C * m0_norm
        return all(d[i] <= lead * q**i * (1.0 + 1e-9) + 1e-300 for i in range(len(d)))

    if m0_norm == 0.0 or all(x == 0.0 for x in d):
        fitted_C = 0.0
        bound: float | None = 0.0
        small_ok = True
    else:
        hi = math.sqrt(1.0 / (2.0 * m0_norm * T)) * (1.0 - 1e-9)
        if dominated(hi):
            fitted_C = _least(dominated, 0.0, hi, 80)
            bound = picard_bound(m0_norm, fitted_C, T)
            small_ok = True
        else:
            fitted_C = float("inf")
            bound = None
            small_ok = False
    steps = max(1, round(interval / dt))
    return PicardReport(
        d, ratios, sups, fitted_C, bound, small_ok, prev.frames[-1], steps, step_estimate
    )
