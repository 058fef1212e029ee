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
cubic, built once per field (for `TimeSlices`, per frame, the first time a
sample needs that frame, with at most three frames' tables held).  A sample
then costs one gather of four coefficients and three Horner steps per
point; a time between slices blends two tables once and reuses the blend
for every sample at that time.

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
from .fields import Grid1D, RealField, lp_norms, spectrum, wrap
from .lpaley import besov_norm, low_cutoff


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


def cubic_interp_periodic(values: np.ndarray, grid: Grid1D, xq: np.ndarray) -> np.ndarray:
    """Sample a grid field at arbitrary points via 4-point Lagrange cubics."""
    return _cubic_eval(_cubic_table(values), grid, xq)


class TimeSlices:
    """Snapshots of a field on a shared grid, interpolated linearly in t.

    The frames are a read-only copy.  Sampling at the grid nodes themselves
    (the grid's own `x` array) returns the frame at t.  Sampling at other
    points builds the coefficient table of a frame the first time a sample
    needs it and blends the tables of the two neighbouring slices; the last
    (t, blended table) is memoized, since an RK4 backtrace samples each
    time twice.  At a slice time, or outside the slice range, the blend is
    that slice's frame or table itself.  At most three tables are held, so
    a walk through the slices in order builds each table once; a walk that
    comes back to a dropped slice builds its table again, with the same
    bits.
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
        self._tables: dict[int, np.ndarray] = {}
        self._last: tuple[float, np.ndarray] | None = None

    def _bracket(self, t: float) -> tuple[int, float | None]:
        """The slice j that t blends from, and t's fraction of the way to
        slice j + 1; the fraction is None at a slice time and outside the
        slice range, where t takes slice j alone."""
        ts = self.times
        if len(ts) == 1 or t <= ts[0]:
            return 0, None
        if t >= ts[-1]:
            return len(ts) - 1, None
        j = int(np.searchsorted(ts, t, side="right")) - 1
        if t == ts[j]:
            return j, None
        return j, (t - ts[j]) / (ts[j + 1] - ts[j])

    def _table(self, j: int) -> np.ndarray:
        """The cubic table of frame j, built on first use; of three held
        tables, the one farthest from j makes way for it."""
        tab = self._tables.get(j)
        if tab is None:
            if len(self._tables) == 3:
                del self._tables[max(self._tables, key=lambda i: abs(i - j))]
            tab = self._tables[j] = _cubic_table(self.frames[j])
        return tab

    def at(self, t: float) -> np.ndarray:
        j, th = self._bracket(t)
        if th is None:
            return self.frames[j]
        return (1.0 - th) * self.frames[j] + th * self.frames[j + 1]

    def __call__(self, t: float, xq: np.ndarray) -> np.ndarray:
        if xq is self.grid.x:
            return self.at(t)
        last = self._last
        if last is None or last[0] != t:
            j, th = self._bracket(t)
            if th is None:
                tab = self._table(j)
            else:
                tab = (1.0 - th) * self._table(j) + th * self._table(j + 1)
            last = (t, tab)
            self._last = last
        return _cubic_eval(last[1], self.grid, xq)


def _trace_interval(frame, g: Grid1D, velocity, source, t0: float, t1: float, nst: int):
    """The frame at t1 from the frame at t0, traced back in nst RK4 steps.

    The nodes are traced backward to t0, where the frame is interpolated at
    the feet, and the source is summed along the path by the trapezoid rule.
    """
    h = (t1 - t0) / nst
    # the first samples are at the nodes themselves; each step makes a new x
    x = g.x
    acc = np.zeros(g.n)
    s_here = source(t1, x) if source is not None else None
    t = t1
    for i in range(nst):
        # RK4 for dx/dt = v along the reversed path; the last step ends on
        # t0 itself, where a sum of steps could land a rounding error off
        t_end = t0 if i == nst - 1 else t - h
        k1 = velocity(t, x)
        k2 = velocity(t - 0.5 * h, x - 0.5 * h * k1)
        k3 = velocity(t - 0.5 * h, x - 0.5 * h * k2)
        k4 = velocity(t_end, x - h * k3)
        x = wrap(x - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), g.L)
        t = t_end
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
    one gather and Horner pass per sample.  The intervals run in order, so
    each frame's table is built once.

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

    A-priori theory guarantees some finite C; the audit fits the least one
    in closed form, the largest log(||f(t)|| / ||f0||) / V(t) over nine
    evenly spaced times in [0, T] (0 if no frame grows), and checks it is
    stable under halving dt.  The velocity norms, ||f0|| and V(t) are
    computed once; each dt run solves and takes the nine frame norms.
    """
    g = f0.grid
    out_times = np.linspace(0.0, T, 9)
    vnorm = np.array(
        [besov_norm(RealField(g, np.asarray(velocity(t, g.x))), s + 2.0) for t in out_times]
    )
    V = np.concatenate(
        [[0.0], np.cumsum(0.5 * np.diff(out_times) * (vnorm[1:] + vnorm[:-1]))]
    )
    a0 = besov_norm(f0, s)
    # an overflowed norm leaves no growth bound to fit
    _require_finite(f"V(T), the time integral of ||v||_B^{s + 2:g}", V[-1])
    _require_finite(f"||f0||_B^{s:g}", a0)

    def fit(dt_run: float) -> tuple[np.ndarray, float]:
        sol = solve_transport(f0, velocity, dt_run, out_times)
        lhs = np.array([besov_norm(RealField(g, fr), s) for fr in sol.frames])
        _require_finite(f"a frame norm ||f(t)||_B^{s:g}", *lhs)
        # where V = 0 no C lifts the bound; a frame may differ from f0 by roundoff
        if np.any(lhs[V == 0.0] > a0 * (1.0 + 1e-12)):
            raise EstimationError("no finite C satisfies the growth bound")
        # each frame that grows holds with equality at C = log(lhs / a0) / V
        grows = (lhs > a0) & (V > 0.0)
        C = float(np.max(np.log(lhs[grows] / a0) / V[grows], initial=0.0))
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


def _ladder_constant(d: list[float], m0_norm: float, T: float) -> float:
    """The least C with d_n <= C ||m0|| q^{n-1}, q = 2 C^2 ||m0|| T, for all n.

    d_n <= ||m0||^n (2T)^{n-1} C^{2n-1} holds with equality at one C per
    n, so the least C is the largest of them, taken in logs since ||m0||
    may be huge; a zero d_n holds at any C >= 0.
    """
    lm = math.log(m0_norm)
    lq = math.log(2.0) + lm + math.log(T)  # log(q / C^2)
    log_C = max((math.log(x) - lm - i * lq) / (2 * i + 1) for i, x in enumerate(d) if x > 0.0)
    return math.exp(log_C) if log_C < 709.0 else math.inf  # e^709.8 overflows


# Picard's transport step: the step-doubling test
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
        diff = float(lp_norms(g, fine - coarse, np.inf))
        scale = float(lp_norms(g, fine, np.inf))
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
    steps_per_interval: int  # RK4 steps of every slice interval
    step_estimate: float | None  # the step-doubling difference, None at a cap of 1


def picard_run(
    m0: RealField,
    T: float,
    n_iter: int = 6,
    s: float = 1.5,
    n_slices: int = 17,
) -> PicardReport:
    """Run the frozen-coefficient iteration on the momentum datum m0.

    Iterate n+1 transports the mollified datum S_{n+1} m0 with the velocity
    and source of the momentum transport form (`momentum_coefficients`)
    evaluated on iterate n.  Iterate 0 is m0 held constant in
    time; the low-pass cutoffs S_j saturate to the identity once j clears
    the grid's top dyadic block.

    The first iteration picks the number k of RK4 steps per slice interval
    by step doubling (`STEP_TOL`), and every interval of every iteration is
    traced in exactly k steps.  The doubling stops at a cap of
    round(200 / (n_slices - 1)) steps, the 12 that the former step T/200
    gave at the default 17 slices, and k is then the cap.  A norm of m0 or
    a distance d_n that is not finite raises `EstimationError`.
    """
    if n_iter < 2:
        raise ConfigError("need at least two iterations to measure a distance")
    if n_slices < 2:
        raise ConfigError(f"need at least two time slices, got n_slices={n_slices}")
    g = m0.grid
    times = np.linspace(0.0, T, n_slices)
    interval = times[1] - times[0]
    cap = max(1, round(200 / (n_slices - 1)))

    m0_norm = besov_norm(m0, s - 1.0)
    _require_finite(f"||m0||_B^{s - 1.0:g}", m0_norm)
    prev = TimeSlices(g, times, np.tile(m0.values, (len(times), 1)))
    d: list[float] = []
    sups: list[float] = [m0_norm]
    for it in range(1, n_iter + 1):
        # no name holds the raw stacks, so they go once the slices copy them
        velocity, source = (
            TimeSlices(g, times, c)
            for c in momentum_coefficients(g, prev.frames, spectrum(prev.frames))
        )
        f0 = low_cutoff(m0, it)
        if it == 1:
            k, step_estimate = _steps_by_doubling(
                f0.values, g, velocity, source, times[0], times[1], cap
            )
        cur = solve_transport(f0, velocity, interval / k, times, source)
        del velocity, source  # their tables go before the next iteration's
        dists = [
            besov_norm(RealField(g, cur.frames[i] - prev.frames[i]), s - 1.0)
            for i in range(len(times))
        ]
        # max() passes over a NaN that is not first, so check every slice
        _require_finite(f"the distance d_{it} in B^{s - 1.0:g}", *dists)
        d.append(max(dists))
        sups.append(max(besov_norm(RealField(g, fr), s - 1.0) for fr in cur.frames))
        prev = cur
    ratios = [d[i + 1] / d[i] if d[i] > 0 else 0.0 for i in range(len(d) - 1)]

    fitted_C, bound, small_ok = 0.0, 0.0, True
    if m0_norm > 0.0 and any(d):
        C = _ladder_constant(d, m0_norm, T)
        small_ok = 2.0 * C * C * m0_norm * T < 1.0
        fitted_C = C if small_ok else math.inf
        bound = picard_bound(m0_norm, C, T) if small_ok else None
    return PicardReport(
        d, ratios, sups, fitted_C, bound, small_ok, prev.frames[-1], k, step_estimate
    )
