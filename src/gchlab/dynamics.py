"""Time evolution of the peaked-wave equation in its spectral form.

The evolving state is the half spectrum of u: the real-FFT coefficients
spectrum(u), index-aligned with grid.k (see fields).  The equation has three
right-hand sides that map coefficients to coefficients and are
algebraically identical (see tests/test_symbolic.py); the solver integrates
the spectral form, and the other two are kept to check it against:

  spectral form   u_t = (1-dx^2)^{-1} dx(2+dx) [(2-dx)u]^2
  momentum form   m_t = 2m^2 + (8u_x-4u)m + (4u-2u_x)m_x + 2(u+u_x)^2,
                  with m = (1-dx^2)u, coefficients (1+k^2) times those of u
  convolution     u_t = 4uu_x - u_x^2 + G*(dx(2u_x^2+6u^2) + u_x^2)

Quadratic products are still formed on the grid, and their spectra are
dealiased by the 2/3 rule.  The integrator is fixed-step RK4; the CFL policy
uses the advection speed |4u - 2u_x| = 2|w|, w = (2-dx)u, of the momentum
transport form, read off the first stage of each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np

from .config import MAX_STEPS
from .errors import ConfigError, DivergedError
from .fields import (
    Grid1D,
    RealField,
    check_domain_decay,
    coefficient_power,
    lp_norms,
    sobolev_norm,
    spectrum,
    synthesize,
)

# dt below this means the CFL speed exploded and the run is unusable
DT_COLLAPSE = 1e-12
# the CFL speed never counts as lower than this, so quiescent fields step
# at most cfl_sigma * dx
SPEED_FLOOR = 1.0


def momentum_coefficients(
    grid: Grid1D, m: np.ndarray, mh: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Velocity and source of the momentum equation in transport form.

    m_t + v m_x = S with v = 2u_x - 4u and S = 2m^2 + (8u_x - 4u)m
    + 2(u + u_x)^2, where u = (1-dx^2)^{-1} m and mh = spectrum(m).  m may
    be one frame or a stack of frames along the first axis.
    """
    uh = mh * grid.helm
    u = synthesize(uh)
    uh *= grid.ik
    ux = synthesize(uh)
    # in place, with the written forms' operations in their order of
    # evaluation, so the bits are the written forms'
    four_u = 4.0 * u
    vel = 2.0 * ux
    vel -= four_u
    src = 2.0 * m
    src *= m
    term = 8.0 * ux
    term -= four_u
    term *= m
    src += term
    u += ux  # u + u_x
    np.multiply(2.0, u, out=term)
    term *= u
    src += term
    return vel, src


class _Kernel:
    """Precomputed multipliers for one grid; all three rhs forms share it.

    Each rhs maps state coefficients to (rhs coefficients, w on the grid),
    where w = 2u - u_x gives the CFL speed.  A kernel holds no per-call
    state, so every evolve on its grid can share it.
    """

    def __init__(self, grid: Grid1D):
        self.grid = grid
        # grid.k ascends from 0, so the 2/3 rule's band |k| <= (2/3) k_Nyquist
        # is the first `band` modes; the tail monitor reads its top third from `top`
        kcut = (2.0 / 3.0) * grid.nyquist
        self.band = int(np.searchsorted(grid.k, kcut, side="right"))
        self.top = int(np.searchsorted(grid.k, (2.0 / 3.0) * kcut))
        self.mask = np.arange(grid.k.size) < self.band
        # symbol of 2 - dx (u -> w)
        self.to_w = 2.0 - grid.ik
        # masked symbol of (1-dx^2)^{-1} dx(2+dx) = (2 dx + dx^2)/(1 - dx^2);
        # Nyquist keeps only the even part
        self.lift = self.mask * (2.0 * grid.ik - grid.k**2) * grid.helm
        # f, f_x, f_xx from one synthesis
        self.jet = np.stack([np.ones(grid.k.shape), grid.ik, -(grid.k**2)])

    def rhs_spectral(self, ch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w = synthesize(self.to_w * ch)
        return spectrum(w * w) * self.lift, w

    def rhs_m(self, mh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m, mx = synthesize(mh * self.jet[:2])
        vel, src = momentum_coefficients(self.grid, m, mh)
        return spectrum(src - vel * mx) * self.mask, -0.5 * vel

    def rhs_u(self, ch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g = self.grid
        u, ux = synthesize(ch * self.jet[:2])
        uxsq = ux * ux
        grad, sq, local = spectrum(
            np.stack([2.0 * uxsq + 6.0 * u * u, uxsq, 4.0 * u * ux - uxsq])
        )
        return (local + (grad * g.ik + sq) * g.helm) * self.mask, 2.0 * u - ux


_kernel_cache: dict[tuple[float, int], _Kernel] = {}


def _kernel(grid: Grid1D) -> _Kernel:
    key = (grid.L, grid.n)
    if key not in _kernel_cache:
        _kernel_cache[key] = _Kernel(grid)
    return _kernel_cache[key]


def _on_grid(rhs, f: RealField) -> RealField:
    return RealField(f.grid, synthesize(rhs(spectrum(f.values))[0]))


def rhs_spectral_form(u: RealField) -> RealField:
    return _on_grid(_kernel(u.grid).rhs_spectral, u)


def rhs_m_form(m: RealField) -> RealField:
    return _on_grid(_kernel(m.grid).rhs_m, m)


def rhs_u_form(u: RealField) -> RealField:
    return _on_grid(_kernel(u.grid).rhs_u, u)


@dataclass
class SolverConfig:
    T: float
    dt: float | None = None  # None -> CFL policy
    cfl_sigma: float = 0.3
    monitor_every: int = 10
    tail_threshold: float = 1e-3

    def __post_init__(self):
        if self.T <= 0:
            raise ConfigError(f"horizon must be positive, got T={self.T}")
        if self.dt is not None and self.dt <= 0:
            raise ConfigError(f"fixed dt must be positive, got {self.dt}")
        if not 0 < self.cfl_sigma <= 1:
            raise ConfigError(f"cfl_sigma must lie in (0, 1], got {self.cfl_sigma}")
        if self.monitor_every < 1:
            raise ConfigError("monitor_every must be >= 1")


def _cfl_dt(cfg: SolverConfig, grid: Grid1D, w: np.ndarray) -> float:
    """CFL step for the advection speed |4u - 2u_x| = 2|w|."""
    return cfg.cfl_sigma * grid.dx / max(2.0 * float(lp_norms(grid, w, np.inf)), SPEED_FLOOR)


def refined_min(grid: Grid1D, vals: np.ndarray) -> tuple[float, float]:
    """Minimum of a sampled field and its location, refined off-grid by the
    three-point parabola through the lowest node; falls back to the node."""
    i = int(np.argmin(vals))
    n = len(vals)
    ym, y0, yp = vals[(i - 1) % n], vals[i], vals[(i + 1) % n]
    denom = ym - 2.0 * y0 + yp
    if denom == 0.0:
        return float(y0), float(grid.x[i])
    shift = 0.5 * (ym - yp) / denom
    if not -0.5 <= shift <= 0.5:
        return float(y0), float(grid.x[i])
    val = y0 - 0.125 * (ym - yp) ** 2 / denom
    loc = grid.x[i] + shift * grid.dx
    if loc >= grid.L:
        loc -= 2.0 * grid.L
    elif loc < -grid.L:
        loc += 2.0 * grid.L
    return float(val), float(loc)


def energy(grid: Grid1D, ch: np.ndarray) -> float:
    """Integral of u^2 + u_x^2, the conserved quantity of the flow, read
    from the coefficients ch = spectrum(u) by Parseval."""
    return float(np.sum(grid.h1 * coefficient_power(grid, ch)))


def spectral_tail_fraction(grid: Grid1D, ch: np.ndarray) -> float:
    """Share of the retained band's H^1 density sitting in its top third,
    read from the coefficients ch = spectrum(u).

    The retained band is the one the 2/3 rule keeps, |k| <= (2/3) k_Nyquist;
    modes above it are zeroed every step, so they carry no information.
    """
    kern = _kernel(grid)
    dens = grid.h1 * coefficient_power(grid, ch)
    total = float(dens[: kern.band].sum())
    if total == 0.0:
        return 0.0
    return float(dens[kern.top : kern.band].sum()) / total


def step(
    grid: Grid1D, ch: np.ndarray, cfg: SolverConfig, t_left: float
) -> tuple[np.ndarray, float]:
    """One RK4 step of the spectral form on the coefficients ch = spectrum(u).

    The first stage does not depend on dt, so it runs first: without a
    fixed cfg.dt, the CFL step comes from its w.  dt is then capped at
    t_left, the time left to the horizon.  Returns the coefficients of
    u(t + dt), and dt.
    """
    rhs = _kernel(grid).rhs_spectral
    k1, w = rhs(ch)
    dt = cfg.dt if cfg.dt is not None else _cfl_dt(cfg, grid, w)
    if dt < DT_COLLAPSE:
        raise DivergedError(f"CFL collapse: dt={dt:.3e}")
    dt = min(dt, t_left)
    k2 = rhs(ch + 0.5 * dt * k1)[0]
    k3 = rhs(ch + 0.5 * dt * k2)[0]
    k4 = rhs(ch + dt * k3)[0]
    return ch + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), dt


@dataclass
class RunReport:
    times: list[float] = dfield(default_factory=list)
    energy: list[float] = dfield(default_factory=list)
    w_linf: list[float] = dfield(default_factory=list)
    w_bound: list[float] = dfield(default_factory=list)
    ux_linf: list[float] = dfield(default_factory=list)
    ux_bound: list[float] = dfield(default_factory=list)
    B: list[float] = dfield(default_factory=list)
    min_uxx: list[float] = dfield(default_factory=list)
    xi: list[float] = dfield(default_factory=list)
    min_ux: list[float] = dfield(default_factory=list)
    tail_frac: list[float] = dfield(default_factory=list)
    stop_reason: str = "horizon"
    final: RealField | None = None
    steps_taken: int = 0

    # series.csv: (column name, attribute) in column order
    _CSV_COLUMNS = (
        ("t", "times"), ("E", "energy"), ("w_linf", "w_linf"), ("w_bound", "w_bound"),
        ("ux_linf", "ux_linf"), ("ux_bound", "ux_bound"), ("B", "B"),
        ("min_uxx", "min_uxx"), ("xi", "xi"),
    )
    CSV_HEADER = ",".join(name for name, _ in _CSV_COLUMNS)

    @property
    def verdicts(self) -> dict:
        def within(vals: list[float], bounds: list[float]) -> bool:
            return all(v <= b * (1.0 + 1e-12) + 1e-15 for v, b in zip(vals, bounds))

        return {
            "wbound_ok": within(self.w_linf, self.w_bound),
            "slope_bound_ok": within(self.ux_linf, self.ux_bound),
        }

    def to_csv(self) -> str:
        columns = [getattr(self, attr) for _, attr in self._CSV_COLUMNS]
        rows = [",".join(map(repr, row)) for row in zip(*columns)]
        return "\n".join([self.CSV_HEADER, *rows]) + "\n"

    def summary(self) -> dict:
        v = self.verdicts
        return {
            "stop_reason": self.stop_reason,
            "steps": self.steps_taken,
            "t_final": self.times[-1],
            "energy_initial": self.energy[0],
            "energy_final": self.energy[-1],
            "energy_drift_rel": (
                abs(self.energy[-1] - self.energy[0]) / self.energy[0]
                if self.energy[0] > 0
                else 0.0
            ),
            "min_uxx_final": self.min_uxx[-1],
            "B_final": self.B[-1],
            "tail_frac_final": self.tail_frac[-1],
            "verdicts": v,
        }


def evolve(u0: RealField, cfg: SolverConfig) -> RunReport:
    """Integrate to the horizon, recording monitors and bound checks.

    Stops early with stop_reason "resolution_stop" when the spectral tail
    fraction crosses cfg.tail_threshold, or "nonfinite" if the state, or
    the energy recorded from it, blows past floating point.  Raises
    DivergedError when MAX_STEPS steps leave the horizon unreached.
    """
    check_domain_decay(u0)
    g = u0.grid
    kern = _kernel(g)
    rep = RunReport()

    ch = spectrum(u0.values)
    w0 = synthesize(kern.to_w * ch)
    w0_l2_sq = float(np.sum(w0 * w0) * g.dx)
    w0_linf = float(lp_norms(g, w0, np.inf))
    ux_cap = 54.0 * cfg.T * sobolev_norm(u0, 1.0) ** 2 + 5.0 * sobolev_norm(u0, 1.5)

    uxx_sup_prev = 0.0

    def record(t: float, ch: np.ndarray):
        nonlocal uxx_sup_prev
        u, ux, uxx = synthesize(ch * kern.jet)
        w = 2.0 * u - ux
        vmin, xmin = refined_min(g, uxx)
        uxx_sup = max(abs(vmin), abs(refined_min(g, -uxx)[0]))
        rep.times.append(t)
        rep.energy.append(energy(g, ch))
        rep.w_linf.append(float(lp_norms(g, w, np.inf)))
        rep.w_bound.append(6.0 * w0_l2_sq * t + w0_linf)
        rep.ux_linf.append(float(lp_norms(g, ux, np.inf)))
        rep.ux_bound.append(ux_cap)
        if len(rep.times) == 1:
            rep.B.append(0.0)
        else:
            dt_m = t - rep.times[-2]
            rep.B.append(rep.B[-1] + 0.5 * dt_m * (uxx_sup + uxx_sup_prev))
        uxx_sup_prev = uxx_sup
        rep.min_uxx.append(vmin)
        rep.xi.append(xmin)
        rep.min_ux.append(float(np.min(ux)))
        rep.tail_frac.append(spectral_tail_fraction(g, ch))

    t = 0.0
    record(t, ch)
    steps = 0
    while t < cfg.T * (1.0 - 1e-12):
        if steps == MAX_STEPS:
            raise DivergedError(f"step budget exhausted at t={t:.6g}")
        ch, dt = step(g, ch, cfg, cfg.T - t)
        steps += 1
        # a fixed step reads the time as steps * dt, one rounding, so the
        # last planned step lands on T; a sum of dt can fall short of it
        t = t + dt if cfg.dt is None else min(steps * cfg.dt, cfg.T)
        if not np.all(np.isfinite(ch)):
            rep.stop_reason = "nonfinite"
            break
        at_end = t >= cfg.T * (1.0 - 1e-12)
        if steps % cfg.monitor_every == 0 or at_end:
            record(t, ch)
            if not math.isfinite(rep.energy[-1]):  # finite state, overflowing monitors
                rep.stop_reason = "nonfinite"
                break
            if rep.tail_frac[-1] > cfg.tail_threshold:
                rep.stop_reason = "resolution_stop"
                break
    rep.steps_taken = steps
    rep.final = RealField(g, synthesize(ch))
    return rep

