"""Time evolution of the peaked-wave equation in its equivalent forms.

State u lives on the periodic grid; the three right-hand sides are
algebraically identical (see tests/test_symbolic.py):

  spectral form   u_t = (1-dx^2)^{-1} dx(2+dx) [(2-dx)u]^2
  momentum form   m_t = 2m^2 + (8u_x-4u)m + (4u-2u_x)m_x + 2(u+u_x)^2,
                  with m = (1-dx^2)u
  convolution     u_t = 4uu_x - u_x^2 + G*(dx(2u_x^2+6u^2) + u_x^2)

Quadratic products are formed in physical space and dealiased by the 2/3
rule.  The integrator is fixed-step RK4; the CFL policy uses the advection
speed |4u - 2u_x| of the momentum transport form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np

from .errors import ConfigError, DivergedError
from .fields import (
    Grid1D,
    RealField,
    apply_one_minus_dxx,
    check_domain_decay,
    dealias_mask,
    derivative,
    helmholtz_inverse,
    lp_norm,
    power,
    sobolev_norm,
    spectrum,
    synthesize,
)
from .lpaley import besov_norm, partition_for

RHS_FORMS = ("spectral_form", "m_form", "u_form")

# dt below this means the CFL speed exploded and the run is unusable
DT_COLLAPSE = 1e-12
# the CFL speed never counts as lower than this, so quiescent fields step
# at most cfl_sigma * dx
SPEED_FLOOR = 1.0
# evolve gives up with DivergedError after this many steps
MAX_STEPS = 2_000_000


def momentum_coefficients(
    grid: Grid1D, m: np.ndarray, mh: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Velocity and source of the momentum equation in transport form.

    m_t + v m_x = S with v = 2u_x - 4u and S = 2m^2 + (8u_x - 4u)m
    + 2(u + u_x)^2, where u = (1-dx^2)^{-1} m and mh = spectrum(m).  m may
    be one frame or a stack of frames along the first axis.
    """
    u = synthesize(mh * grid.helm)
    ux = synthesize(mh * grid.helm * grid.ik)
    upx = u + ux
    return 2.0 * ux - 4.0 * u, 2.0 * m * m + (8.0 * ux - 4.0 * u) * m + 2.0 * upx * upx


class _Kernel:
    """Precomputed multipliers for one grid; all rhs forms share it."""

    def __init__(self, grid: Grid1D, dealias: bool = True):
        self.grid = grid
        # dx(2+dx) = 2 dx + dx^2; Nyquist keeps only the even part
        self.edge = 2.0 * grid.ik - grid.k**2
        self.mask = dealias_mask(grid) if dealias else np.ones(grid.k.shape, dtype=bool)

    def dx(self, ch: np.ndarray) -> np.ndarray:
        return synthesize(self.grid.ik * ch)

    def dealiased(self, f: np.ndarray) -> np.ndarray:
        fh = spectrum(f)
        fh[~self.mask] = 0.0
        return synthesize(fh)

    def rhs_spectral(self, u: np.ndarray) -> np.ndarray:
        ch = spectrum(u)
        ux = self.dx(ch)
        w = 2.0 * u - ux
        ph = spectrum(w * w)
        ph[~self.mask] = 0.0
        return synthesize(ph * self.edge * self.grid.helm)

    def rhs_m(self, m: np.ndarray) -> np.ndarray:
        mh = spectrum(m)
        vel, src = momentum_coefficients(self.grid, m, mh)
        return self.dealiased(src - vel * self.dx(mh))

    def rhs_u(self, u: np.ndarray) -> np.ndarray:
        g = self.grid
        ch = spectrum(u)
        ux = self.dx(ch)
        uxsq = ux * ux
        bracket_h = spectrum(2.0 * uxsq + 6.0 * u * u) * g.ik + spectrum(uxsq)
        conv = synthesize(bracket_h * g.helm)
        return self.dealiased(4.0 * u * ux - uxsq + conv)


_kernel_cache: dict[tuple[float, int, bool], _Kernel] = {}


def _kernel(grid: Grid1D, dealias: bool) -> _Kernel:
    key = (grid.L, grid.n, dealias)
    if key not in _kernel_cache:
        _kernel_cache[key] = _Kernel(grid, dealias)
    return _kernel_cache[key]


def rhs_spectral_form(u: RealField, dealias: bool = True) -> RealField:
    return RealField(u.grid, _kernel(u.grid, dealias).rhs_spectral(u.values))


def rhs_m_form(m: RealField, dealias: bool = True) -> RealField:
    return RealField(m.grid, _kernel(m.grid, dealias).rhs_m(m.values))


def rhs_u_form(u: RealField, dealias: bool = True) -> RealField:
    return RealField(u.grid, _kernel(u.grid, dealias).rhs_u(u.values))


@dataclass
class SolverConfig:
    T: float
    rhs_form: str = "spectral_form"
    dealias: bool = True
    dt: float | None = None  # None -> CFL policy
    cfl_sigma: float = 0.3
    monitor_every: int = 10
    tail_threshold: float = 1e-3
    store_snapshots: bool = False

    def __post_init__(self):
        if self.rhs_form not in RHS_FORMS:
            raise ConfigError(f"rhs_form must be one of {RHS_FORMS}, got {self.rhs_form!r}")
        if self.T <= 0:
            raise ConfigError(f"horizon must be positive, got T={self.T}")
        if self.dt is not None and self.dt <= 0:
            raise ConfigError(f"fixed dt must be positive, got {self.dt}")
        if not 0 < self.cfl_sigma <= 1:
            raise ConfigError(f"cfl_sigma must lie in (0, 1], got {self.cfl_sigma}")
        if self.monitor_every < 1:
            raise ConfigError("monitor_every must be >= 1")


def _cfl_dt(cfg: SolverConfig, *fields: RealField) -> float:
    """CFL step for the fastest field, by the advection speed |4u - 2u_x|."""
    speed = max(
        float(np.max(np.abs(4.0 * f.values - 2.0 * derivative(f, 1).values)))
        for f in fields
    )
    return cfg.cfl_sigma * fields[0].grid.dx / max(speed, SPEED_FLOOR)


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


def min_uxx(u: RealField) -> tuple[float, float]:
    """Minimum of u_xx and its location, parabolically refined off-grid."""
    return refined_min(u.grid, derivative(u, 2).values)


def energy(u: RealField) -> float:
    """Integral of u^2 + u_x^2, the conserved quantity of the flow."""
    return sobolev_norm(u, 1.0) ** 2


def spectral_tail_fraction(u: RealField, dealias: bool = True) -> float:
    """Share of the retained band's H^1 density sitting in its top third.

    The retained band is |k| <= (2/3) k_Nyquist when dealiasing is active
    (modes above it are zeroed every step, so they carry no information),
    the full spectrum otherwise.
    """
    g = u.grid
    dens = (1.0 + g.k**2) * power(u)
    kcut = (2.0 / 3.0) * g.nyquist if dealias else g.nyquist
    retained = np.abs(g.k) <= kcut
    top = retained & (np.abs(g.k) >= (2.0 / 3.0) * kcut)
    total = float(dens[retained].sum())
    if total == 0.0:
        return 0.0
    return float(dens[top].sum()) / total


def step(u: RealField, dt: float, cfg: SolverConfig) -> RealField:
    """One RK4 step of the configured form, mapping u(t) to u(t+dt)."""
    kern = _kernel(u.grid, cfg.dealias)
    if cfg.rhs_form == "m_form":
        state = apply_one_minus_dxx(u).values
        rhs = kern.rhs_m
    else:
        state = u.values
        rhs = kern.rhs_spectral if cfg.rhs_form == "spectral_form" else kern.rhs_u
    k1 = rhs(state)
    k2 = rhs(state + 0.5 * dt * k1)
    k3 = rhs(state + 0.5 * dt * k2)
    k4 = rhs(state + dt * k3)
    new = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if cfg.rhs_form == "m_form":
        return helmholtz_inverse(RealField(u.grid, new))
    return RealField(u.grid, new)


@dataclass
class RunReport:
    grid: Grid1D
    cfg: SolverConfig
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
    snapshots: list[tuple[float, np.ndarray]] = dfield(default_factory=list)
    steps_taken: int = 0

    CSV_HEADER = "t,E,w_linf,w_bound,ux_linf,ux_bound,B,min_uxx,xi"

    @property
    def verdicts(self) -> dict:
        tol = 1e-12
        w_ok = all(
            w <= b * (1.0 + tol) + 1e-15 for w, b in zip(self.w_linf, self.w_bound)
        )
        slope_ok = all(
            w <= b * (1.0 + tol) + 1e-15 for w, b in zip(self.ux_linf, self.ux_bound)
        )
        return {"wbound_ok": w_ok, "slope_bound_ok": slope_ok}

    def to_csv(self) -> str:
        rows = [self.CSV_HEADER]
        for i in range(len(self.times)):
            rows.append(
                ",".join(
                    repr(v)
                    for v in (
                        self.times[i],
                        self.energy[i],
                        self.w_linf[i],
                        self.w_bound[i],
                        self.ux_linf[i],
                        self.ux_bound[i],
                        self.B[i],
                        self.min_uxx[i],
                        self.xi[i],
                    )
                )
            )
        return "\n".join(rows) + "\n"

    def summary(self) -> dict:
        v = self.verdicts
        return {
            "stop_reason": self.stop_reason,
            "steps": self.steps_taken,
            "t_final": self.times[-1] if self.times else 0.0,
            "energy_initial": self.energy[0] if self.energy else 0.0,
            "energy_final": self.energy[-1] if self.energy else 0.0,
            "energy_drift_rel": (
                abs(self.energy[-1] - self.energy[0]) / self.energy[0]
                if self.energy and self.energy[0] > 0
                else 0.0
            ),
            "min_uxx_final": self.min_uxx[-1] if self.min_uxx else 0.0,
            "B_final": self.B[-1] if self.B else 0.0,
            "tail_frac_final": self.tail_frac[-1] if self.tail_frac else 0.0,
            "verdicts": v,
        }


def evolve(u0: RealField, cfg: SolverConfig) -> RunReport:
    """Integrate to the horizon, recording monitors and bound checks.

    Stops early with stop_reason "resolution_stop" when the spectral tail
    fraction crosses cfg.tail_threshold, or "nonfinite" if the state blows
    past floating point entirely.
    """
    # loose screen: Green-function tails of box-scale data sit around
    # e^{-L}, which is harmless; only genuine wrap-around should abort
    check_domain_decay(u0, tol=1e-6)
    g = u0.grid
    rep = RunReport(grid=g, cfg=cfg)

    w0 = 2.0 * u0.values - derivative(u0, 1).values
    w0_l2_sq = float(np.sum(w0 * w0) * g.dx)
    w0_linf = float(np.max(np.abs(w0)))
    ux_cap = 54.0 * cfg.T * sobolev_norm(u0, 1.0) ** 2 + 5.0 * sobolev_norm(u0, 1.5)

    uxx_sup_prev = 0.0

    def record(t: float, u: RealField):
        nonlocal uxx_sup_prev
        ch = spectrum(u.values)
        ux = synthesize(g.ik * ch)
        uxx = synthesize(-(g.k**2) * ch)
        w = 2.0 * u.values - ux
        vmin, xmin = refined_min(g, uxx)
        uxx_sup = max(abs(vmin), abs(refined_min(g, -uxx)[0]))
        rep.times.append(t)
        rep.energy.append(energy(u))
        rep.w_linf.append(float(np.max(np.abs(w))))
        rep.w_bound.append(6.0 * w0_l2_sq * t + w0_linf)
        rep.ux_linf.append(float(np.max(np.abs(ux))))
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
        rep.tail_frac.append(spectral_tail_fraction(u, cfg.dealias))
        if cfg.store_snapshots:
            rep.snapshots.append((t, u.values.copy()))

    u = u0.copy()
    t = 0.0
    record(t, u)
    steps = 0
    while t < cfg.T * (1.0 - 1e-12):
        dt = cfg.dt if cfg.dt is not None else _cfl_dt(cfg, u)
        if dt < DT_COLLAPSE:
            raise DivergedError(f"CFL collapse: dt={dt:.3e} at t={t:.6g}")
        dt = min(dt, cfg.T - t)
        u = step(u, dt, cfg)
        t += dt
        steps += 1
        if not np.all(np.isfinite(u.values)):
            rep.stop_reason = "nonfinite"
            rep.steps_taken = steps
            rep.final = u
            return rep
        at_end = t >= cfg.T * (1.0 - 1e-12)
        if steps % cfg.monitor_every == 0 or at_end:
            record(t, u)
            if rep.tail_frac[-1] > cfg.tail_threshold:
                rep.stop_reason = "resolution_stop"
                break
        if steps >= MAX_STEPS:
            raise DivergedError(f"step budget exhausted at t={t:.6g}")
    rep.steps_taken = steps
    rep.final = u
    return rep


def dp_transform(u: RealField) -> RealField:
    """v = 2(2 - dx)u = 2(2u - u_x); satisfies the Degasperis-Procesi
    equation exactly when u solves this one (operator identity)."""
    return RealField(u.grid, 2.0 * (2.0 * u.values - derivative(u, 1).values))


def dp_residual(times: list[float], fields: list[RealField]) -> list[float]:
    """L^2 residual of the DP equation on v = dp_transform(u) snapshots.

    v_t is centered in time, so interior snapshots only; expect decay at
    the snapshot-spacing order on smooth runs.
    """
    if len(times) < 3:
        raise ConfigError("need at least three snapshots for a centered residual")
    g = fields[0].grid
    k, ik = g.k, g.ik
    vs = [dp_transform(f).values for f in fields]
    out = []
    for i in range(1, len(times) - 1):
        vt = (vs[i + 1] - vs[i - 1]) / (times[i + 1] - times[i - 1])
        v = vs[i]
        ch = spectrum(v)
        vx = synthesize(ik * ch)
        vxx = synthesize(-(k**2) * ch)
        vxxx = synthesize(-(k**2) * ik * ch)
        lhs = apply_one_minus_dxx(RealField(g, vt)).values
        rhs = 4.0 * v * vx - 3.0 * vx * vxx - v * vxxx
        out.append(lp_norm(RealField(g, lhs - rhs), 2.0))
    return out


@dataclass
class StabilityReport:
    times: list[float]
    distances: list[float]
    ratio_sup: float | None
    perfect_match: bool


def stability_experiment(
    u0: RealField, v0: RealField, cfg: SolverConfig, s: float = 1.5
) -> StabilityReport:
    """Twin evolution; distances are Besov B^{s-1}_{2,2} norms of the
    momentum difference, normalized by the initial distance."""
    part = partition_for(u0.grid)
    d0f = RealField(u0.grid, u0.values - v0.values)
    m0diff = apply_one_minus_dxx(d0f)
    d0 = besov_norm(m0diff, s - 1.0, 2.0, 2.0, part)
    if d0 == 0.0:
        return StabilityReport([0.0], [0.0], None, True)
    # n equal steps no longer than the fixed or CFL dt (up to round-off),
    # so the run ends at T
    dt = cfg.dt if cfg.dt is not None else _cfl_dt(cfg, u0, v0)
    n = max(1, math.ceil(cfg.T / dt * (1.0 - 1e-12)))
    times = [0.0]
    dists = [1.0]
    a, b = u0.copy(), v0.copy()
    for k in range(1, n + 1):
        a = step(a, cfg.T / n, cfg)
        b = step(b, cfg.T / n, cfg)
        if k % cfg.monitor_every == 0 or k == n:
            diff = apply_one_minus_dxx(RealField(a.grid, a.values - b.values))
            times.append(cfg.T * k / n)
            dists.append(besov_norm(diff, s - 1.0, 2.0, 2.0, part) / d0)
    return StabilityReport(times, dists, max(dists), False)
