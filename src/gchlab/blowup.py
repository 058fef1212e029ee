"""Finite-time breakdown: sufficient conditions, comparison ODE, rates.

Everything here is driven by the curvature minimum.  The flow preserves
the H^1 energy, which caps the slope sup-norm on any horizon T by

    ||u_x||_inf <= 54 T ||u0||_{H^1}^2 + 5 ||u0||_{H^{3/2}},

and along the spatial minimum of u_xx the evolution obeys the Riccati
inequality  d/dt w <= -w^2 + C_T^2  with

    C_T = 4 (54 T ||u0||_{H^1}^2 + 6 ||u0||_{H^{3/2}}).

If w(0) = min u0'' < -C_T the comparison solution -C coth(C(t*-t))
reaches -infinity at

    t* = -(1/(2C)) log((w0 + C)/(w0 - C)) <= T required for the argument,

and the curvature minimum blows up no later.  A variant condition uses
w(0) = 2 min (u0'' - 2 u0') against C~_T = 2 sqrt2 (54 T ||u0||_{H^1}^2
+ 6 ||u0||_{H^{3/2}}).  Near breakdown min u_xx (T-t) -> -1/2 while
min u_x stays bounded, so its product with (T-t) drops to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EstimationError
from .fields import RealField, sobolev_norm, spectrum, synthesize
from .dynamics import refined_min

RICCATI_REL_STEP = 5e-3
RICCATI_STOP = 1e8


@dataclass
class ConditionReport:
    C_T: float
    C_tilde_T: float
    w_curvature: float  # min u0''
    w_mixed: float  # 2 min (u0'' - 2 u0')
    verdict: bool  # curvature condition against C_T
    bound_time: float | None  # mixed datum against C_T
    bound_time_curvature: float | None
    bound_time_variant: float | None  # mixed datum against C~_T
    self_consistent: bool  # variant bound lands inside the horizon


def check_condition(u0: RealField, T: float) -> ConditionReport:
    """Evaluate both sufficient breakdown conditions for initial data u0
    against the horizon constants C_T and C~_T of horizon T."""
    if T <= 0:
        raise ConfigError(f"horizon must be positive, got T={T}")
    h1 = sobolev_norm(u0, 1.0)
    bracket = 54.0 * T * h1 * h1 + 6.0 * sobolev_norm(u0, 1.5)
    C_T, C_tilde_T = 4.0 * bracket, 2.0 * math.sqrt(2.0) * bracket
    g = u0.grid
    ch = spectrum(u0.values)
    ux, uxx = synthesize(np.stack((g.ik * ch, -(g.k**2) * ch)))
    w_curv = refined_min(g, uxx)[0]
    w_mixed = 2.0 * refined_min(g, uxx - 2.0 * ux)[0]

    def maybe_time(w0: float, C: float) -> float | None:
        return riccati_bound_time(w0, C) if w0 < -C else None

    bt_mixed = maybe_time(w_mixed, C_T)
    return ConditionReport(
        C_T=C_T,
        C_tilde_T=C_tilde_T,
        w_curvature=w_curv,
        w_mixed=w_mixed,
        verdict=w_curv < -C_T,
        bound_time=bt_mixed,
        bound_time_curvature=maybe_time(w_curv, C_T),
        bound_time_variant=maybe_time(w_mixed, C_tilde_T),
        self_consistent=bt_mixed is not None and bt_mixed <= T,
    )


def riccati_bound_time(w0: float, C: float) -> float:
    """Divergence time of w' = -w^2 + C^2, w(0) = w0 < -C < 0."""
    if C <= 0:
        raise ConfigError(f"comparison constant must be positive, got C={C}")
    if w0 >= -C:
        raise ConfigError(
            f"need w0 < -C for divergence; got w0={w0:.6g}, -C={-C:.6g}"
        )
    return -0.5 / C * math.log((w0 + C) / (w0 - C))


@dataclass
class RiccatiTrajectory:
    w: np.ndarray
    divergence_time: float


def riccati_solve(w0: float, C: float) -> RiccatiTrajectory:
    """Integrate w' = -w^2 + C^2 adaptively until |w| passes 1e8.

    The reported divergence time adds the exact tail 1/|w_stop| of the
    pure -w^2 flow; the neglected C^2 correction enters at relative size
    (C/w_stop)^2 ~ 1e-16 and is far below the integration error.
    """
    if C <= 0 or w0 >= -C:
        raise ConfigError(
            f"need w0 < -C < 0; got w0={w0:.6g}, C={C:.6g}"
        )

    def f(w: float) -> float:
        return C * C - w * w

    ws = [w0]
    t, w = 0.0, w0
    while abs(w) < RICCATI_STOP:
        dt = RICCATI_REL_STEP / max(abs(w), C)
        k1 = f(w)
        k2 = f(w + 0.5 * dt * k1)
        k3 = f(w + 0.5 * dt * k2)
        k4 = f(w + dt * k3)
        w_new = w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if w_new >= w or w_new >= -C:
            raise EstimationError("comparison solution failed monotonicity")
        t += dt
        w = w_new
        ws.append(w)
    return RiccatiTrajectory(np.array(ws), t + 1.0 / abs(w))


@dataclass
class BlowupEstimate:
    T_est: float
    residual_rms: float


def estimate_blowup_time(
    times, curvature_min, window: int = 20, ceiling: float = -1.0
) -> BlowupEstimate:
    """Fit the line 1/min u_xx ~ a + b t and report its zero crossing.

    The -1/2 rate makes the reciprocal asymptotically linear in t, which is
    far better conditioned than fitting the pole directly.  Samples with
    min u_xx above `ceiling` are discarded as pre-asymptotic.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(curvature_min, dtype=float)
    keep = y < ceiling
    if keep.sum() < window:
        raise EstimationError(
            f"only {int(keep.sum())} resolved samples below {ceiling}; "
            f"need {window}"
        )
    t, y = t[keep][-window:], y[keep][-window:]
    if not np.all(np.diff(y) < 0):
        raise EstimationError("curvature minimum is not decreasing on the window")
    recip = 1.0 / y
    b, a = np.polyfit(t, recip, 1)
    if b <= 0:
        raise EstimationError(f"reciprocal slope b={b:.3g} not positive")
    resid = recip - (a + b * t)
    T_est = -a / b
    if T_est <= t[-1]:
        raise EstimationError("extrapolated time does not exceed the window")
    return BlowupEstimate(float(T_est), float(np.sqrt(np.mean(resid**2))))


@dataclass
class RateReport:
    curvature_products: np.ndarray
    window_mean: float
    slope_product_trend: float  # LSQ slope; negative = decreasing magnitude
    companion_vanishes: bool


def rate_report(times, curvature_min, slope_min, T_est: float, window: int) -> RateReport:
    """Scaled products min u_xx (T_est-t) and |min u_x (T_est-t)| on the
    last `window` samples."""
    t = np.asarray(times, dtype=float)
    cm = np.asarray(curvature_min, dtype=float)
    sm = np.asarray(slope_min, dtype=float)
    if window < 3 or window > len(t):
        raise ConfigError(f"window {window} out of range")
    t, cm, sm = t[-window:], cm[-window:], sm[-window:]
    gap = T_est - t
    if np.any(gap <= 0):
        raise EstimationError("window reaches past the estimated time")
    cprod = cm * gap
    sprod = np.abs(sm * gap)
    trend = float(np.polyfit(t, sprod, 1)[0])
    return RateReport(cprod, float(np.mean(cprod)), trend, trend < 0.0)


def accumulator_shape(times, B) -> float:
    """Growth factor of the curvature accumulator: its secant slope over the
    last third over that over the first; ~1 means linear growth, >>1 means
    blow-up."""
    t = np.asarray(times, dtype=float)
    b = np.asarray(B, dtype=float)
    if len(t) < 6:
        raise EstimationError("need at least six samples")
    n3 = len(t) // 3
    early = (b[n3] - b[0]) / (t[n3] - t[0])
    late = (b[-1] - b[-1 - n3]) / (t[-1] - t[-1 - n3])
    if early <= 0:
        raise EstimationError("accumulator not increasing on the early window")
    return float(late / early)
