"""Exact peaked travelling waves and the weak-form residual machinery.

The travelling wave of speed c is C^1 with a curvature jump of size c at
the moving crest x = ct:

    u(t,x) = -(c/6) e^{ct-x}                      for x >= ct
    u(t,x) = -(c/2) e^{x-ct} + (c/3) e^{2(x-ct)}  for x <  ct

so w = (2-dx)u = -(c/2) e^{-|x-ct|} and the momentum m = u - u_xx vanishes
identically ahead of the crest and equals -c e^{2(x-ct)} behind it.

The whole family is the lambda-scaling u_c(t,x) = c u_1(ct,x) of the unit
wave, so negative speeds give valid (left-moving, sign-flipped) solutions
too; they are gated behind allow_negative_speed since the equation itself
is not reflection symmetric and the c<0 branch is easy to reach by typo.

Weak residual: for compactly supported smooth phi,

  int_0^T int [ u (phi_t - phi_txx) + w^2 (phi_xx - 2 phi_x) ] dx dt
      = int u(T)(phi - phi_xx)(T) dx - int u(0)(phi - phi_xx)(0) dx

holds exactly for weak solutions; the quadrature residual of an exact
solution must vanish under mesh refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import Grid1D, RealField

BUMP_EDGE_TOL = 1e-12


def _check_speed(c: float, allow_negative_speed: bool):
    if c == 0.0:
        raise ConfigError("wave speed c must be nonzero")
    if c < 0.0 and not allow_negative_speed:
        raise ConfigError(
            "negative speed gives the mirrored left-moving wave; "
            "pass allow_negative_speed=True if that is intended"
        )


def _wrap(xi: np.ndarray, L: float) -> np.ndarray:
    return (xi + L) % (2.0 * L) - L


def peakon_u(x: np.ndarray, t: float, c: float, L: float,
             allow_negative_speed: bool = False) -> np.ndarray:
    _check_speed(c, allow_negative_speed)
    xi = _wrap(np.asarray(x, dtype=float) - c * t, L)
    ahead = xi >= 0.0
    out = np.empty_like(xi)
    out[ahead] = -(c / 6.0) * np.exp(-xi[ahead])
    e = np.exp(xi[~ahead])
    out[~ahead] = e * (-(c / 2.0) + (c / 3.0) * e)
    return out


def peakon_w(x: np.ndarray, t: float, c: float, L: float,
             allow_negative_speed: bool = False) -> np.ndarray:
    _check_speed(c, allow_negative_speed)
    xi = _wrap(np.asarray(x, dtype=float) - c * t, L)
    return -(c / 2.0) * np.exp(-np.abs(xi))


def peakon_m(x: np.ndarray, t: float, c: float, L: float,
             allow_negative_speed: bool = False) -> np.ndarray:
    _check_speed(c, allow_negative_speed)
    xi = _wrap(np.asarray(x, dtype=float) - c * t, L)
    out = np.zeros_like(xi)
    behind = xi < 0.0
    out[behind] = -c * np.exp(2.0 * xi[behind])
    return out


def peakon_field(grid: Grid1D, t: float, c: float,
                 allow_negative_speed: bool = False) -> RealField:
    return RealField(grid, peakon_u(grid.x, t, c, grid.L, allow_negative_speed))


def peakon_energy(c: float) -> float:
    """Integral of u^2 + u_x^2 over the line: c^2 / 12."""
    return c * c / 12.0


class PeakonSolution:
    """Exact-solution provider for the weak residual quadrature."""

    def __init__(self, c: float, L: float, allow_negative_speed: bool = False):
        _check_speed(c, allow_negative_speed)
        self.c = c
        self.L = L
        self._neg = allow_negative_speed

    def u(self, t: float, x: np.ndarray) -> np.ndarray:
        return peakon_u(x, t, self.c, self.L, self._neg)

    def w(self, t: float, x: np.ndarray) -> np.ndarray:
        return peakon_w(x, t, self.c, self.L, self._neg)

    def crest(self, t: float) -> float:
        return float(_wrap(np.array([self.c * t]), self.L)[0])


class TestFunction:
    """phi(t,x) = P(t) * bump((x - x0)/sigma) with P cubic.

    The bump is the standard exp(-1/(1-s^2)) mollifier profile, identically
    zero outside |s| < 1, so all space derivatives vanish at the support
    edge and the weak-form boundary terms in x drop exactly.
    """

    __test__ = False  # keep pytest from collecting the class by its name

    def __init__(self, x0: float, sigma: float, poly=(1.0, 0.0, 0.0, 0.0)):
        if sigma <= 0:
            raise ConfigError(f"sigma must be positive, got {sigma}")
        if len(poly) != 4:
            raise ConfigError("poly must have exactly four cubic coefficients")
        self.x0 = x0
        self.sigma = sigma
        self.poly = tuple(float(p) for p in poly)

    def _P(self, t: float) -> float:
        p = self.poly
        return p[0] + t * (p[1] + t * (p[2] + t * p[3]))

    def _Pt(self, t: float) -> float:
        p = self.poly
        return p[1] + t * (2.0 * p[2] + 3.0 * t * p[3])

    def _bump(self, x: np.ndarray):
        s = (np.asarray(x, dtype=float) - self.x0) / self.sigma
        r = 1.0 - s * s
        inside = r > BUMP_EDGE_TOL
        b = np.zeros_like(s)
        b1 = np.zeros_like(s)
        b2 = np.zeros_like(s)
        ri, si = r[inside], s[inside]
        bi = np.exp(-1.0 / ri)
        b[inside] = bi
        b1[inside] = bi * (-2.0 * si / ri**2)
        b2[inside] = bi * (4.0 * si**2 / ri**4 - 2.0 / ri**2 - 8.0 * si**2 / ri**3)
        return b, b1 / self.sigma, b2 / self.sigma**2

    def phi(self, t, x):
        return self._P(t) * self._bump(x)[0]

    def phi_t(self, t, x):
        return self._Pt(t) * self._bump(x)[0]

    def phi_x(self, t, x):
        return self._P(t) * self._bump(x)[1]

    def phi_xx(self, t, x):
        return self._P(t) * self._bump(x)[2]

    def phi_tx(self, t, x):
        return self._Pt(t) * self._bump(x)[1]

    def phi_txx(self, t, x):
        return self._Pt(t) * self._bump(x)[2]

    @property
    def support(self) -> tuple[float, float]:
        return (self.x0 - self.sigma, self.x0 + self.sigma)


def _x_nodes(phi: TestFunction, nx: int, crest: float | None) -> np.ndarray:
    a, b = phi.support
    xs = np.linspace(a, b, nx + 1)
    if crest is not None and a < crest < b:
        xs = np.sort(np.append(xs, crest))
    return xs


def weak_residual(
    provider,
    phi,
    T: float,
    nx: int = 64,
    nt: int = 64,
    crest_split: bool = False,
) -> float:
    """Absolute defect of the weak identity under trapezoid quadrature.

    Accepts one test function or a list; a list reports the worst defect.
    """
    if isinstance(phi, (list, tuple)):
        if not phi:
            raise ConfigError("need at least one test function")
        return max(
            weak_residual(provider, p, T, nx, nt, crest_split) for p in phi
        )
    if T <= 0:
        raise ConfigError(f"horizon must be positive, got T={T}")
    if nx < 4 or nt < 4:
        raise ConfigError("need at least 4 quadrature cells per direction")
    a, b = phi.support
    if hasattr(provider, "L") and (a < -provider.L or b > provider.L):
        raise ConfigError("test function support leaves the domain")
    ts = np.linspace(0.0, T, nt + 1)
    lines = np.empty(nt + 1)
    for i, t in enumerate(ts):
        crest = provider.crest(t) if crest_split else None
        xs = _x_nodes(phi, nx, crest)
        uv = provider.u(t, xs)
        wv = provider.w(t, xs)
        integ = uv * (phi.phi_t(t, xs) - phi.phi_txx(t, xs))
        integ += wv * wv * (phi.phi_xx(t, xs) - 2.0 * phi.phi_x(t, xs))
        lines[i] = np.trapezoid(integ, xs)
    lhs = float(np.trapezoid(lines, ts))

    def endpoint(t: float) -> float:
        crest = provider.crest(t) if crest_split else None
        xs = _x_nodes(phi, nx, crest)
        uv = provider.u(t, xs)
        return float(np.trapezoid(uv * (phi.phi(t, xs) - phi.phi_xx(t, xs)), xs))

    rhs = endpoint(T) - endpoint(0.0)
    return abs(lhs - rhs)


@dataclass
class RefinementStudy:
    resolutions: list[int]
    residuals: list[float]
    fitted_order: float


def refinement_study(
    provider,
    phi: TestFunction,
    T: float,
    levels: int = 4,
    nx0: int = 32,
    nt0: int = 32,
    crest_split: bool = False,
) -> RefinementStudy:
    """Doubling ladder for the weak residual; order from a log-log fit."""
    if levels < 2:
        raise ConfigError("need at least two levels to fit an order")
    ns, res = [], []
    for lev in range(levels):
        f = 2**lev
        ns.append(nx0 * f)
        res.append(weak_residual(provider, phi, T, nx0 * f, nt0 * f, crest_split))
    y = np.log2(np.maximum(res, 1e-300))
    lv = np.arange(levels, dtype=float)
    slope = float(np.polyfit(lv, y, 1)[0])
    return RefinementStudy(ns, res, -slope)
