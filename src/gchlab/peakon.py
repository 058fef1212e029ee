"""Exact peaked travelling waves and the weak-form residual machinery.

The travelling wave of speed c is C^1 with a curvature jump of size c at
the moving crest x = ct:

    u(t,x) = -(c/6) e^{ct-x}                      for x >= ct
    u(t,x) = -(c/2) e^{x-ct} + (c/3) e^{2(x-ct)}  for x <  ct

so w = (2-dx)u = -(c/2) e^{-|x-ct|} and the momentum m = u - u_xx vanishes
identically ahead of the crest and equals -c e^{2(x-ct)} behind it.

The whole family is the lambda-scaling u_c(t,x) = c u_1(ct,x) of the unit
wave.  Only right-moving waves, c > 0, are built: the equation is not
reflection symmetric, and a c <= 0 is far more often a typo than intended.

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


def _check_speed(c: float):
    if c <= 0.0:
        raise ConfigError(f"wave speed c must be positive, got {c}")


def _wrap(xi: np.ndarray, L: float) -> np.ndarray:
    return (xi + L) % (2.0 * L) - L


def peakon_u(x: np.ndarray, t: float, c: float, L: float) -> np.ndarray:
    _check_speed(c)
    xi = _wrap(np.asarray(x, dtype=float) - c * t, L)
    ahead = xi >= 0.0
    out = np.empty_like(xi)
    out[ahead] = -(c / 6.0) * np.exp(-xi[ahead])
    e = np.exp(xi[~ahead])
    out[~ahead] = e * (-(c / 2.0) + (c / 3.0) * e)
    return out


def peakon_w(x: np.ndarray, t: float, c: float, L: float) -> np.ndarray:
    _check_speed(c)
    xi = _wrap(np.asarray(x, dtype=float) - c * t, L)
    return -(c / 2.0) * np.exp(-np.abs(xi))


def peakon_m(x: np.ndarray, t: float, c: float, L: float) -> np.ndarray:
    _check_speed(c)
    xi = _wrap(np.asarray(x, dtype=float) - c * t, L)
    out = np.zeros_like(xi)
    behind = xi < 0.0
    out[behind] = -c * np.exp(2.0 * xi[behind])
    return out


def peakon_field(grid: Grid1D, t: float, c: float) -> RealField:
    return RealField(grid, peakon_u(grid.x, t, c, grid.L))


def peakon_energy(c: float) -> float:
    """Integral of u^2 + u_x^2 over the line: c^2 / 12."""
    return c * c / 12.0


class PeakonSolution:
    """Exact-solution provider for the weak residual quadrature."""

    def __init__(self, c: float, L: float):
        _check_speed(c)
        self.c = c
        self.L = L

    def u(self, t: float, x: np.ndarray) -> np.ndarray:
        return peakon_u(x, t, self.c, self.L)

    def w(self, t: float, x: np.ndarray) -> np.ndarray:
        return peakon_w(x, t, self.c, self.L)

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

    def time_factor(self, t: float) -> tuple[float, float]:
        """P(t) and P'(t)."""
        p = self.poly
        P = p[0] + t * (p[1] + t * (p[2] + t * p[3]))
        return P, p[1] + t * (2.0 * p[2] + 3.0 * t * p[3])

    def bump(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The profile b at x and its first two x-derivatives, from one
        evaluation; phi = P b, so phi_x = P b', phi_txx = P' b'' and so on."""
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
    phi: TestFunction,
    T: float,
    nx: int = 64,
    nt: int = 64,
    crest_split: bool = False,
) -> float:
    """Absolute defect of the weak identity under trapezoid quadrature.

    Each time line evaluates the bump once; the endpoint terms are read off
    the first and last lines.
    """
    if T <= 0:
        raise ConfigError(f"horizon must be positive, got T={T}")
    if nx < 4 or nt < 4:
        raise ConfigError("need at least 4 quadrature cells per direction")
    a, b = phi.support
    if hasattr(provider, "L") and (a < -provider.L or b > provider.L):
        raise ConfigError("test function support leaves the domain")
    ts = np.linspace(0.0, T, nt + 1)
    lines = np.empty(nt + 1)
    ends = []
    for i, t in enumerate(ts):
        xs = _x_nodes(phi, nx, provider.crest(t) if crest_split else None)
        bv, b1, b2 = phi.bump(xs)
        P, Pt = phi.time_factor(t)
        w = provider.w(t, xs)
        # u (phi - phi_xx) without its time factor
        ub = provider.u(t, xs) * (bv - b2)
        lines[i] = np.trapezoid(Pt * ub + P * w * w * (b2 - 2.0 * b1), xs)
        if i in (0, nt):
            ends.append(P * np.trapezoid(ub, xs))
    lhs = float(np.trapezoid(lines, ts))
    return abs(lhs - float(ends[1] - ends[0]))


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
