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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import Grid1D, RealField, line_fit, wrap

BUMP_EDGE_TOL = 1e-12
# weak_residual evaluates its time lines in blocks of about this many
# quadrature nodes: few numpy calls per line, and a bounded peak memory
BLOCK_NODES = 8192


def _check_speed(c: float):
    if c <= 0.0:
        raise ConfigError(f"wave speed c must be positive, got {c}")


def peakon_u(x: np.ndarray, t: float, c: float, L: float) -> np.ndarray:
    _check_speed(c)
    xi = wrap(np.asarray(x, dtype=float) - c * t, L)
    ahead = xi >= 0.0
    out = np.empty_like(xi)
    out[ahead] = -(c / 6.0) * np.exp(-xi[ahead])
    e = np.exp(xi[~ahead])
    out[~ahead] = e * (-(c / 2.0) + (c / 3.0) * e)
    return out


def peakon_w(x: np.ndarray, t: float, c: float, L: float) -> np.ndarray:
    _check_speed(c)
    xi = wrap(np.asarray(x, dtype=float) - c * t, L)
    return -(c / 2.0) * np.exp(-np.abs(xi))


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

    def u(self, t, x: np.ndarray) -> np.ndarray:
        return peakon_u(x, t, self.c, self.L)

    def w(self, t, x: np.ndarray) -> np.ndarray:
        return peakon_w(x, t, self.c, self.L)

    def crest(self, ts) -> np.ndarray:
        return wrap(self.c * np.asarray(ts, dtype=float), self.L)


class TestFunction:
    """phi(t,x) = P(t) * bump((x - x0)/sigma) with P cubic.

    The bump is the standard exp(-1/(1-s^2)) mollifier profile, identically
    zero outside |s| < 1, so all space derivatives vanish at the support
    edge and the weak-form boundary terms in x drop exactly.
    """

    __test__ = False  # keep pytest from collecting the class by its name

    def __init__(self, x0: float, sigma: float, poly=(1.0, 0.0, 0.0, 0.0)):
        # x0 - sigma < x0 < x0 + sigma asks sigma > 0, and that the support
        # does not collapse onto x0, where every quadrature node would sit
        if not x0 - sigma < x0 < x0 + sigma:
            raise ConfigError(f"sigma = {sigma!r} leaves no support around x0 = {x0!r}")
        # phi_xx = P b''/sigma^2 with |b''| < 8; the weak integrand adds such
        # terms and the trapezoid rule adds neighbours, so 64/sigma^2 must be
        # a double (sigma above about 6e-154)
        if not 64.0 / sigma / sigma < math.inf:
            raise ConfigError(f"sigma = {sigma!r} is too small: b''/sigma^2 overflows")
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


def _line_integrals(provider, phi: TestFunction, t: np.ndarray, xs: np.ndarray):
    """Trapezoid integrals along x, on the time lines t (a column), of the
    weak-form integrand and of u (phi - phi_xx); xs is one row of nodes
    shared by every line or one row per line."""
    bv, b1, b2 = phi.bump(xs)
    P, Pt = phi.time_factor(t)
    w = provider.w(t, xs)
    # u (phi - phi_xx) without its time factor
    ub = provider.u(t, xs) * (bv - b2)
    body = np.trapezoid(Pt * ub + P * w * w * (b2 - 2.0 * b1), xs, axis=-1)
    return body, P[:, 0] * np.trapezoid(ub, xs, axis=-1)


def weak_residual(
    provider,
    phi: TestFunction,
    T: float,
    nx: int = 64,
    nt: int = 64,
    crest_split: bool = False,
) -> float:
    """Absolute defect of the weak identity under trapezoid quadrature.

    The provider's u(t, x) and w(t, x) take a column of times against a row
    of nodes or a block of them, one row per time; crest(ts) returns the
    crest position at each time, or None for a solution with no crest.
    The time lines are evaluated in blocks of about BLOCK_NODES nodes.  With
    crest_split, a line whose crest lies inside the support gets it as one
    extra node; the endpoint terms are read off the first and last lines.
    """
    if T <= 0:
        raise ConfigError(f"horizon must be positive, got T={T}")
    if nx < 4 or nt < 4:
        raise ConfigError("need at least 4 quadrature cells per direction")
    a, b = phi.support
    if hasattr(provider, "L") and (a < -provider.L or b > provider.L):
        raise ConfigError("test function support leaves the domain")
    ts = np.linspace(0.0, T, nt + 1)
    xs = np.linspace(a, b, nx + 1)
    lines = np.empty(nt + 1)
    ends = np.empty(nt + 1)
    rows = max(1, BLOCK_NODES // (nx + 2))
    for i in range(0, nt + 1, rows):
        block = slice(i, i + rows)
        t = ts[block, None]
        crest = provider.crest(t[:, 0]) if crest_split else None
        split = np.zeros(len(t), bool) if crest is None else (a < crest) & (crest < b)
        if not split.all():
            keep = ~split
            lines[block][keep], ends[block][keep] = _line_integrals(
                provider, phi, t[keep], xs
            )
        if split.any():
            # C order, so each row's trapezoid sums as a lone line's would
            nodes = np.empty((int(split.sum()), nx + 2))
            nodes[:, :-1] = xs
            nodes[:, -1] = crest[split]
            nodes.sort(axis=1)
            lines[block][split], ends[block][split] = _line_integrals(
                provider, phi, t[split], nodes
            )
    lhs = float(np.trapezoid(lines, ts))
    return abs(lhs - float(ends[nt] - ends[0]))


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
    slope = line_fit(lv, y)[0]
    return RefinementStudy(ns, res, -slope)
