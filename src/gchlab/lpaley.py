"""Dyadic frequency decomposition and the inequality audits built on it.

Besov norms have one implementation, `_block_norms` then `_besov_sum`, which
works along the last axis of an array of spectra: `besov_norm` is its
one-field case.  `inequality_audit` audits the whole corpus as one (count, n)
stack for every requested audit in one call.  It refines the stack once,
and on each grid it takes the corpus spectrum, its p = 2 block norms and its
sup norms once for all the audits; the p != 2 block loop runs through one
coefficient buffer and one grid buffer.

The partition uses the closed-form C^inf step built from exp(-1/x), with no
table and nothing built at import: chi_b(xi) is 1 for |xi| <= 3/4, 0 for
|xi| >= 4/3, and the annulus multipliers are differences
phi_j(xi) = chi_b(xi/2^{j+1}) - chi_b(xi/2^j).
Dyadic argument scalings are exact in binary floating point, so the
telescoping sum reconstructs exactly; the low block is stored as the
complement 1 - sum_j phi_j and the top octave is renormalized so that the
partition of unity holds at every grid frequency, not just below the top
annulus.  At any frequency at most two multipliers are nonzero and they sum
to one, which forces the squared sum into [1/2, 1] structurally.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field as dfield

import numpy as np

from .config import AUDIT_IDS, top_block
from .errors import ConfigError, EstimationError
from .fields import (
    Grid1D,
    RealField,
    coefficient_power,
    lp_norms,
    refine_values,
    spectrum,
    synthesize,
)


def _flat(x: np.ndarray) -> np.ndarray:
    """exp(-1/x) for x > 0 and 0 elsewhere; every derivative vanishes at 0."""
    return np.exp(np.divide(-1.0, x, out=np.full_like(x, -np.inf), where=x > 0.0))


def smooth_step(t: np.ndarray) -> np.ndarray:
    """C^inf step e(1+t) / (e(1+t) + e(1-t)) with e = `_flat`: exactly 0
    for t <= -1, 1 for t >= 1 and 1/2 at 0 (Tu, An Introduction to
    Manifolds, 2nd ed., sec. 13.1)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    rise = _flat(1.0 + t)
    return rise / (rise + _flat(1.0 - t))


_TRANS_MID = (3.0 / 4.0 + 4.0 / 3.0) / 2.0
_TRANS_HALF = (4.0 / 3.0 - 3.0 / 4.0) / 2.0


def chi_base(xi: np.ndarray) -> np.ndarray:
    """1 on |xi| <= 3/4, 0 on |xi| >= 4/3, smooth monotone in between."""
    a = np.abs(np.atleast_1d(np.asarray(xi, dtype=float)))
    return 1.0 - smooth_step((a - _TRANS_MID) / _TRANS_HALF)


@dataclass
class DyadicPartition:
    """Sampled multipliers on a grid: row 0 is the low block (j = -1)."""

    grid: Grid1D
    j_max: int
    multipliers: np.ndarray = dfield(repr=False)

    def mult(self, j: int) -> np.ndarray:
        if j < -1 or j > self.j_max:
            raise ConfigError(f"block index {j} outside [-1, {self.j_max}]")
        return self.multipliers[j + 1]

    @property
    def blocks(self) -> range:
        return range(-1, self.j_max + 1)


def build_partition(grid: Grid1D) -> DyadicPartition:
    absk = np.abs(grid.k)
    kny = grid.nyquist
    j_max = top_block(kny)
    if j_max < 1:
        raise ConfigError(f"grid too coarse for a dyadic partition (k_nyq={kny:.3g})")
    # chi_b(|k| / 2^j) for j = 0..j_max; shared values make telescoping exact
    cb = np.array([chi_base(absk / float(2**j)) for j in range(j_max + 1)])
    mult = np.zeros((j_max + 2,) + absk.shape)
    for j in range(j_max):
        mult[j + 1] = cb[j + 1] - cb[j]
    mult[j_max + 1] = 1.0 - cb[j_max]  # top octave carries everything above
    mult[0] = 1.0 - mult[1:].sum(axis=0)
    mult[0][absk > 4.0 / 3.0] = 0.0  # exact support, complement there is roundoff
    return DyadicPartition(grid, j_max, mult)


_partition_cache: dict[tuple[float, int], DyadicPartition] = {}


def partition_for(grid: Grid1D) -> DyadicPartition:
    key = (grid.L, grid.n)
    if key not in _partition_cache:
        _partition_cache[key] = build_partition(grid)
    return _partition_cache[key]


def dyadic_block(f: RealField, j: int, part: DyadicPartition | None = None) -> RealField:
    """Delta_j f; j < -1 returns the zero field, j > j_max is empty too."""
    part = part or partition_for(f.grid)
    if j < -1 or j > part.j_max:
        return RealField(f.grid, np.zeros(f.grid.n))
    return RealField(f.grid, synthesize(spectrum(f.values) * part.mult(j)))


def low_cutoff(f: RealField, j: int, part: DyadicPartition | None = None) -> RealField:
    """S_j f = sum_{j' <= j-1} Delta_{j'} f; S_0 f is the low block alone."""
    if j < 0:
        raise ConfigError(f"low cutoff index must be >= 0, got {j}")
    part = part or partition_for(f.grid)
    top = min(j - 1, part.j_max)
    m = part.multipliers[: top + 2].sum(axis=0)
    return RealField(f.grid, synthesize(spectrum(f.values) * m))


def _validate_params(s: float, p: float, r: float) -> None:
    if p < 1 or r < 1:
        raise ConfigError(f"Besov indices need p, r >= 1, got p={p}, r={r}")


def besov_norm(
    f: RealField,
    s: float,
    p: float = 2.0,
    r: float = 2.0,
    part: DyadicPartition | None = None,
) -> float:
    """(sum_j 2^{jsr} ||Delta_j f||_p^r)^{1/r}, sup over j when r = inf."""
    _validate_params(s, p, r)
    part = part or partition_for(f.grid)
    return float(_besov_sum(_block_norms(f.grid, spectrum(f.values), p, part), s, r))


def _block_norms(
    grid: Grid1D, ch: np.ndarray, p: float, part: DyadicPartition
) -> np.ndarray:
    """||Delta_j f||_p for every block j, from the spectrum along the last
    axis: a (count, n//2 + 1) stack of spectra gives a (count, blocks) array."""
    if p == 2.0:
        # Parseval per block, no inverse transforms needed
        return np.sqrt(coefficient_power(grid, ch) @ (part.multipliers**2).T)
    # one block of the whole stack at a time, through one coefficient buffer
    # and one grid buffer: a fresh stack per block faults in fresh pages
    block = np.empty_like(ch)
    vals = np.empty(ch.shape[:-1] + (grid.n,))
    norms = np.empty(ch.shape[:-1] + (part.j_max + 2,))
    for j in part.blocks:
        np.multiply(ch, part.mult(j), out=block)
        norms[..., j + 1] = lp_norms(grid, synthesize(block, out=vals), p)
    return norms


def _besov_sum(block_norms: np.ndarray, s: float, r: float = 2.0) -> np.ndarray:
    """Weight block j by 2^{js}, then take the l^r norm over the last axis."""
    terms = 2.0 ** (s * np.arange(-1, block_norms.shape[-1] - 1)) * block_norms
    if r == np.inf:
        return np.max(terms, axis=-1)
    return np.sum(terms**r, axis=-1) ** (1.0 / r)


def reconstruct(blocks: list[RealField]) -> RealField:
    """Sum dyadic blocks, as dyadic_block gives them over part.blocks, back
    into one field."""
    if not blocks:
        raise ConfigError("nothing to reconstruct")
    total = np.zeros(blocks[0].grid.n)
    for blk in blocks:
        if blk.grid.L != blocks[0].grid.L or blk.grid.n != blocks[0].grid.n:
            raise ConfigError("blocks live on different grids")
        total = total + blk.values
    return RealField(blocks[0].grid, total)


def _bessel(grid: Grid1D, s: float) -> np.ndarray:
    """The symbol (1 + k^2)^{s/2} of lam^s = (1 - dx^2)^{s/2}."""
    return (1.0 + grid.k**2) ** (s / 2.0)


@dataclass
class AuditReport:
    audit_id: str
    params: dict  # an infinite exponent (Besov r = inf) is stored as None
    ratios: list[float]
    fitted_constant: float
    refinement_ratio: float
    hard_ok: bool
    passed: bool

    def to_json(self) -> dict:
        return {
            "audit_id": self.audit_id,
            "params": self.params,
            "ratios": [float(r) for r in self.ratios],
            "fitted_constant": float(self.fitted_constant),
            "refinement_ratio": float(self.refinement_ratio),
            "hard_ok": self.hard_ok,
            "passed": self.passed,
        }


# fitted constants must be reproducible under one dyadic grid refinement
REFINE_BAND = 0.15
INTERP_SLACK = 1e-12


_AUDIT_DEFAULTS = {
    "embedding": {"s": 1.0, "p1": 2.0, "r1": 2.0, "p2": np.inf, "r2": np.inf},
    "interpolation": {"s": 0.0, "theta": 0.37, "s1": 0.5, "s2": 2.0},
    "algebra": {"s": 1.5},
    "morse": {"s": 1.5},
    "kato_ponce": {"s": 2.0},
}


def _audit_ratios(
    grid: Grid1D, values: np.ndarray, ids: dict[str, None]
) -> dict[str, np.ndarray]:
    """lhs / rhs of each audit in ids for each row of a (count, n) stack.

    The corpus spectrum, its p = 2 block norms and its sup norms are taken
    once and shared.  The bilinear audits pair row i with row i + 1 (the
    last with the first) and share the spectrum of that product, which is
    reduced at once to what they read: its p = 2 block norms for morse and
    its lam^s for kato_ponce.  Only one stack besides the values and their
    spectrum outlives this set-up.
    """
    part = partition_for(grid)
    ch = spectrum(values)
    b2 = _block_norms(grid, ch, 2.0, part)
    sup = lp_norms(grid, values, np.inf)
    if "morse" in ids or "kato_ponce" in ids:
        prod = spectrum(values * np.roll(values, -1, axis=0))
        prod_b2 = _block_norms(grid, prod, 2.0, part)
        if "kato_ponce" in ids:
            prod *= _bessel(grid, _AUDIT_DEFAULTS["kato_ponce"]["s"])
            lam_prod = synthesize(prod)
        del prod

    def norms(p: float) -> np.ndarray:
        return b2 if p == 2.0 else _block_norms(grid, ch, p, part)

    def l2(v: np.ndarray) -> np.ndarray:
        return lp_norms(grid, v, 2.0)

    out = {}
    for which in ids:
        params = _AUDIT_DEFAULTS[which]
        s = params["s"]
        if which == "embedding":
            # one dimension: B^s_{p1,r1} -> B^{s - (1/p1 - 1/p2)}_{p2,r2}
            p1, r1, p2, r2 = params["p1"], params["r1"], params["p2"], params["r2"]
            lhs = _besov_sum(norms(p2), s - (1.0 / p1 - 1.0 / p2), r2)
            rhs = _besov_sum(norms(p1), s, r1)
        elif which == "interpolation":
            th, s1, s2 = params["theta"], params["s1"], params["s2"]
            lhs = _besov_sum(b2, th * s1 + (1.0 - th) * s2)
            rhs = _besov_sum(b2, s1) ** th * _besov_sum(b2, s2) ** (1.0 - th)
        elif which == "algebra":
            lhs = _besov_sum(_block_norms(grid, spectrum(values * values), 2.0, part), s)
            rhs = 2.0 * sup * _besov_sum(b2, s)
        elif which == "morse":
            # g is the next row, so its norms are the next row's norms of f
            lhs = _besov_sum(prod_b2, s - 1.0)
            rhs = _besov_sum(b2, s - 1.0) * np.roll(_besov_sum(b2, s), -1)
        else:
            # the commutator [lam^s, f] g = lam^s(fg) - f lam^s g, with g the
            # next row as in morse, formed in place in lam_prod (its last use)
            lam = synthesize(ch * _bessel(grid, s))
            rhs = l2(lam) * np.roll(sup, -1)
            lam = np.roll(lam, -1, axis=0)
            lam *= values
            lam_prod -= lam
            del lam
            lhs = l2(lam_prod)
            del lam_prod  # a whole stack: free it before the next two
            fx = synthesize(ch * grid.ik)
            lam = synthesize(ch * _bessel(grid, s - 1.0))
            rhs += lp_norms(grid, fx, np.inf) * np.roll(l2(lam), -1)
        if np.any(rhs == 0.0):
            raise EstimationError(f"audit {which}: degenerate sample with zero bound")
        out[which] = lhs / rhs
    return out


def inequality_audit(corpus: list[RealField], ids: Sequence[str]) -> list[AuditReport]:
    """Fit the sharpest constant observed for each textbook inequality in ids.

    The corpus must share a grid, and is audited as one (count, n) stack.
    A fitted constant is the max sample ratio, NaN if any ratio is NaN,
    which fails the audit.  The stack is then upsampled once (2N) and every
    constant refitted, and each report records refined/base.
    The interpolation audit is a hard bound with constant exactly 1.
    """
    if not corpus:
        raise ConfigError("audit corpus is empty")
    for which in ids:
        if which not in _AUDIT_DEFAULTS:
            raise ConfigError(f"unknown audit id {which!r}; known: {AUDIT_IDS}")
    g0 = corpus[0].grid
    if any(f.grid.n != g0.n or f.grid.L != g0.L for f in corpus):
        raise ConfigError("audit corpus must share one grid")
    values = np.array([f.values for f in corpus])
    once = dict.fromkeys(ids)  # a repeated id is audited once
    base = _audit_ratios(g0, values, once)
    values = refine_values(values)  # the N stack is not needed again
    fine = _audit_ratios(Grid1D(g0.L, 2 * g0.n), values, once)
    reports = []
    for which in ids:
        ratios = base[which]
        fitted = float(np.max(ratios))
        ref_ratio = float(np.max(fine[which])) / fitted
        hard_ok = True
        if which == "interpolation":
            hard_ok = fitted <= 1.0 + INTERP_SLACK
        passed = (
            math.isfinite(fitted)
            and hard_ok
            and (1.0 / (1.0 + REFINE_BAND) <= ref_ratio <= 1.0 + REFINE_BAND)
        )
        params = _AUDIT_DEFAULTS[which]
        reports.append(
            AuditReport(
                audit_id=which,
                params={k: (None if v is np.inf else v) for k, v in params.items()},
                ratios=ratios.tolist(),
                fitted_constant=fitted,
                refinement_ratio=ref_ratio,
                hard_ok=hard_ok,
                passed=passed,
            )
        )
    return reports
