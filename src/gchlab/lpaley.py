"""Dyadic frequency decomposition and the inequality audits built on it.

The partition uses a smoothed step built from the bump exp(-1/(1-t^2)):
chi_b(xi) is 1 for |xi| <= 3/4, 0 for |xi| >= 4/3, and the annulus
multipliers are differences phi_j(xi) = chi_b(xi/2^{j+1}) - chi_b(xi/2^j).
Dyadic argument scalings are exact in binary floating point, so the
telescoping sum reconstructs exactly; the low block is stored as the
complement 1 - sum_j phi_j and the top octave is renormalized so that the
partition of unity holds at every grid frequency, not just below the top
annulus.  At any frequency at most two multipliers are nonzero and they sum
to one, which forces the squared sum into [1/2, 1] structurally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np

from .errors import ConfigError, EstimationError
from .fields import (
    Grid1D,
    RealField,
    derivative,
    lp_norm,
    power,
    refine_field,
    spectrum,
    synthesize,
)

_GL_NODES = 200
_gl_z, _gl_w = np.polynomial.legendre.leggauss(_GL_NODES)


def _bump(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0 - 1e-14
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


_BUMP_MASS = float(np.sum(_gl_w * _bump(_gl_z)))


def smooth_step(t: np.ndarray) -> np.ndarray:
    """C^inf step: 0 for t <= -1, 1 for t >= 1, normalized bump integral."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty_like(t)
    lo = t <= -1.0
    hi = t >= 1.0
    mid = ~(lo | hi)
    out[lo] = 0.0
    out[hi] = 1.0
    if np.any(mid):
        tm = t[mid]
        # map GL nodes from [-1, 1] onto [-1, tm] per query point
        half = 0.5 * (tm + 1.0)
        xq = -1.0 + np.outer(half, _gl_z + 1.0)
        vals = _bump(xq) @ _gl_w
        out[mid] = half * vals / _BUMP_MASS
    return out


_TRANS_MID = (3.0 / 4.0 + 4.0 / 3.0) / 2.0
_TRANS_HALF = (4.0 / 3.0 - 3.0 / 4.0) / 2.0


def chi_base(xi: np.ndarray) -> np.ndarray:
    """1 on |xi| <= 3/4, 0 on |xi| >= 4/3, smooth monotone in between."""
    a = np.abs(np.atleast_1d(np.asarray(xi, dtype=float)))
    out = 1.0 - smooth_step((a - _TRANS_MID) / _TRANS_HALF)
    out[a <= 0.75] = 1.0
    out[a >= 4.0 / 3.0] = 0.0
    return out


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
    j_max = int(math.floor(math.log2(kny / 0.75)))
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
    block_norms = np.empty(part.j_max + 2)
    if p == 2.0:
        # Parseval per block, no inverse transforms needed
        w = power(f)
        for j in part.blocks:
            block_norms[j + 1] = math.sqrt(float(np.sum(part.mult(j) ** 2 * w)))
    else:
        ch = spectrum(f.values)
        for j in part.blocks:
            blk = RealField(f.grid, synthesize(ch * part.mult(j)))
            block_norms[j + 1] = lp_norm(blk, p)
    weights = 2.0 ** (s * np.arange(-1, part.j_max + 1))
    terms = weights * block_norms
    if r == np.inf:
        return float(np.max(terms))
    return float(np.sum(terms**r) ** (1.0 / r))


def reconstruct(blocks, part: DyadicPartition | None = None) -> RealField:
    """Sum dyadic blocks back into one field.

    Accepts the list produced by dyadic_block over part.blocks, or a single
    field (which is decomposed and resummed — the round-trip identity).
    """
    if isinstance(blocks, RealField):
        part = part or partition_for(blocks.grid)
        blocks = [dyadic_block(blocks, j, part) for j in part.blocks]
    if not blocks:
        raise ConfigError("nothing to reconstruct")
    total = np.zeros(blocks[0].grid.n)
    for blk in blocks:
        if blk.grid.L != blocks[0].grid.L or blk.grid.n != blocks[0].grid.n:
            raise ConfigError("blocks live on different grids")
        total = total + blk.values
    return RealField(blocks[0].grid, total)


def _lam(f: RealField, s: float) -> RealField:
    """(1 - dx^2)^{s/2} as a Fourier multiplier."""
    ch = spectrum(f.values) * (1.0 + f.grid.k**2) ** (s / 2.0)
    return RealField(f.grid, synthesize(ch))


@dataclass
class AuditReport:
    audit_id: str
    params: dict
    ratios: list[float]
    fitted_constant: float
    refinement_ratio: float
    hard_ok: bool
    passed: bool

    def to_json(self) -> dict:
        """JSON-ready dict; infinite params (Besov r = inf) become None."""
        clean_params = {
            k: (None if isinstance(v, float) and math.isinf(v) else v)
            for k, v in self.params.items()
        }
        return {
            "audit_id": self.audit_id,
            "params": clean_params,
            "ratios": [float(r) for r in self.ratios],
            "fitted_constant": float(self.fitted_constant),
            "refinement_ratio": float(self.refinement_ratio),
            "hard_ok": self.hard_ok,
            "passed": self.passed,
        }


AUDIT_IDS = ("embedding", "interpolation", "algebra", "morse", "kato_ponce")

# fitted constants must be reproducible under one dyadic grid refinement
REFINE_BAND = 0.15
INTERP_SLACK = 1e-12


def _audit_ratios(corpus: list[RealField], which: str, params: dict) -> list[float]:
    part = partition_for(corpus[0].grid)
    s = params["s"]
    out = []
    n = len(corpus)
    for i, f in enumerate(corpus):
        if which == "embedding":
            # one dimension: B^s_{p1,r1} -> B^{s - (1/p1 - 1/p2)}_{p2,r2}
            p1, r1, p2, r2 = params["p1"], params["r1"], params["p2"], params["r2"]
            lhs = besov_norm(f, s - (1.0 / p1 - 1.0 / p2), p2, r2, part)
            rhs = besov_norm(f, s, p1, r1, part)
        elif which == "interpolation":
            th, s1, s2 = params["theta"], params["s1"], params["s2"]
            smid = th * s1 + (1.0 - th) * s2
            lhs = besov_norm(f, smid, 2.0, 2.0, part)
            rhs = besov_norm(f, s1, 2.0, 2.0, part) ** th * besov_norm(
                f, s2, 2.0, 2.0, part
            ) ** (1.0 - th)
        elif which == "algebra":
            sq = RealField(f.grid, f.values * f.values)
            lhs = besov_norm(sq, s, 2.0, 2.0, part)
            rhs = 2.0 * lp_norm(f, np.inf) * besov_norm(f, s, 2.0, 2.0, part)
        elif which == "morse":
            gfld = corpus[(i + 1) % n]
            prod = RealField(f.grid, f.values * gfld.values)
            lhs = besov_norm(prod, s - 1.0, 2.0, 2.0, part)
            rhs = besov_norm(f, s - 1.0, 2.0, 2.0, part) * besov_norm(
                gfld, s, 2.0, 2.0, part
            )
        elif which == "kato_ponce":
            gfld = corpus[(i + 1) % n]
            prod = RealField(f.grid, f.values * gfld.values)
            comm = RealField(
                f.grid, _lam(prod, s).values - f.values * _lam(gfld, s).values
            )
            lhs = lp_norm(comm, 2.0)
            rhs = lp_norm(_lam(f, s), 2.0) * lp_norm(gfld, np.inf) + lp_norm(
                derivative(f, 1), np.inf
            ) * lp_norm(_lam(gfld, s - 1.0), 2.0)
        else:
            raise ConfigError(f"unknown audit id {which!r}; known: {AUDIT_IDS}")
        if rhs == 0.0:
            raise EstimationError(f"audit {which}: degenerate sample with zero bound")
        out.append(lhs / rhs)
    return out


_AUDIT_DEFAULTS = {
    "embedding": {"s": 1.0, "p1": 2.0, "r1": 2.0, "p2": np.inf, "r2": np.inf},
    "interpolation": {"s": 0.0, "theta": 0.37, "s1": 0.5, "s2": 2.0},
    "algebra": {"s": 1.5},
    "morse": {"s": 1.5},
    "kato_ponce": {"s": 2.0},
}


def inequality_audit(
    corpus: list[RealField], which: str, refine: bool = True, **overrides
) -> AuditReport:
    """Fit the sharpest constant observed for one textbook inequality.

    The corpus must share a grid.  The fitted constant is the max sample
    ratio; with refine=True the corpus is upsampled once (2N) and the
    constant refitted, and the report records refined/base.  The
    interpolation audit is a hard bound with constant exactly 1.
    """
    if not corpus:
        raise ConfigError("audit corpus is empty")
    if which not in _AUDIT_DEFAULTS:
        raise ConfigError(f"unknown audit id {which!r}; known: {AUDIT_IDS}")
    g0 = corpus[0].grid
    if any(f.grid.n != g0.n or f.grid.L != g0.L for f in corpus):
        raise ConfigError("audit corpus must share one grid")
    params = dict(_AUDIT_DEFAULTS[which])
    params.update(overrides)
    ratios = _audit_ratios(corpus, which, params)
    fitted = max(ratios)
    ref_ratio = 1.0
    if refine:
        fine = [refine_field(f) for f in corpus]
        fitted_fine = max(_audit_ratios(fine, which, params))
        ref_ratio = fitted_fine / fitted
    hard_ok = True
    if which == "interpolation":
        hard_ok = fitted <= 1.0 + INTERP_SLACK
    passed = (
        math.isfinite(fitted)
        and hard_ok
        and (1.0 / (1.0 + REFINE_BAND) <= ref_ratio <= 1.0 + REFINE_BAND)
    )
    return AuditReport(
        audit_id=which,
        params={k: (None if v is np.inf else v) for k, v in params.items()},
        ratios=ratios,
        fitted_constant=fitted,
        refinement_ratio=ref_ratio,
        hard_ok=hard_ok,
        passed=passed,
    )
