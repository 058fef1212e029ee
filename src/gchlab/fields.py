"""Periodic grid, the transform layer, and the elliptic helpers built on it.

Everything lives on a uniform grid over [-L, L) with N a power of two.
This is the only module that calls numpy.fft: `spectrum` and `synthesize`
map grid values to Fourier coefficients and back, `coefficient_power` and
`power` give the per-mode Parseval weights, and `Grid1D` caches the
symbols (`k`, `ik`, `helm`) that are index-aligned with the coefficients.
Other modules multiply by those symbols and never see the coefficient
layout.
Physical-space integrals are Riemann sums with weight dx; by Parseval that
matches the coefficient-space sums used for the Sobolev norms.

Every field is real, so the layer keeps the half spectrum (real FFTs):
N//2 + 1 coefficients for k = 0, pi/L, ..., k_Nyquist, all k >= 0, with
Nyquist last.  Each interior coefficient also stands for its conjugate at
-k, so `power` counts interior modes twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError

# |f(+-L)| above this fraction of max|f| means the field does not decay
# inside the box and periodic results stop meaning anything.
POLLUTION_TOL = 1e-10

# Truncation threshold for the periodized kernel sum in green_convolve.
KERNEL_TERM_FLOOR = 1e-16


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [-L, L) with power-of-two N.

    `k` holds the N//2 + 1 wavenumbers of the half spectrum, 0 to the
    Nyquist wavenumber, which comes last and is positive.
    """

    L: float
    n: int
    x: np.ndarray = field(init=False, repr=False, compare=False)
    k: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.L <= 0:
            raise ConfigError(f"half-width must be positive, got L={self.L}")
        n = self.n
        if n < 16 or n & (n - 1) != 0:
            raise ConfigError(f"N must be a power of two >= 16, got N={n}")
        dx = 2.0 * self.L / n
        object.__setattr__(self, "x", -self.L + dx * np.arange(n))
        # rfftfreq(n, d=dx) * 2*pi == pi*j/L for j = 0 .. n/2
        object.__setattr__(self, "k", 2.0 * np.pi * np.fft.rfftfreq(n, d=dx))

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def nyquist(self) -> float:
        return np.pi * (self.n // 2) / self.L

    @cached_property
    def ik(self) -> np.ndarray:
        """Symbol of d/dx.  The Nyquist mode is zeroed: the Nyquist
        coefficient of a real field is real, and an odd power of ik would
        make it imaginary, i.e. leak a non-representable mode."""
        ik = 1j * self.k
        ik[-1] = 0.0
        ik.flags.writeable = False
        return ik

    @cached_property
    def helm(self) -> np.ndarray:
        """Symbol of (1 - dx^2)^{-1}: 1 / (1 + k^2)."""
        helm = 1.0 / (1.0 + self.k**2)
        helm.flags.writeable = False
        return helm

    @cached_property
    def weight(self) -> np.ndarray:
        """Parseval multiplicity of each coefficient: 2 for the interior
        modes, which also stand for -k, and 1 for DC and Nyquist."""
        w = np.full(self.k.shape, 2.0)
        w[0] = w[-1] = 1.0
        w.flags.writeable = False
        return w


@dataclass
class RealField:
    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise ConfigError(
                f"field shape {self.values.shape} does not match grid N={self.grid.n}"
            )


def spectrum(values: np.ndarray) -> np.ndarray:
    """Fourier coefficients of grid values, index-aligned with grid.k.

    Transforms along the last axis, so a stack of frames works too.
    """
    return np.fft.rfft(values)


def synthesize(coeffs: np.ndarray) -> np.ndarray:
    """Real grid values of a coefficient array; inverts `spectrum`.

    The imaginary parts of the DC and Nyquist coefficients are dropped.
    """
    return np.fft.irfft(coeffs)


def coefficient_power(grid: Grid1D, coeffs: np.ndarray) -> np.ndarray:
    """Per-mode weight * |c_k|^2 dx/n; for coeffs = spectrum(f) the sum is
    the Riemann sum of f^2 (Parseval).  See Grid1D.weight."""
    return np.abs(coeffs) ** 2 * (grid.weight * (grid.dx / grid.n))


def power(f: RealField) -> np.ndarray:
    """coefficient_power of the field's spectrum."""
    return coefficient_power(f.grid, spectrum(f.values))


def derivative(f: RealField, order: int = 1) -> RealField:
    """Spectral d^order/dx^order. Odd orders zero the Nyquist mode (see Grid1D.ik)."""
    if order < 1:
        raise ConfigError(f"derivative order must be a positive integer, got {order}")
    g = f.grid
    sym = g.ik if order % 2 == 1 else 1j * g.k
    return RealField(g, synthesize(spectrum(f.values) * sym**order))


def helmholtz_inverse(f: RealField) -> RealField:
    """(1 - dx^2)^{-1} f via the symbol 1 / (1 + k^2)."""
    return RealField(f.grid, synthesize(spectrum(f.values) * f.grid.helm))


def apply_one_minus_dxx(u: RealField) -> RealField:
    """(1 - dx^2) u, the exact inverse of helmholtz_inverse on the grid."""
    return RealField(u.grid, synthesize(spectrum(u.values) * (1.0 + u.grid.k**2)))


def periodized_kernel(grid: Grid1D) -> np.ndarray:
    """Samples of G_per(x) = sum_n (1/2) e^{-|x + 2Ln|} at grid offsets.

    Terms are added until they fall below KERNEL_TERM_FLOOR.
    """
    d = grid.x + grid.L  # offsets 0 .. 2L-dx
    total = np.zeros_like(d)
    n = 0
    while True:
        t_pos = 0.5 * np.exp(-np.abs(d + 2.0 * grid.L * n))
        t_neg = 0.5 * np.exp(-np.abs(d - 2.0 * grid.L * (n + 1)))
        total += t_pos + t_neg
        if t_pos.max() < KERNEL_TERM_FLOOR and t_neg.max() < KERNEL_TERM_FLOOR:
            break
        n += 1
        if n > 64:
            break
    return total


def green_convolve(f: RealField) -> RealField:
    """(1 - dx^2)^{-1} f by direct quadrature against the periodized kernel.

    Deliberately FFT-free so it can serve as an independent oracle for
    helmholtz_inverse.  The kernel has a kink at 0 sitting exactly on a
    node, so plain trapezoid stalls at O(dx^2); the two Euler-Maclaurin
    kink corrections below push the quadrature to O(dx^6).  (Sanity anchor:
    for f == 1 plain trapezoid returns (h/2)coth(h/2) = 1 + h^2/12 - h^4/720,
    which is exactly what the corrections remove.)
    """
    g = f.grid
    h = g.dx
    kern = periodized_kernel(g)
    # circular convolution via direct (non-FFT) linear convolution
    tiled = np.concatenate([f.values, f.values])
    conv = np.convolve(tiled, kern)[g.n : 2 * g.n] * h
    fv = f.values
    f2 = (np.roll(fv, -1) - 2.0 * fv + np.roll(fv, 1)) / h**2
    conv -= (h**2 / 12.0) * fv
    conv += (h**4 / 720.0) * (fv + 3.0 * f2)
    return RealField(g, conv)


def lp_norm(f: RealField, p: float) -> float:
    """Riemann-sum L^p norm; p = inf gives max|f|."""
    if p == np.inf:
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise ConfigError(f"L^p norm needs p >= 1, got p={p}")
    return float((np.sum(np.abs(f.values) ** p) * f.grid.dx) ** (1.0 / p))


def sobolev_norm(f: RealField, s: float) -> float:
    """H^s norm via (1+k^2)^s coefficient weighting, normalized to dx sums.

    s = 0 delegates to lp_norm(f, 2) so the two agree exactly, not just to
    FFT roundoff.
    """
    if s == 0:
        return lp_norm(f, 2.0)
    total = np.sum((1.0 + f.grid.k**2) ** s * power(f))
    return float(np.sqrt(total))


def check_domain_decay(f: RealField, tol: float = POLLUTION_TOL) -> None:
    """Raise unless max |f| at the two box ends is at most tol times max |f|
    (the zero field passes)."""
    m = np.max(np.abs(f.values))
    r = float(max(abs(f.values[0]), abs(f.values[-1])) / m) if m > 0.0 else 0.0
    if r > tol:
        raise ConfigError(
            f"field does not decay inside the box: boundary/max ratio {r:.3e} > {tol:.1e}"
        )


def dealias_mask(grid: Grid1D) -> np.ndarray:
    """Boolean mask keeping |k| <= (2/3) k_Nyquist (the 2/3 rule)."""
    return np.abs(grid.k) <= (2.0 / 3.0) * grid.nyquist


def refine_field(f: RealField) -> RealField:
    """Band-limited upsample onto a grid with 2N points (same L)."""
    g = f.grid
    fine = Grid1D(g.L, 2 * g.n)
    ch = spectrum(f.values)
    out = np.zeros(fine.k.shape, dtype=complex)
    half = g.n // 2
    out[:half] = ch[:half]
    # the coarse Nyquist mode cos(k_nyq x) is an interior mode on the fine
    # grid, where a coefficient also stands for -k: half of it each way
    out[half] = 0.5 * ch[half]
    return RealField(fine, synthesize(out) * 2.0)


def random_band_limited(
    grid: Grid1D,
    rng: np.random.Generator,
    frac: float = 1.0 / 3.0,
    decay: float = 2.0,
    amplitude: float = 1.0,
) -> RealField:
    """Random real field supported on |k| <= frac * k_Nyquist.

    Coefficients get i.i.d. complex Gaussians shaped by (1+k^2)^{-decay/2};
    used for test corpora where products must stay alias-free.
    """
    g = grid
    kcut = frac * g.nyquist
    # draw on the full frequency list +-k, then fold each +k with the
    # conjugate of its -k partner: the real part of the full inverse
    # transform is the inverse of the folded half spectrum
    k = 2.0 * np.pi * np.fft.fftfreq(g.n, d=g.dx)
    ch = np.zeros(g.n, dtype=complex)
    mask = (np.abs(k) <= kcut) & (k != 0.0)
    nm = int(mask.sum())
    ch[mask] = rng.standard_normal(nm) + 1j * rng.standard_normal(nm)
    ch *= (1.0 + k**2) ** (-decay / 2.0)
    half = g.n // 2
    folded = 0.5 * (ch[: half + 1] + np.conj(ch[-np.arange(half + 1)]))
    folded[half] = 0.0
    vals = synthesize(folded)
    m = np.max(np.abs(vals))
    if m > 0:
        vals *= amplitude / m
    return RealField(g, vals)
