"""Periodic grid, the transform layer, and the elliptic helpers built on it.

Everything lives on a uniform grid over [-L, L) with N a power of two.
This is the only module that calls numpy.fft: `spectrum` and `synthesize`
map grid values to Fourier coefficients and back, `coefficient_power`
gives the per-mode Parseval power, and `Grid1D` caches the symbols (`k`,
`ik`, `h1`, `helm`, `weight`) that are index-aligned with the coefficients.
Other modules multiply by those symbols and never see the coefficient
layout.
Seeded corpora take their normals from `SeededNormals`, which draws its
bits from Python's `random` module, so no run imports numpy.random.
Physical-space integrals are Riemann sums with weight dx; by Parseval that
matches the coefficient-space sums used for the Sobolev norms.

Every field is real, so the layer keeps the half spectrum (real FFTs):
N//2 + 1 coefficients for k = 0, pi/L, ..., k_Nyquist, all k >= 0, with
Nyquist last.  Each interior coefficient also stands for its conjugate at
-k, so `Grid1D.weight` counts interior modes twice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, EstimationError

# |f(+-L)| above this fraction of max|f| means the field does not decay
# inside the box and periodic results stop meaning anything.  A loose
# screen: Green-function tails of box-scale data sit around e^{-L}, which is
# harmless; only genuine wrap-around should abort.
POLLUTION_TOL = 1e-6


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
    def h1(self) -> np.ndarray:
        """Symbol of 1 - dx^2, the H^1 weight: 1 + k^2."""
        h1 = 1.0 + self.k**2
        h1.flags.writeable = False
        return h1

    @cached_property
    def helm(self) -> np.ndarray:
        """Symbol of (1 - dx^2)^{-1}: 1 / (1 + k^2)."""
        helm = 1.0 / self.h1
        helm.flags.writeable = False
        return helm

    @cached_property
    def weight(self) -> np.ndarray:
        """Parseval weight of each coefficient: its multiplicity, 2 for the
        interior modes, which also stand for -k, and 1 for DC and Nyquist,
        times dx/n."""
        w = np.full(self.k.shape, 2.0)
        w[0] = w[-1] = 1.0
        w *= self.dx / self.n
        w.flags.writeable = False
        return w


def wrap(x, L: float):
    """x wrapped into the periodic box [-L, L]; arrays and scalars alike.

    Bitwise equal to (x + L) % (2L) - L for x in [-3L, 3L], where the
    rounded quotient (x + L) / 2L has the exact floor and each subtraction
    is exact or rounds once as the remainder does, at half its cost.
    Farther out the two may differ by one period at a seam.
    """
    period = 2.0 * L
    y = np.asarray(x) + L
    return y - period * np.floor(y / period) - L


def line_fit(x, y) -> tuple[float, float]:
    """Least-squares line y ~ intercept + slope x: (slope, intercept).

    The two-pass centred form (Chan, Golub & LeVeque, Amer. Statist. 37
    (1983) 242): slope = sum dx (y - ybar) / sum dx^2 with dx = x - xbar,
    and intercept = ybar - slope xbar.  Elementwise numpy only, so no fit
    calls BLAS or LAPACK.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or np.all(x == x[0]):
        raise EstimationError("a line fit needs two distinct abscissae")
    xbar, ybar = np.mean(x), np.mean(y)
    dx = x - xbar
    slope = np.sum(dx * (y - ybar)) / np.sum(dx * dx)
    return float(slope), float(ybar - slope * xbar)


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


def synthesize(coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Real grid values of a coefficient array; inverts `spectrum`.

    The imaginary parts of the DC and Nyquist coefficients are dropped.
    `out`, if given, receives the values, so a loop can reuse one buffer.
    """
    return np.fft.irfft(coeffs, out=out)


def coefficient_power(grid: Grid1D, coeffs: np.ndarray) -> np.ndarray:
    """Per-mode |c_k|^2 times Grid1D.weight; for coeffs = spectrum(f) the
    sum is the Riemann sum of f^2 (Parseval)."""
    return np.abs(coeffs) ** 2 * grid.weight


def helmholtz_inverse(f: RealField) -> RealField:
    """(1 - dx^2)^{-1} f via the symbol 1 / (1 + k^2)."""
    return RealField(f.grid, synthesize(spectrum(f.values) * f.grid.helm))


def apply_one_minus_dxx(u: RealField) -> RealField:
    """(1 - dx^2) u, the exact inverse of helmholtz_inverse on the grid."""
    return RealField(u.grid, synthesize(spectrum(u.values) * u.grid.h1))


def periodized_kernel(grid: Grid1D) -> np.ndarray:
    """Samples of G_per(x) = sum_n (1/2) e^{-|x + 2Ln|} at grid offsets.

    On an offset d in [0, 2L) the terms n >= 0 and n < 0 are two geometric
    series, which sum to (e^{-d} + e^{d - 2L}) / (2 (1 - e^{-2L})).
    """
    d = grid.x + grid.L  # offsets 0 .. 2L-dx
    return (np.exp(-d) + np.exp(d - 2.0 * grid.L)) / (-2.0 * np.expm1(-2.0 * grid.L))


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
    return float(lp_norms(f.grid, f.values, p))


def lp_norms(grid: Grid1D, values: np.ndarray, p: float) -> np.ndarray:
    """lp_norm along the last axis, so a stack of fields gives one norm each."""
    if p == np.inf:
        # max|f| without an |f| temporary; + 0.0 turns a -0.0 into 0.0
        return np.maximum(np.max(values, axis=-1), -np.min(values, axis=-1)) + 0.0
    if p < 1:
        raise ConfigError(f"L^p norm needs p >= 1, got p={p}")
    mag = np.abs(values)
    mag **= p  # in place: on a stack of fields a second temporary is large
    return (np.sum(mag, axis=-1) * grid.dx) ** (1.0 / p)


def sobolev_norm(f: RealField, s: float) -> float:
    """H^s norm via (1+k^2)^s coefficient weighting, normalized to dx sums;
    at s = 0 the L^2 norm, up to FFT roundoff."""
    total = np.sum(f.grid.h1**s * coefficient_power(f.grid, spectrum(f.values)))
    return float(np.sqrt(total))


def check_domain_decay(f: RealField) -> None:
    """Raise unless max |f| at the two box ends is at most POLLUTION_TOL
    times max |f| (the zero field passes)."""
    m = lp_norms(f.grid, f.values, np.inf)
    r = float(max(abs(f.values[0]), abs(f.values[-1])) / m) if m > 0.0 else 0.0
    if r > POLLUTION_TOL:
        raise ConfigError(
            "field does not decay inside the box: "
            f"boundary/max ratio {r:.3e} > {POLLUTION_TOL:.1e}"
        )


def refine_values(values: np.ndarray) -> np.ndarray:
    """Band-limited upsample onto the grid of 2N points and the same L, along
    the last axis, so a stack of fields is upsampled in one pair of transforms."""
    ch = spectrum(values)
    half = values.shape[-1] // 2
    out = np.zeros(ch.shape[:-1] + (2 * half + 1,), dtype=complex)
    out[..., :half] = ch[..., :half]
    # the coarse Nyquist mode cos(k_nyq x) is an interior mode on the fine
    # grid, where a coefficient also stands for -k: half of it each way
    out[..., half] = 0.5 * ch[..., half]
    fine = synthesize(out)
    fine *= 2.0
    return fine


class SeededNormals:
    """A seeded stream of standard normal doubles, with the one generator
    method `random_band_limited_values` calls.

    The bits come from Python's Mersenne Twister, `random.Random(seed)`,
    which takes any int seed and which `import numpy` has already loaded.
    Each pair of 53-bit uniforms u1, u2 in (0, 1] gives the two Box-Muller
    normals sqrt(-2 ln u1) cos(2 pi u2) and sqrt(-2 ln u1) sin(2 pi u2), in
    that order.  Successive calls continue one stream: a draw of an odd
    count keeps its last pair's second normal for the next call, so draws
    of a and then b values equal one draw of a + b.
    """

    def __init__(self, seed: int):
        self._bits = random.Random(seed)
        self._spare = np.empty(0)

    def standard_normal(self, shape) -> np.ndarray:
        size = int(np.prod(shape))
        pairs = max(size - self._spare.size + 1, 0) // 2
        bits = np.frombuffer(self._bits.randbytes(16 * pairs), dtype="<u8") >> 11
        bits += 1  # the top 53 bits plus one, so ln never sees 0
        z = bits * 2.0**-53
        # each pair of uniforms turns into its two normals in place
        r, theta = z[0::2], z[1::2]
        np.sqrt(-2.0 * np.log(r), out=r)
        theta *= 2.0 * np.pi
        cos = np.cos(theta)
        np.sin(theta, out=theta)
        theta *= r
        r *= cos
        if self._spare.size:
            z = np.concatenate((self._spare, z))
        self._spare = z[size:].copy()
        return z[:size].reshape(shape)


def random_band_limited(
    grid: Grid1D,
    rng: SeededNormals,
    frac: float = 1.0 / 3.0,
    decay: float = 2.0,
) -> RealField:
    """The one-row case of `random_band_limited_values`."""
    return RealField(grid, random_band_limited_values(grid, rng, 1, frac, decay)[0])


def random_band_limited_values(
    grid: Grid1D,
    rng: SeededNormals,
    count: int,
    frac: float = 1.0 / 3.0,
    decay: float = 2.0,
) -> np.ndarray:
    """A (count, n) stack of random real fields supported on
    0 < |k| <= frac * k_Nyquist, below Nyquist, each scaled to max|f| = 1.

    Band coefficients get i.i.d. complex Gaussians shaped by (1+k^2)^{-decay/2};
    used for test corpora where products must stay alias-free.  `rng` is
    anything with `standard_normal(shape)`: a `SeededNormals` in the
    runners, a numpy Generator in tests.  Each row draws its real parts,
    then its imaginary parts, so the stack equals `count` one-row draws
    from the same generator, bit for bit.  The stack is one synthesis of
    a (count, n//2 + 1) half spectrum; only its band is filled.
    """
    half = grid.n // 2
    # the band is 0 < j <= frac * n/2, as k_j = j pi / L; n/2 is a power of
    # two, so the product is exact.  Nyquist stays 0
    inner = min(int(frac * half), half - 1)
    z = rng.standard_normal((count, 2, inner))
    ch = np.zeros((count, half + 1), dtype=complex)
    band = ch[:, 1 : inner + 1]
    band.real, band.imag = z[:, 0], z[:, 1]
    del z  # so the draw's peak is its half spectrum and the synthesis output
    band *= grid.h1[1 : inner + 1] ** (-decay / 2.0)
    vals = synthesize(ch)
    m = lp_norms(grid, vals, np.inf)[:, None]
    return np.divide(vals, m, out=vals, where=m > 0)  # a zero row stays zero
