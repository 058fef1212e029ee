"""Grid, transform, and norm layer against independent oracles.

The DFT oracle is a literal O(N^2) sum at N=64; norm oracles are closed
forms (single modes, the travelling-wave energy c^2/12) and one frozen
quadrature value for the H^{3/2} norm of the unit-speed wave.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import gchlab
from gchlab.errors import ConfigError, EstimationError
from gchlab.fields import (
    Grid1D,
    RealField,
    SeededNormals,
    apply_one_minus_dxx,
    check_domain_decay,
    coefficient_power,
    green_convolve,
    helmholtz_inverse,
    line_fit,
    lp_norm,
    lp_norms,
    periodized_kernel,
    random_band_limited,
    random_band_limited_values,
    refine_values,
    sobolev_norm,
    spectrum,
    synthesize,
)
from gchlab.dynamics import _kernel
from gchlab.peakon import peakon_field

# int_0^inf (1+k^2)^{-1/2}/(4+k^2) dk, full line, via adaptive quadrature
PEAKON_H32_LINE = 0.3478689750055727


def grid40(n=256):
    return Grid1D(40.0, n)


class TestGrid:
    def test_basic_layout(self):
        g = grid40(64)
        assert g.dx == pytest.approx(80.0 / 64)
        assert g.x[0] == -40.0
        assert g.x[-1] == pytest.approx(40.0 - g.dx)
        assert g.nyquist == pytest.approx(math.pi * 32 / 40.0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            Grid1D(40.0, 100)  # not a power of two
        with pytest.raises(ConfigError):
            Grid1D(40.0, 8)
        with pytest.raises(ConfigError):
            Grid1D(-1.0, 64)

    def test_shape_mismatch(self):
        g = grid40(64)
        with pytest.raises(ConfigError):
            RealField(g, np.zeros(65))


class TestTransforms:
    def test_naive_dft_oracle(self):
        n = 64
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(n)
        F = spectrum(vals)
        oracle = np.array(
            [sum(vals[j] * np.exp(-2j * np.pi * j * k / n) for j in range(n))
             for k in range(n)]
        )
        assert np.max(np.abs(F - oracle[: n // 2 + 1])) < 1e-10

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(128)
        back = synthesize(spectrum(vals))
        assert np.max(np.abs(back - vals)) < 1e-13

    def test_derivative_single_mode_exact(self):
        g = grid40(256)
        k0 = 3 * math.pi / g.L
        ch = spectrum(np.sin(k0 * g.x))
        d1 = synthesize(ch * g.ik)
        assert np.max(np.abs(d1 - k0 * np.cos(k0 * g.x))) < 1e-12
        d2 = synthesize(ch * -(g.k**2))
        assert np.max(np.abs(d2 + k0**2 * np.sin(k0 * g.x))) < 1e-11

    def test_derivative_matches_finite_differences(self):
        g = grid40(512)
        f = RealField(g, np.exp(-g.x**2 / 8.0))
        d = synthesize(spectrum(f.values) * g.ik)
        fd = (np.roll(f.values, -1) - np.roll(f.values, 1)) / (2 * g.dx)
        # centered differences are 2nd order; spectral is the reference
        assert np.max(np.abs(d - fd)) < 1e-3
        g2 = grid40(1024)
        f2 = RealField(g2, np.exp(-g2.x**2 / 8.0))
        fd2 = (np.roll(f2.values, -1) - np.roll(f2.values, 1)) / (2 * g2.dx)
        err1 = np.max(np.abs(d - fd))
        err2 = np.max(np.abs(synthesize(spectrum(f2.values) * g2.ik) - fd2))
        assert err1 / err2 > 3.5  # ~4x per halving


# deterministic and small, so the property tests stay in the fast suite
LAYER = settings(derandomize=True, max_examples=20, deadline=None)
GRIDS = st.builds(
    Grid1D, st.sampled_from([math.pi, 10.0, 40.0]), st.sampled_from([16, 64, 256, 1024])
)


class TestLayerProperties:
    @LAYER
    @given(data=st.data(), n=st.sampled_from([16, 64, 256, 1024]))
    def test_synthesize_inverts_spectrum(self, data, n):
        v = data.draw(
            arrays(np.float64, n, elements=st.floats(-1e6, 1e6, allow_subnormal=False))
        )
        back = synthesize(spectrum(v))
        assert np.max(np.abs(back - v)) <= 1e-13 * max(1.0, np.max(np.abs(v)))

    @LAYER
    @given(grid=GRIDS, seed=st.integers(0, 2**32 - 1), frac=st.floats(0.05, 1.0))
    def test_helmholtz_inverse_undoes_operator(self, grid, seed, frac):
        f = random_band_limited(grid, np.random.default_rng(seed), frac=frac)
        back = helmholtz_inverse(apply_one_minus_dxx(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12

    @LAYER
    @given(grid=GRIDS, a=st.floats(-1e3, 1e3), order=st.sampled_from([1, 3]))
    def test_odd_derivative_of_nyquist_mode_is_zero(self, grid, a, order):
        assert grid.ik[grid.n // 2] == 0.0
        d = synthesize(spectrum(a * (-1.0) ** np.arange(grid.n)) * grid.ik**order)
        assert np.max(np.abs(d)) <= 1e-12 * abs(a)

    @LAYER
    @given(
        data=st.data(),
        grid=GRIDS,
        dc=st.floats(-1e3, 1e3),
        nyq=st.floats(-1e3, 1e3),
    )
    def test_power_sums_to_l2_squared(self, data, grid, dc, nyq):
        # DC and Nyquist count once, interior modes twice (Grid1D.weight)
        v = data.draw(
            arrays(np.float64, grid.n, elements=st.floats(-1e3, 1e3, allow_subnormal=False))
        )
        f = RealField(grid, v + dc + nyq * (-1.0) ** np.arange(grid.n))
        l2sq = lp_norm(f, 2.0) ** 2
        assert abs(coefficient_power(grid, spectrum(f.values)).sum() - l2sq) <= 1e-12 * l2sq


class TestHelmholtz:
    def test_inverse_of_operator(self):
        g = grid40(256)
        rng = np.random.default_rng(11)
        f = random_band_limited(g, rng)
        ch = spectrum(f.values) * (1.0 + g.k**2)
        forward = RealField(g, synthesize(ch))
        assert np.max(np.abs(helmholtz_inverse(forward).values - f.values)) < 1e-12

    def test_kernel_normalization(self):
        # G integrates to one, so convolving a constant reproduces it
        g = grid40(1024)
        one = RealField(g, np.ones(g.n))
        assert np.max(np.abs(green_convolve(one).values - 1.0)) < 1e-10

    def test_kernel_positive_even(self):
        g = grid40(256)
        kern = periodized_kernel(g)
        assert np.all(kern > 0)
        # even about the left edge's mirror: kern(x) = kern(-x)
        assert np.max(np.abs(kern[1:] - kern[1:][::-1])) < 1e-15

    def test_green_matches_spectral_inverse(self):
        g = Grid1D(40.0, 4096)
        rng = np.random.default_rng(23)
        env = np.exp(-(g.x**2) / (2 * 6.0**2))
        worst = 0.0
        for _ in range(5):
            f = random_band_limited(g, rng)
            f = RealField(g, f.values * env)
            a = green_convolve(f)
            b = helmholtz_inverse(f)
            rel = lp_norm(RealField(g, a.values - b.values), 2.0) / lp_norm(b, 2.0)
            worst = max(worst, rel)
        assert worst < 1e-8

    def test_decay_guard_rejects_wrapping_data(self):
        g = grid40(256)
        with pytest.raises(ConfigError):
            check_domain_decay(RealField(g, np.ones(g.n)))
        check_domain_decay(RealField(g, np.exp(-g.x**2)))  # fine


class TestNorms:
    def test_parseval(self):
        g = grid40(256)
        rng = np.random.default_rng(17)
        f = RealField(g, rng.standard_normal(256))
        direct = math.sqrt(np.sum(f.values**2) * g.dx)
        assert lp_norm(f, 2.0) == pytest.approx(direct, rel=1e-14)
        ch = np.fft.fft(f.values)
        spectral = math.sqrt(np.sum(np.abs(ch) ** 2) * g.dx / g.n)
        assert lp_norm(f, 2.0) == pytest.approx(spectral, rel=1e-12)

    def test_single_mode_sobolev_closed_form(self):
        g = grid40(256)
        for m, s in ((1, 0.5), (4, 1.0), (9, 1.5), (2, -0.5)):
            k0 = m * math.pi / g.L
            f = RealField(g, np.sin(k0 * g.x))
            expect = math.sqrt(g.L * (1.0 + k0**2) ** s)
            assert sobolev_norm(f, s) == pytest.approx(expect, rel=1e-12)

    def test_s_zero_equals_l2_to_roundoff(self):
        g = grid40(512)
        rng = np.random.default_rng(29)
        f = RealField(g, rng.standard_normal(512))
        assert sobolev_norm(f, 0.0) == pytest.approx(lp_norm(f, 2.0), rel=1e-13)

    def test_peakon_energy_closed_form(self):
        g = Grid1D(40.0, 4096)
        for c in (1.0, 2.5):
            u = peakon_field(g, 0.0, c)
            assert sobolev_norm(u, 1.0) ** 2 == pytest.approx(
                c * c / 12.0, rel=1e-5
            )

    def test_peakon_h32_frozen_oracle(self):
        g = Grid1D(40.0, 4096)
        u = peakon_field(g, 0.0, 1.0)
        assert sobolev_norm(u, 1.5) == pytest.approx(PEAKON_H32_LINE, rel=1e-3)

    def test_lp_special_cases(self):
        g = grid40(128)
        # half-cell shift keeps the sign wave's zeros off the grid nodes
        f = RealField(g, np.sign(np.sin(math.pi * (g.x + g.dx / 2) / g.L)))
        assert lp_norm(f, math.inf) == pytest.approx(1.0)
        assert lp_norm(f, 1.0) == pytest.approx(2 * g.L, rel=1e-12)
        with pytest.raises(ConfigError):
            lp_norm(f, 0.5)

    @pytest.mark.parametrize(
        "node", [None, 0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, "zeros", "negzeros"]
    )
    def test_sup_norm_matches_max_abs_bitwise(self, node):
        # the sup norm every caller takes through lp_norms, against the
        # hand-written max|v|, in all 8 bytes: signed zeros, NaN and inf
        # are where two ways of taking a maximum could part
        g = grid40(64)
        v = np.random.default_rng(53).standard_normal(g.n)
        if node == "zeros":
            v = np.zeros(g.n)
        elif node == "negzeros":
            v = np.full(g.n, -0.0)
        elif node is not None:
            v[17] = node
        want = np.float64(np.max(np.abs(v))).tobytes()
        assert np.float64(lp_norms(g, v, np.inf)).tobytes() == want

    def test_norm_scaling_homogeneity(self):
        g = grid40(128)
        rng = np.random.default_rng(31)
        f = random_band_limited(g, rng)
        g3 = RealField(g, 3.0 * f.values)
        for s in (0.5, 1.5):
            assert sobolev_norm(g3, s) == pytest.approx(
                3.0 * sobolev_norm(f, s), rel=1e-13
            )


class TestDealiasRefine:
    def test_mask_cuts_top_third(self):
        g = grid40(256)
        mask = _kernel(g).mask
        kept = np.abs(g.k[mask]).max()
        dropped = np.abs(g.k[~mask]).min()
        assert kept <= (2.0 / 3.0) * g.nyquist < dropped

    def test_refine_preserves_band_limited_values(self):
        g = grid40(128)
        rng = np.random.default_rng(41)
        f = random_band_limited(g, rng)
        fine = RealField(grid40(256), refine_values(f.values))
        # coarse nodes are every second fine node
        assert np.max(np.abs(fine.values[::2] - f.values)) < 1e-12
        for s in (0.0, 1.0):
            assert sobolev_norm(fine, s) == pytest.approx(
                sobolev_norm(f, s), rel=1e-12
            )

    @pytest.mark.parametrize("n", [16, 128, 1024])
    def test_refine_keeps_nyquist_content(self, n):
        rng = np.random.default_rng(43)
        for vals in (0.3 + (-1.0) ** np.arange(n), rng.standard_normal(n)):
            assert np.max(np.abs(refine_values(vals)[::2] - vals)) <= 1e-12


class TestRandomCorpus:
    def test_deterministic_under_seed(self):
        g = grid40(128)
        a = random_band_limited(g, np.random.default_rng(99))
        b = random_band_limited(g, np.random.default_rng(99))
        assert np.array_equal(a.values, b.values)

    def test_band_limited_and_normalized(self):
        g = grid40(256)
        f = random_band_limited(g, np.random.default_rng(7), frac=1.0 / 3.0)
        ch = spectrum(f.values)
        outside = np.abs(g.k) > g.nyquist / 3.0 + 1e-12
        assert np.max(np.abs(ch[outside])) < 1e-10 * g.n
        assert np.max(np.abs(f.values)) == pytest.approx(1.0, rel=1e-12)


def draw_one(grid, rng, frac, decay):
    """One field drawn the way a per-field loop drew a corpus: the
    reference the stacked draw must reproduce bit for bit."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    ch = np.zeros(grid.n, dtype=complex)
    mask = (np.abs(k) <= frac * grid.nyquist) & (k != 0.0)
    nm = int(mask.sum())
    ch[mask] = rng.standard_normal(nm) + 1j * rng.standard_normal(nm)
    ch *= (1.0 + k**2) ** (-decay / 2.0)
    half = grid.n // 2
    folded = 0.5 * (ch[: half + 1] + np.conj(ch[-np.arange(half + 1)]))
    folded[half] = 0.0
    vals = np.fft.irfft(folded)
    m = np.max(np.abs(vals))
    if m > 0:
        vals *= 1.0 / m
    return vals


def draw_full_fold(grid, rng, count, frac, decay):
    """A stack drawn on the full +-k frequency list and folded through a
    conjugate copy of its -k half: the reference the half-spectrum draw
    must reproduce bit for bit."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    ch = np.zeros((count, grid.n), dtype=complex)
    mask = (np.abs(k) <= frac * grid.nyquist) & (k != 0.0)
    z = rng.standard_normal((count, 2, int(mask.sum())))
    ch.real[:, mask] = z[:, 0]
    ch.imag[:, mask] = z[:, 1]
    ch *= (1.0 + k**2) ** (-decay / 2.0)
    half = grid.n // 2
    folded = 0.5 * (ch[:, : half + 1] + np.conj(ch[:, -np.arange(half + 1)]))
    folded[:, half] = 0.0
    vals = np.fft.irfft(folded)
    m = lp_norms(grid, vals, np.inf)[:, None]
    vals *= np.divide(1.0, m, out=np.ones_like(m), where=m > 0)
    return vals


class TestStackedDraw:
    # (16, 2, 1, 2) puts Nyquist inside the band: its normals are drawn and
    # then dropped
    @pytest.mark.parametrize(
        "n, count, frac, decay",
        [(512, 100, 0.33, 2.0), (64, 7, 1.0, 1.0), (1024, 3, 0.5, 3.0), (16, 2, 1.0, 2.0)],
    )
    def test_matches_full_spectrum_fold(self, n, count, frac, decay):
        g = grid40(n)
        for make in (np.random.default_rng, SeededNormals):
            stack = random_band_limited_values(g, make(17), count, frac, decay)
            ref = draw_full_fold(g, make(17), count, frac, decay)
            assert stack.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [64, 512, 4096])
    @pytest.mark.parametrize("count", [1, 3, 100])
    @pytest.mark.parametrize("frac", ["2/n", 0.33, 1.0])
    def test_matches_per_field_loop(self, n, count, frac):
        g = grid40(n)
        frac = 2.0 / n if frac == "2/n" else frac
        for make in (np.random.default_rng, SeededNormals):
            for seed, decay in ((5, 2.0), (11, 0.0)):
                stack = random_band_limited_values(g, make(seed), count, frac, decay)
                rng = make(seed)
                loop = np.array([draw_one(g, rng, frac, decay) for _ in range(count)])
                assert np.array_equal(stack, loop)

    def test_one_field_is_the_one_row_stack(self):
        g = grid40(256)
        f = random_band_limited(g, np.random.default_rng(3), frac=0.2, decay=1.0)
        stack = random_band_limited_values(g, np.random.default_rng(3), 1, 0.2, 1.0)
        assert np.array_equal(f.values, stack[0])


class TestSeededNormals:
    # the first two Box-Muller pairs; a change here re-draws every seeded corpus
    @pytest.mark.parametrize(
        "seed, first",
        [
            (0, [1.065591144534257, -0.8787863679839957, 2.4731358300624136,
                 -0.5452313572258755]),
            (2**70, [-0.3193042817223426, 0.02083673535919891, 0.6406938060842314,
                     0.11373358733010328]),
        ],
    )
    def test_golden_first_draws(self, seed, first):
        np.testing.assert_allclose(SeededNormals(seed).standard_normal(4), first, rtol=1e-14)

    def test_successive_draws_continue_one_stream(self):
        s = SeededNormals(3)
        parts = [s.standard_normal(3), s.standard_normal((2, 2)).ravel()]
        assert np.array_equal(np.concatenate(parts), SeededNormals(3).standard_normal(7))
        assert SeededNormals(3).standard_normal((2, 0)).shape == (2, 0)

    def test_two_seeds_are_uncorrelated(self):
        n = 10**4
        a, b = SeededNormals(7).standard_normal(n), SeededNormals(8).standard_normal(n)
        assert abs(np.corrcoef(a, b)[0, 1]) < 5.0 / math.sqrt(n)

    def test_moments_are_standard_normal(self):
        n = 10**5
        z = SeededNormals(1).standard_normal(n)
        assert np.all(np.isfinite(z))
        # standard errors of the mean, variance and excess kurtosis
        assert abs(z.mean()) < 5.0 / math.sqrt(n)
        assert abs(z.var() - 1.0) < 5.0 * math.sqrt(2.0 / n)
        kurt = np.mean((z - z.mean()) ** 4) / z.var() ** 2 - 3.0
        assert abs(kurt) < 5.0 * math.sqrt(24.0 / n)

    @pytest.mark.parametrize("byte", [0x00, 0xFF])
    def test_extreme_bits_stay_finite(self, byte):
        # all-zero bits give u = 2^-53 and all-one bits u = 1: ln(0) never occurs
        s = SeededNormals(0)
        s._bits.randbytes = lambda n: bytes([byte]) * n
        z = s.standard_normal(6)
        assert np.all(np.isfinite(z))
        assert np.max(np.abs(z)) <= math.sqrt(2.0 * 53.0 * math.log(2.0))


class TestLineFit:
    @pytest.mark.parametrize(
        "x",
        [np.arange(5.0), 6e-4 + 2e-6 * np.arange(20)],
        ids=["unit-steps", "blowup-window"],
    )
    def test_recovers_an_exact_line(self, x):
        slope, intercept = -2.5e3, 3.0
        got = line_fit(x, intercept + slope * x)
        assert got[0] == pytest.approx(slope, rel=1e-12)
        assert got[1] == pytest.approx(intercept, rel=1e-12)

    @LAYER
    @given(
        data=st.data(),
        x=st.lists(st.integers(-1000, 1000), min_size=3, max_size=50, unique=True),
        a=st.floats(-1e3, 1e3),
        b=st.floats(-1e3, 1e3),
    )
    def test_agrees_with_polyfit(self, data, x, a, b):
        # numpy's least-squares fit is the oracle here only; src never calls it
        x = np.array(x) / 8.0
        noise = data.draw(arrays(np.float64, x.size, elements=st.floats(-1.0, 1.0)))
        y = a + b * x + noise
        slope, intercept = line_fit(x, y)
        ref_slope, ref_intercept = np.polyfit(x, y, 1)
        scale = np.max(np.abs(y))
        assert abs(slope - ref_slope) <= 1e-9 * (abs(ref_slope) + scale / np.ptp(x))
        assert abs(intercept - ref_intercept) <= 1e-9 * (abs(ref_intercept) + scale)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x", [[], [2.0], [0.1, 0.1, 0.1]])
    def test_needs_two_distinct_abscissae(self, x):
        with pytest.raises(EstimationError, match="two distinct abscissae"):
            line_fit(x, np.ones(len(x)))


class TestLayerBoundary:
    def test_only_fields_calls_numpy_fft(self):
        # one transform layer: the coefficient layout is known to fields.py alone
        pattern = re.compile(
            r"\b(?:numpy|np)\.fft\b|from\s+numpy\s+import\s+(?:\([^)]*|[^\n]*)\bfft\b"
        )
        src = Path(gchlab.__file__).parent
        offenders = [
            p.name
            for p in sorted(src.glob("*.py"))
            if p.name != "fields.py" and pattern.search(p.read_text())
        ]
        assert not offenders

    def test_no_module_calls_blas_or_lapack(self):
        # every line fit is line_fit and every product an elementwise or
        # einsum loop, so no figure depends on the BLAS kernels numpy loads
        pattern = re.compile(r"polyfit|linalg|lstsq|np\.(?:dot|matmul|inner|tensordot|vdot)| @ ")
        src = Path(gchlab.__file__).parent
        offenders = [
            f"{p.name}:{i}"
            for p in sorted(src.glob("*.py"))
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if pattern.search(line)
        ]
        assert not offenders
