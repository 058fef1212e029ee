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
from gchlab import (
    ConfigError,
    Grid1D,
    RealField,
    derivative,
    green_convolve,
    helmholtz_inverse,
    lp_norm,
    peakon_field,
    random_band_limited,
    refine_field,
    sobolev_norm,
    spectrum,
    synthesize,
)
from gchlab.fields import (
    apply_one_minus_dxx,
    check_domain_decay,
    dealias_mask,
    periodized_kernel,
    power,
)

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
        f = RealField(g, np.sin(k0 * g.x))
        d1 = derivative(f, 1)
        assert np.max(np.abs(d1.values - k0 * np.cos(k0 * g.x))) < 1e-12
        d2 = derivative(f, 2)
        assert np.max(np.abs(d2.values + k0**2 * np.sin(k0 * g.x))) < 1e-11

    def test_derivative_matches_finite_differences(self):
        g = grid40(512)
        f = RealField(g, np.exp(-g.x**2 / 8.0))
        d = derivative(f, 1).values
        fd = (np.roll(f.values, -1) - np.roll(f.values, 1)) / (2 * g.dx)
        # centered differences are 2nd order; spectral is the reference
        assert np.max(np.abs(d - fd)) < 1e-3
        g2 = grid40(1024)
        f2 = RealField(g2, np.exp(-g2.x**2 / 8.0))
        fd2 = (np.roll(f2.values, -1) - np.roll(f2.values, 1)) / (2 * g2.dx)
        err1 = np.max(np.abs(d - fd))
        err2 = np.max(np.abs(derivative(f2, 1).values - fd2))
        assert err1 / err2 > 3.5  # ~4x per halving

    def test_derivative_rejects_bad_order(self):
        f = RealField(grid40(64), np.zeros(64))
        with pytest.raises(ConfigError):
            derivative(f, 0)
        with pytest.raises(ConfigError):
            derivative(f, -1)


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
        f = RealField(grid, a * (-1.0) ** np.arange(grid.n))
        assert np.max(np.abs(derivative(f, order).values)) <= 1e-12 * abs(a)

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
        assert abs(power(f).sum() - l2sq) <= 1e-12 * l2sq


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

    def test_s_zero_equals_l2_exactly(self):
        g = grid40(512)
        rng = np.random.default_rng(29)
        f = RealField(g, rng.standard_normal(512))
        assert sobolev_norm(f, 0.0) == lp_norm(f, 2.0)

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
        mask = dealias_mask(g)
        kept = np.abs(g.k[mask]).max()
        dropped = np.abs(g.k[~mask]).min()
        assert kept <= (2.0 / 3.0) * g.nyquist < dropped

    def test_refine_preserves_band_limited_values(self):
        g = grid40(128)
        rng = np.random.default_rng(41)
        f = random_band_limited(g, rng)
        fine = refine_field(f)
        assert fine.grid.n == 256
        # coarse nodes are every second fine node
        assert np.max(np.abs(fine.values[::2] - f.values)) < 1e-12
        for s in (0.0, 1.0):
            assert sobolev_norm(fine, s) == pytest.approx(
                sobolev_norm(f, s), rel=1e-12
            )

    @pytest.mark.parametrize("n", [16, 128, 1024])
    def test_refine_keeps_nyquist_content(self, n):
        g = grid40(n)
        rng = np.random.default_rng(43)
        for vals in (0.3 + (-1.0) ** np.arange(n), rng.standard_normal(n)):
            f = RealField(g, vals)
            assert np.max(np.abs(refine_field(f).values[::2] - f.values)) <= 1e-12


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
