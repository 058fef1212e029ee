"""Exact travelling wave, test functions, and the weak-form quadrature."""

import math
import tracemalloc

import numpy as np
import pytest

from gchlab import peakon
from gchlab.config import parse_config
from gchlab.errors import ConfigError
from gchlab.fields import Grid1D
from gchlab.peakon import (
    PeakonSolution,
    TestFunction,
    peakon_energy,
    peakon_field,
    peakon_u,
    peakon_w,
    refinement_study,
    weak_residual,
)

L = 40.0


class ZeroProvider:
    def u(self, t, x):
        return np.zeros_like(x)

    def w(self, t, x):
        return np.zeros_like(x)

    def crest(self, t):
        return None


def line_loop_residual(provider, phi, T, nx, nt, crest_split):
    """Reference: the weak residual one time line at a time."""
    a, b = phi.support
    ts = np.linspace(0.0, T, nt + 1)
    lines, ends = np.empty(nt + 1), []
    for i, t in enumerate(ts):
        xs = np.linspace(a, b, nx + 1)
        crest = provider.crest(t) if crest_split else None
        if crest is not None and a < crest < b:
            xs = np.sort(np.append(xs, crest))
        bv, b1, b2 = phi.bump(xs)
        P, Pt = phi.time_factor(t)
        w = provider.w(t, xs)
        ub = provider.u(t, xs) * (bv - b2)
        lines[i] = np.trapezoid(Pt * ub + P * w * w * (b2 - 2.0 * b1), xs)
        if i in (0, nt):
            ends.append(P * np.trapezoid(ub, xs))
    return abs(float(np.trapezoid(lines, ts)) - float(ends[1] - ends[0]))


class TestWaveProfile:
    def test_crest_value_and_one_sided_slopes(self):
        c = 1.3
        u0 = peakon_u(np.array([0.0]), 0.0, c, L)[0]
        assert u0 == pytest.approx(-c / 6.0, rel=1e-14)
        h = 1e-7
        right = (peakon_u(np.array([h]), 0.0, c, L)[0] - u0) / h
        left = (u0 - peakon_u(np.array([-h]), 0.0, c, L)[0]) / h
        assert right == pytest.approx(c / 6.0, abs=1e-6)
        assert left == pytest.approx(c / 6.0, abs=1e-6)

    def test_trough_sits_behind_the_crest(self):
        c = 2.0
        xi_star = math.log(0.75)
        u_star = peakon_u(np.array([xi_star]), 0.0, c, L)[0]
        assert u_star == pytest.approx(-3.0 * c / 16.0, rel=1e-14)
        xs = np.linspace(-10.0, 10.0, 20001)
        vals = peakon_u(xs, 0.0, c, L)
        assert np.min(vals) >= u_star - 1e-12
        assert u_star < -c / 6.0

    def test_w_is_two_u_minus_slope(self):
        c = 0.7
        h = 1e-5
        xs = np.linspace(-8.0, 8.0, 37)
        xs = xs[np.abs(xs) > 0.1]  # keep the FD stencil off the kink
        ux = (peakon_u(xs + h, 0.0, c, L) - peakon_u(xs - h, 0.0, c, L)) / (2 * h)
        w_fd = 2.0 * peakon_u(xs, 0.0, c, L) - ux
        assert np.max(np.abs(w_fd - peakon_w(xs, 0.0, c, L))) < 1e-9

    def test_momentum_is_curvature_defect(self):
        c = 0.9
        h = 1e-4
        xs = np.linspace(-6.0, -0.5, 23)
        up = peakon_u(xs + h, 0.0, c, L)
        u0 = peakon_u(xs, 0.0, c, L)
        um = peakon_u(xs - h, 0.0, c, L)
        m_fd = u0 - (up - 2 * u0 + um) / h**2
        # behind the crest m = u - u_xx is -c e^{2 xi} (module docstring)
        assert np.max(np.abs(m_fd + c * np.exp(2.0 * xs))) < 1e-6

    def test_translation_covariance(self):
        c, t = 1.4, 31.0  # c*t wraps around the box
        xs = np.linspace(-L, L, 413, endpoint=False)
        a = peakon_u(xs, t, c, L)
        b = peakon_u(xs - c * t, 0.0, c, L)
        assert np.max(np.abs(a - b)) < 1e-14

    def test_speed_guards(self):
        xs = np.zeros(3)
        with pytest.raises(ConfigError):
            peakon_u(xs, 0.0, 0.0, L)
        with pytest.raises(ConfigError):
            peakon_u(xs, 0.0, -1.0, L)
        with pytest.raises(ConfigError):
            peakon_field(Grid1D(L, 64), 0.0, -2.0)
        with pytest.raises(ConfigError):
            PeakonSolution(-1.0, L)

    def test_energy_scaling(self):
        assert peakon_energy(1.0) == pytest.approx(1.0 / 12.0)
        assert peakon_energy(-3.0) == pytest.approx(9.0 / 12.0)

    def test_crest_wraps(self):
        sol = PeakonSolution(1.0, L)
        assert sol.crest(2.0) == pytest.approx(2.0)
        assert sol.crest(L + 1.0) == pytest.approx(1.0 - L)
        assert np.allclose(sol.crest(np.array([2.0, L + 1.0])), [2.0, 1.0 - L])


class TestTestFunction:
    def test_derivatives_match_finite_differences(self):
        phi = TestFunction(0.5, 1.5, poly=(1.0, 0.5, -0.25, 0.125))
        xs = np.linspace(-0.8, 1.7, 17)
        t, h = 0.4, 1e-6

        def dx_phi(t, x, order):  # x-derivative of phi = P b of the given order
            return phi.time_factor(t)[0] * phi.bump(x)[order]

        def dt_dx_phi(order):  # the same with P' for P, at (t, xs)
            return phi.time_factor(t)[1] * phi.bump(xs)[order]

        fd_x = (dx_phi(t, xs + h, 0) - dx_phi(t, xs - h, 0)) / (2 * h)
        assert np.max(np.abs(fd_x - dx_phi(t, xs, 1))) < 1e-5
        fd_xx = (dx_phi(t, xs + h, 0) - 2 * dx_phi(t, xs, 0) + dx_phi(t, xs - h, 0)) / h**2
        assert np.max(np.abs(fd_xx - dx_phi(t, xs, 2))) < 1e-3
        fd_t = (dx_phi(t + h, xs, 0) - dx_phi(t - h, xs, 0)) / (2 * h)
        assert np.max(np.abs(fd_t - dt_dx_phi(0))) < 1e-8
        fd_tx = (dx_phi(t + h, xs, 1) - dx_phi(t - h, xs, 1)) / (2 * h)
        assert np.max(np.abs(fd_tx - dt_dx_phi(1))) < 1e-7
        fd_txx = (dx_phi(t + h, xs, 2) - dx_phi(t - h, xs, 2)) / (2 * h)
        assert np.max(np.abs(fd_txx - dt_dx_phi(2))) < 1e-6

    def test_support_is_compact(self):
        phi = TestFunction(2.0, 0.5)
        assert phi.support == (1.5, 2.5)
        xs = np.array([1.5, 2.5, 0.0, 3.0, -10.0])
        for b in phi.bump(xs):
            assert np.all(b == 0.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            TestFunction(0.0, 0.0)
        with pytest.raises(ConfigError):
            TestFunction(0.0, 1.0, poly=(1.0, 2.0))

    @pytest.mark.parametrize("sigma", [1e-17, 6e-154, -1.0])
    def test_support_must_not_collapse_onto_its_center(self, sigma):
        # x0 +- sigma rounds to x0 = 0.5, and every node would sit on x0
        with pytest.raises(ConfigError, match=f"sigma = {sigma!r} .* x0 = 0.5"):
            TestFunction(0.5, sigma)
        assert TestFunction(0.0, 1e-17).support == (-1e-17, 1e-17)


class TestWeakResidual:
    def test_zero_solution_zero_residual(self):
        phi = TestFunction(0.0, 2.0)
        assert weak_residual(ZeroProvider(), phi, T=1.0) == 0.0

    def test_exact_wave_residual_small_and_refining(self):
        sol = PeakonSolution(1.0, L)
        phi = TestFunction(0.5, 1.5, poly=(1.0, 0.5, -0.25, 0.0))
        study = refinement_study(sol, phi, T=1.0, crest_split=True)
        assert study.fitted_order >= 1.5
        assert study.residuals[-1] <= 1e-4
        assert study.residuals[-1] < study.residuals[0]

    def test_crest_split_helps(self):
        sol = PeakonSolution(1.0, L)
        phi = TestFunction(0.5, 1.5)
        plain = weak_residual(sol, phi, T=1.0, nx=64, nt=64, crest_split=False)
        split = weak_residual(sol, phi, T=1.0, nx=64, nt=64, crest_split=True)
        assert split <= plain * 1.5  # never much worse, usually better

    @pytest.mark.parametrize("block_nodes", [peakon.BLOCK_NODES, 300])
    @pytest.mark.parametrize(
        "provider,x0,sigma,T",
        [
            (PeakonSolution(1.0, L), 0.5, 1.5, 1.0),  # crest inside throughout
            (PeakonSolution(1.0, L), 0.5, 1.5, 3.0),  # crest leaves at t = 2
            (PeakonSolution(1.3, 4.0), -2.5, 1.0, 6.0),  # crest wraps in at t = 4.5/1.3
            (ZeroProvider(), 0.0, 2.0, 1.0),  # no crest: never split
        ],
    )
    @pytest.mark.parametrize("crest_split", [False, True])
    def test_blocks_match_the_line_loop(
        self, monkeypatch, block_nodes, provider, x0, sigma, T, crest_split
    ):
        monkeypatch.setattr(peakon, "BLOCK_NODES", block_nodes)
        phi = TestFunction(x0, sigma, poly=(1.0, 0.5, -0.25, 0.125))
        # 201 lines do not fill a whole number of blocks at either size
        for nx, nt in ((32, 32), (64, 200), (256, 44)):
            ref = line_loop_residual(provider, phi, T, nx, nt, crest_split)
            got = weak_residual(provider, phi, T, nx, nt, crest_split)
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-300)

    def test_refinement_memory_is_bounded(self):
        # unblocked, the finest rung's (257, 258) temporaries peak near 6 MB
        rs = parse_config("", "peakon-verify")["residual"]
        phi = TestFunction(rs["x0"], rs["sigma"], (rs["p0"], rs["p1"], rs["p2"], rs["p3"]))
        tracemalloc.start()
        try:
            refinement_study(
                PeakonSolution(1.0, L),
                phi,
                1.0,
                levels=rs["levels"],
                nx0=rs["nx0"],
                nt0=rs["nt0"],
                crest_split=rs["crest_split"],
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_quadrature_validation(self):
        sol = PeakonSolution(1.0, L)
        phi = TestFunction(0.0, 1.0)
        with pytest.raises(ConfigError):
            weak_residual(sol, phi, T=0.0)
        with pytest.raises(ConfigError):
            weak_residual(sol, phi, T=1.0, nx=2)
        with pytest.raises(ConfigError):
            weak_residual(sol, TestFunction(L, 1.0), T=1.0)

    def test_refinement_needs_levels(self):
        sol = PeakonSolution(1.0, L)
        with pytest.raises(ConfigError):
            refinement_study(sol, TestFunction(0.0, 1.0), T=1.0, levels=1)
