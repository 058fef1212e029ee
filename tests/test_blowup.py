"""Breakdown conditions, the comparison ODE, and pole-time estimation."""

import math

import numpy as np
import pytest

from gchlab.blowup import (
    accumulator_shape,
    check_condition,
    estimate_blowup_time,
    rate_report,
    riccati_bound_time,
    riccati_solve,
)
from gchlab.errors import ConfigError, EstimationError
from gchlab.fields import Grid1D, RealField, sobolev_norm

# closed-form divergence times t* = -(1/2C) log((w0+C)/(w0-C))
T_STAR_1_2 = 0.5493061443340549  # C=1, w0=-2: (1/2) log 3
T_STAR_2_4 = 0.27465307216702745  # C=2, w0=-4: (1/4) log 3


def steep_gaussian(A=0.5, delta=0.025, L=5.0, n=4096):
    g = Grid1D(L, n)
    return RealField(g, A * np.exp(-(g.x**2) / (2 * delta**2)))


class TestHorizonConstant:
    def test_matches_direct_norms(self):
        u0 = steep_gaussian(n=1024)
        T = 0.05
        rep = check_condition(u0, T)
        h1 = sobolev_norm(u0, 1.0)
        h32 = sobolev_norm(u0, 1.5)
        bracket = 54.0 * T * h1 * h1 + 6.0 * h32
        assert rep.C_T == pytest.approx(4.0 * bracket, rel=1e-14)
        assert rep.C_tilde_T == pytest.approx(2.0 * math.sqrt(2.0) * bracket, rel=1e-14)
        assert rep.C_tilde_T < rep.C_T

    def test_horizon_must_be_positive(self):
        with pytest.raises(ConfigError):
            check_condition(steep_gaussian(n=1024), 0.0)


class TestRiccati:
    def test_bound_time_closed_forms(self):
        assert riccati_bound_time(-2.0, 1.0) == pytest.approx(T_STAR_1_2, rel=1e-15)
        assert riccati_bound_time(-4.0, 2.0) == pytest.approx(T_STAR_2_4, rel=1e-15)

    def test_scaling_symmetry(self):
        # w0 -> s w0, C -> s C contracts time by s
        t1 = riccati_bound_time(-3.0, 1.5)
        t2 = riccati_bound_time(-30.0, 15.0)
        assert t2 == pytest.approx(t1 / 10.0, rel=1e-13)

    def test_numerical_matches_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            C = float(10.0 ** rng.uniform(-1.0, 2.0))
            w0 = -C * float(1.0 + 10.0 ** rng.uniform(-0.5, 1.5))
            traj = riccati_solve(w0, C)
            exact = riccati_bound_time(w0, C)
            assert abs(traj.divergence_time - exact) / exact < 1e-8

    def test_trajectory_is_monotone(self):
        traj = riccati_solve(-2.0, 1.0)
        assert np.all(np.diff(traj.w) < 0)
        assert traj.w[-1] <= -1e8

    def test_preconditions(self):
        with pytest.raises(ConfigError):
            riccati_bound_time(-1.0, 2.0)  # w0 > -C
        with pytest.raises(ConfigError):
            riccati_bound_time(-1.0, 0.0)
        with pytest.raises(ConfigError):
            riccati_solve(-1.0, 1.0)  # boundary case w0 = -C


class TestCondition:
    def test_steep_data_triggers_both_conditions(self):
        u0 = steep_gaussian()
        rep = check_condition(u0, T=0.05)
        # min of A exp(-x^2/2 d^2) second derivative is -A/d^2 at the center
        assert rep.w_curvature == pytest.approx(-800.0, rel=1e-3)
        assert rep.verdict
        assert rep.bound_time is not None
        assert rep.bound_time_curvature is not None
        assert rep.bound_time_variant is not None
        assert rep.self_consistent
        assert rep.bound_time <= 0.05
        # mixed datum starts lower, so its pole bound comes sooner
        assert rep.w_mixed < rep.w_curvature
        assert rep.bound_time < rep.bound_time_curvature

    def test_shallow_data_triggers_nothing(self):
        g = Grid1D(5.0, 1024)
        u0 = RealField(g, 0.01 * np.exp(-(g.x**2) / 2.0))
        rep = check_condition(u0, T=0.05)
        assert not rep.verdict
        assert rep.bound_time is None
        assert rep.bound_time_curvature is None
        assert rep.bound_time_variant is None
        assert not rep.self_consistent


class TestEstimation:
    def synth(self, T=0.01, n=200, t_end_frac=0.98):
        # exact -1/2 rate: min u_xx = -1/(2 (T - t))
        t = np.linspace(0.0, t_end_frac * T, n)
        return t, -0.5 / (T - t)

    def test_recovers_synthetic_pole(self):
        T = 0.01
        t, cm = self.synth(T)
        est = estimate_blowup_time(t, cm, window=20, ceiling=-100.0)
        assert est.T_est == pytest.approx(T, rel=1e-10)
        assert est.residual_rms < 1e-12

    def test_ceiling_discards_preasymptotic_samples(self):
        T = 0.01
        t, cm = self.synth(T)
        cm = cm.copy()
        cm[:40] = -30.0  # flat early phase would wreck the fit
        est = estimate_blowup_time(t, cm, window=20, ceiling=-100.0)
        assert est.T_est == pytest.approx(T, rel=1e-8)

    def test_fit_reads_only_the_last_window(self):
        # the last 20 of 40 samples lie on 1/min u_xx = b (t - T); the first
        # 20 sit up to 1% off it, so a window that reaches back even one
        # sample misses T (a window 5 samples early reads 7.5e-4 relative)
        T, b = 6.25e-4, 2.0
        t = 1.5e-5 * np.arange(40)
        cm = 1.0 / (b * (t - T))
        cm[:20] *= 1.0 + 0.01 * np.sin(np.arange(20))
        est = estimate_blowup_time(t, cm, window=20, ceiling=-1.0)
        assert est.T_est == pytest.approx(T, rel=1e-12)

    def test_short_window_rejected(self):
        t, cm = self.synth()
        with pytest.raises(EstimationError):
            estimate_blowup_time(t[:10], cm[:10], window=20, ceiling=-1.0)

    def test_non_monotone_rejected(self):
        t, cm = self.synth()
        cm = cm.copy()
        cm[-5] = cm[-6] + 1.0
        with pytest.raises(EstimationError):
            estimate_blowup_time(t, cm, window=20, ceiling=-100.0)

    def test_bounded_series_rejected(self):
        # decreasing but leveling off: reciprocal slope goes the wrong way
        t = np.linspace(0.0, 1.0, 50)
        cm = -10.0 - np.exp(-t)
        with pytest.raises(EstimationError):
            estimate_blowup_time(t, cm, window=20, ceiling=-1.0)


class TestRate:
    def test_exact_rate_products(self):
        T = 0.01
        t = np.linspace(0.0, 0.98 * T, 200)
        cm = -0.5 / (T - t)
        sm = -3.0 - t  # bounded slope minimum
        rep = rate_report(t, cm, sm, T, 20)
        assert rep.window_mean == pytest.approx(-0.5, rel=1e-12)
        assert np.all(np.abs(rep.curvature_products + 0.5) < 1e-10)
        assert rep.companion_vanishes  # |sm (T-t)| -> 0 as t -> T
        assert rep.slope_product_trend < 0

    def test_window_validation(self):
        t = np.linspace(0.0, 0.5, 10)
        with pytest.raises(ConfigError):
            rate_report(t, -1.0 / (1.0 - t), np.zeros(10), 1.0, 2)
        with pytest.raises(EstimationError):
            rate_report(t, -1.0 / (1.0 - t), np.zeros(10), 0.3, 5)


class TestAccumulator:
    def test_linear_growth(self):
        t = np.linspace(0.0, 1.0, 30)
        assert accumulator_shape(t, 2.5 * t) == pytest.approx(1.0, rel=1e-12)

    def test_superlinear_growth(self):
        T = 1.05
        t = np.linspace(0.0, 1.0, 60)
        B = -np.log(T - t) + np.log(T)  # integral of 1/(T-t)
        assert accumulator_shape(t, B) > 3.0

    def test_needs_enough_samples(self):
        with pytest.raises(EstimationError):
            accumulator_shape(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
