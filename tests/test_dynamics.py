"""Solver forms, the coefficient-space step, integrator order, monitors."""

import math

import numpy as np
import pytest

from gchlab import (
    ConfigError,
    DivergedError,
    Grid1D,
    RealField,
    SolverConfig,
    energy,
    evolve,
    helmholtz_inverse,
    lp_norm,
    peakon_field,
    random_band_limited,
    rhs_m_form,
    rhs_spectral_form,
    rhs_u_form,
    sobolev_norm,
    stability_experiment,
    step,
)
from gchlab import dynamics, fields
from gchlab.dynamics import (
    RHS_FORMS,
    SPEED_FLOOR,
    RunReport,
    momentum_coefficients,
    refined_min,
    spectral_tail_fraction,
)
from gchlab.fields import apply_one_minus_dxx, derivative, spectrum, synthesize


def gaussian(grid, A=0.8, width=2.0):
    return RealField(grid, A * np.exp(-(grid.x**2) / (2 * width**2)))


def step_data(n):
    # a smooth field, and a peaked wave whose kink feeds every mode
    if n == 256:
        return gaussian(Grid1D(40.0, n))
    return peakon_field(Grid1D(40.0, n), 0.0, 2.0)


PHYSICAL_RHS = {
    "spectral_form": rhs_spectral_form,
    "m_form": rhs_m_form,
    "u_form": rhs_u_form,
}


class TestRhsForms:
    def test_zero_field_is_fixed_point(self):
        g = Grid1D(40.0, 256)
        z = RealField(g, np.zeros(g.n))
        for rhs in (rhs_spectral_form, rhs_u_form):
            assert np.max(np.abs(rhs(z).values)) == 0.0
        assert np.max(np.abs(rhs_m_form(z).values)) == 0.0

    def test_three_forms_agree_on_band_limited_corpus(self):
        g = Grid1D(40.0, 512)
        rng = np.random.default_rng(61)
        worst = 0.0
        for _ in range(20):
            u = random_band_limited(g, rng)
            a = rhs_spectral_form(u)
            b = helmholtz_inverse(rhs_m_form(apply_one_minus_dxx(u)))
            cfield = rhs_u_form(u)
            scale = lp_norm(a, 2.0)
            for other in (b, cfield):
                gap = lp_norm(RealField(g, a.values - other.values), 2.0)
                worst = max(worst, gap / scale)
        assert worst < 1e-10

    def test_momentum_coefficients_stack_matches_frame_by_frame(self):
        # the Picard ladder transforms all its frames at once; one frame at
        # a time is the reference, equal to float64 round-off
        g = Grid1D(20.0, 1024)
        rng = np.random.default_rng(67)
        stack = np.array([random_band_limited(g, rng).values for _ in range(5)])
        vel, src = momentum_coefficients(g, stack, spectrum(stack))
        for i, m in enumerate(stack):
            v1, s1 = momentum_coefficients(g, m, spectrum(m))
            assert np.max(np.abs(vel[i] - v1)) <= 1e-14 * np.max(np.abs(v1))
            assert np.max(np.abs(src[i] - s1)) <= 1e-14 * np.max(np.abs(s1))

    def test_m_form_step_matches_spectral_step(self):
        # the state map u -> m is linear, so RK4 commutes with it exactly
        g = Grid1D(40.0, 256)
        u0 = gaussian(g)
        dt = 1e-3
        ch = spectrum(u0.values)
        a, _ = step(g, ch, SolverConfig(T=1.0, rhs_form="spectral_form", dt=dt), math.inf)
        b, _ = step(g, ch, SolverConfig(T=1.0, rhs_form="m_form", dt=dt), math.inf)
        gap = np.max(np.abs(synthesize(a) - synthesize(b)))
        assert gap < 1e-11

    def test_rejects_unknown_form(self):
        with pytest.raises(ConfigError):
            SolverConfig(T=1.0, rhs_form="weak_form")


class TestCoefficientStep:
    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("form", RHS_FORMS)
    def test_step_matches_physical_rk4(self, form, n):
        # the oracle: classical RK4 on grid values through the physical
        # wrappers, in m = (1 - dx^2)u for the momentum form
        u0 = step_data(n)
        g = u0.grid
        dt = 1e-3
        start = apply_one_minus_dxx(u0).values if form == "m_form" else u0.values

        def f(v):
            return PHYSICAL_RHS[form](RealField(g, v)).values

        k1 = f(start)
        k2 = f(start + 0.5 * dt * k1)
        k3 = f(start + 0.5 * dt * k2)
        k4 = f(start + dt * k3)
        oracle = start + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if form == "m_form":
            oracle = helmholtz_inverse(RealField(g, oracle)).values
        cfg = SolverConfig(T=1.0, rhs_form=form, dt=dt)
        new, taken = step(g, spectrum(u0.values), cfg, math.inf)
        assert taken == dt
        gap = np.max(np.abs(synthesize(new) - oracle))
        assert gap <= 1e-12 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("form", RHS_FORMS)
    def test_cfl_dt_from_first_stage(self, form, n):
        u0 = step_data(n)
        g = u0.grid
        speed = np.max(np.abs(4.0 * u0.values - 2.0 * derivative(u0, 1).values))
        assert speed > SPEED_FLOOR
        cfg = SolverConfig(T=1.0, rhs_form=form)
        want = cfg.cfl_sigma * g.dx / max(speed, SPEED_FLOOR)
        ch = spectrum(u0.values)
        _, dt = step(g, ch, cfg, math.inf)
        assert dt == pytest.approx(want, rel=1e-13)
        # the time left to the horizon caps the step
        _, capped = step(g, ch, cfg, 0.5 * want)
        assert capped == 0.5 * want


class TestTransformBudget:
    """Transforms the solver makes, counted at the names dynamics calls."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"spectrum": 0, "synthesize": 0}

        def counted(name):
            fn = getattr(fields, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in counts:
            monkeypatch.setattr(dynamics, name, counted(name))

        def forbidden(*args, **kwargs):
            raise AssertionError("grid-value operator called by the solver")

        for name in ("derivative", "helmholtz_inverse", "apply_one_minus_dxx"):
            monkeypatch.setattr(fields, name, forbidden)
            monkeypatch.setattr(dynamics, name, forbidden, raising=False)
        return counts

    @pytest.mark.parametrize(
        "form, budget",
        [
            ("spectral_form", {"spectrum": 4, "synthesize": 4}),
            ("u_form", {"spectrum": 4, "synthesize": 4}),
            ("m_form", {"spectrum": 4, "synthesize": 12}),
        ],
    )
    def test_step_budget(self, calls, form, budget):
        u0 = step_data(256)
        ch = fields.spectrum(u0.values)
        step(u0.grid, ch, SolverConfig(T=1.0, rhs_form=form), math.inf)
        assert calls == budget

    def test_record_makes_one_synthesis(self, calls):
        # the same five steps, recorded at every step or only at both ends
        u0 = step_data(256)
        seen = []
        for every in (1, 10**9):
            calls.update(spectrum=0, synthesize=0)
            rep = evolve(u0, SolverConfig(T=0.05, dt=0.01, monitor_every=every))
            seen.append((len(rep.times), dict(calls)))
        (rec_all, all_calls), (rec_ends, end_calls) = seen
        assert (rec_all, rec_ends) == (6, 2)
        assert all_calls["synthesize"] - end_calls["synthesize"] == rec_all - rec_ends
        assert all_calls["spectrum"] == end_calls["spectrum"]


class TestNonfiniteStop:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("form", RHS_FORMS)
    def test_overflow_stops_cleanly(self, form):
        # a tall bump with a huge fixed step leaves floating point in a few
        # steps; a tail threshold above 1 never stops the run first
        g = Grid1D(40.0, 256)
        u0 = gaussian(g, A=5.0, width=1.0)
        cfg = SolverConfig(T=2.0, rhs_form=form, dt=0.5, tail_threshold=2.0)
        rep = evolve(u0, cfg)
        assert rep.stop_reason == "nonfinite"
        assert not np.all(np.isfinite(rep.final.values))


class TestIntegrator:
    def test_rk4_order(self):
        g = Grid1D(40.0, 256)
        u0 = gaussian(g)
        T = 0.2

        def final(dt):
            cfg = SolverConfig(T=T, dt=dt, monitor_every=10**9)
            return evolve(u0, cfg).final.values

        ref = final(T / 64)
        errs = [
            np.max(np.abs(final(T / n) - ref)) for n in (4, 8, 16)
        ]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 3.6

    def test_energy_conserved_smooth_run(self):
        g = Grid1D(40.0, 512)
        u0 = gaussian(g)
        cfg = SolverConfig(T=0.5, dt=0.005, monitor_every=10)
        rep = evolve(u0, cfg)
        e = np.asarray(rep.energy)
        assert np.max(np.abs(e - e[0])) / e[0] < 1e-8

    def test_zero_data_flat_series(self):
        g = Grid1D(40.0, 256)
        cfg = SolverConfig(T=0.3, monitor_every=3)
        rep = evolve(RealField(g, np.zeros(g.n)), cfg)
        assert rep.stop_reason == "horizon"
        assert all(v == 0.0 for v in rep.energy)
        assert all(v == 0.0 for v in rep.w_linf)
        assert rep.verdicts["wbound_ok"]
        assert rep.verdicts["slope_bound_ok"]

    def test_monitor_cadence_and_final_time(self):
        g = Grid1D(40.0, 256)
        cfg = SolverConfig(T=0.3, dt=0.01, monitor_every=7)
        rep = evolve(gaussian(g), cfg)
        assert rep.times[0] == 0.0
        assert rep.times[-1] == pytest.approx(0.3, abs=1e-12)
        assert rep.steps_taken == 30

    def test_dt_collapse_raises(self):
        g = Grid1D(40.0, 256)
        cfg = SolverConfig(T=1.0, dt=1e-13)
        with pytest.raises(DivergedError):
            evolve(gaussian(g), cfg)

    def test_wrapping_data_rejected(self):
        g = Grid1D(40.0, 256)
        cfg = SolverConfig(T=0.1)
        with pytest.raises(ConfigError):
            evolve(RealField(g, np.ones(g.n)), cfg)

    def test_bound_verdicts_on_smooth_run(self):
        g = Grid1D(40.0, 512)
        rep = evolve(gaussian(g), SolverConfig(T=1.0, monitor_every=10))
        assert rep.verdicts["wbound_ok"]
        assert rep.verdicts["slope_bound_ok"]
        assert all(w <= b for w, b in zip(rep.w_linf, rep.w_bound))

    def test_csv_header_pinned(self):
        assert RunReport.CSV_HEADER == "t,E,w_linf,w_bound,ux_linf,ux_bound,B,min_uxx,xi"


class TestMonitors:
    def test_min_uxx_single_mode(self):
        g = Grid1D(40.0, 512)
        k0 = 4 * math.pi / g.L
        u = RealField(g, np.cos(k0 * g.x))
        val, loc = refined_min(g, derivative(u, 2).values)
        assert val == pytest.approx(-(k0**2), rel=1e-6)
        # minima of -k0^2 cos at multiples of the period
        period = 2 * math.pi / k0
        assert min(abs(loc - m * period) for m in range(-4, 5)) < 1e-6

    def test_min_uxx_off_node_refinement(self):
        g = Grid1D(40.0, 512)
        k0 = 4 * math.pi / g.L
        shift = 0.3714 * g.dx
        u = RealField(g, np.cos(k0 * (g.x - shift)))
        val, loc = refined_min(g, derivative(u, 2).values)
        assert val == pytest.approx(-(k0**2), rel=1e-5)
        period = 2 * math.pi / k0
        assert min(abs(loc - (m * period + shift)) for m in range(-4, 5)) < 1e-3

    def test_tail_fraction_detects_band_edge_mass(self):
        g = Grid1D(40.0, 512)
        low = random_band_limited(g, np.random.default_rng(3), frac=0.2)
        assert spectral_tail_fraction(g, spectrum(low.values)) < 1e-20
        kcut = (2.0 / 3.0) * g.nyquist
        m = int(round(0.8 * kcut * g.L / math.pi))
        hot = RealField(g, np.cos(m * math.pi / g.L * g.x))
        assert spectral_tail_fraction(g, spectrum(hot.values)) > 0.5

    def test_energy_matches_h1_square(self):
        g = Grid1D(40.0, 256)
        u = gaussian(g)
        want = sobolev_norm(u, 1.0) ** 2
        assert energy(g, spectrum(u.values)) == pytest.approx(want, rel=1e-14)

    def test_accumulator_linear_for_steady_curvature(self):
        # a run whose sup-curvature stays constant must produce linear B
        g = Grid1D(40.0, 4096)
        u0 = peakon_field(g, 0.0, 1.0)
        rep = evolve(u0, SolverConfig(T=0.25, monitor_every=5))
        B = np.asarray(rep.B)
        tt = np.asarray(rep.times)
        slopes = np.diff(B) / np.diff(tt)
        assert np.max(slopes) / np.min(slopes) < 1.1


class TestStability:
    def test_perturbation_growth_is_tame(self):
        g = Grid1D(40.0, 512)
        u0 = gaussian(g)
        v0 = RealField(g, u0.values + 1e-6 * np.cos(math.pi * g.x / g.L))
        rep = stability_experiment(u0, v0, SolverConfig(T=0.5, monitor_every=10))
        assert not rep.perfect_match
        assert rep.distances[0] == 1.0
        assert rep.ratio_sup < 10.0

    @pytest.mark.parametrize("dt", [0.2, None])
    def test_ends_at_horizon(self, dt):
        # a fixed dt that does not divide T still ends the run at T
        g = Grid1D(40.0, 256)
        u0 = gaussian(g)
        v0 = RealField(g, u0.values + 1e-6 * np.cos(math.pi * g.x / g.L))
        cfg = SolverConfig(T=0.5, dt=dt, monitor_every=1)
        rep = stability_experiment(u0, v0, cfg)
        assert rep.times[-1] == pytest.approx(0.5, rel=1e-12)
        steps = np.diff(rep.times)
        assert np.allclose(steps, steps[0], rtol=1e-12)
        assert dt is None or steps[0] <= dt

    def test_identical_data_short_circuits(self):
        g = Grid1D(40.0, 256)
        u0 = gaussian(g)
        rep = stability_experiment(u0, gaussian(g), SolverConfig(T=0.2))
        assert rep.perfect_match
