"""Solver forms, the coefficient-space step, integrator order, monitors."""

import math

import numpy as np
import pytest

from gchlab import dynamics, fields
from gchlab.dynamics import (
    SPEED_FLOOR,
    RunReport,
    SolverConfig,
    energy,
    evolve,
    momentum_coefficients,
    refined_min,
    rhs_m_form,
    rhs_spectral_form,
    rhs_u_form,
    spectral_tail_fraction,
    step,
)
from gchlab.errors import ConfigError, DivergedError
from gchlab.fields import (
    Grid1D,
    RealField,
    apply_one_minus_dxx,
    helmholtz_inverse,
    lp_norm,
    random_band_limited,
    sobolev_norm,
    spectrum,
    synthesize,
)
from gchlab.peakon import peakon_field


def gaussian(grid, A=0.8, width=2.0):
    return RealField(grid, A * np.exp(-(grid.x**2) / (2 * width**2)))


def step_data(n):
    # a smooth field, and a peaked wave whose kink feeds every mode
    if n == 256:
        return gaussian(Grid1D(40.0, n))
    return peakon_field(Grid1D(40.0, n), 0.0, 2.0)


# step integrates the spectral form; the other two are right-hand sides
# that the tests compare with it
FORMS = ("spectral_form", "m_form", "u_form")
PHYSICAL_RHS = {
    "spectral_form": rhs_spectral_form,
    "m_form": rhs_m_form,
    "u_form": rhs_u_form,
}
KERNEL_RHS = {
    "spectral_form": dynamics._Kernel.rhs_spectral,
    "m_form": dynamics._Kernel.rhs_m,
    "u_form": dynamics._Kernel.rhs_u,
}


def grid_rk4(rhs, g, v, dt):
    """One classical RK4 step on grid values through a physical rhs wrapper."""

    def f(w):
        return rhs(RealField(g, w)).values

    k1 = f(v)
    k2 = f(v + 0.5 * dt * k1)
    k3 = f(v + 0.5 * dt * k2)
    k4 = f(v + dt * k3)
    return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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

    def test_momentum_coefficients_keep_the_written_forms_bits(self):
        # built in place, in the order the written forms evaluate
        g = Grid1D(20.0, 1024)
        rng = np.random.default_rng(71)
        stack = np.array([random_band_limited(g, rng).values for _ in range(3)])
        for m in (stack, stack[1]):
            mh = spectrum(m)
            u = synthesize(mh * g.helm)
            ux = synthesize(mh * g.helm * g.ik)
            upx = u + ux
            vel, src = momentum_coefficients(g, m, mh)
            assert vel.tobytes() == (2.0 * ux - 4.0 * u).tobytes()
            expect = 2.0 * m * m + (8.0 * ux - 4.0 * u) * m + 2.0 * upx * upx
            assert src.tobytes() == expect.tobytes()

    def test_m_form_step_matches_spectral_step(self):
        # the state map u -> m is linear, so RK4 commutes with it: the
        # spectral step equals grid RK4 of the momentum form in m = (1-dx^2)u
        g = Grid1D(40.0, 256)
        u0 = gaussian(g)
        dt = 1e-3
        m_new = grid_rk4(rhs_m_form, g, apply_one_minus_dxx(u0).values, dt)
        a, _ = step(g, spectrum(u0.values), SolverConfig(T=1.0, dt=dt), math.inf)
        gap = np.max(np.abs(synthesize(a) - helmholtz_inverse(RealField(g, m_new)).values))
        assert gap < 1e-11


class TestCoefficientStep:
    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("form", FORMS)
    def test_step_matches_physical_rk4(self, form, n):
        # the oracle: classical RK4 on grid values through each form's
        # physical wrapper, in m = (1 - dx^2)u for the momentum form.  The
        # forms are equal on resolved data, so the other two forms' oracles
        # take the smooth field at both n; on the peaked wave they part by
        # their aliasing (about 2e-9 at n = 1024)
        u0 = step_data(n) if form == "spectral_form" else gaussian(Grid1D(40.0, n))
        g = u0.grid
        dt = 1e-3
        start = apply_one_minus_dxx(u0).values if form == "m_form" else u0.values
        oracle = grid_rk4(PHYSICAL_RHS[form], g, start, dt)
        if form == "m_form":
            oracle = helmholtz_inverse(RealField(g, oracle)).values
        cfg = SolverConfig(T=1.0, dt=dt)
        new, taken = step(g, spectrum(u0.values), cfg, math.inf)
        assert taken == dt
        gap = np.max(np.abs(synthesize(new) - oracle))
        assert gap <= 1e-12 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("form", FORMS)
    def test_cfl_dt_from_first_stage(self, form, n):
        # every form's kernel returns the same w = 2u - u_x with its rhs;
        # the step's CFL speed is |2w| from the first stage
        u0 = step_data(n)
        g = u0.grid
        ux = synthesize(spectrum(u0.values) * g.ik)
        speed = np.max(np.abs(4.0 * u0.values - 2.0 * ux))
        assert speed > SPEED_FLOOR
        state = apply_one_minus_dxx(u0) if form == "m_form" else u0
        _, w = KERNEL_RHS[form](dynamics._kernel(g), spectrum(state.values))
        assert np.max(np.abs(2.0 * w)) == pytest.approx(speed, rel=1e-13)
        cfg = SolverConfig(T=1.0)
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

        for name in ("helmholtz_inverse", "apply_one_minus_dxx"):
            monkeypatch.setattr(fields, name, forbidden)
            monkeypatch.setattr(dynamics, name, forbidden, raising=False)
        return counts

    # the four rhs stages of one RK4 step: step makes them in the spectral
    # form; c03 and the three-form tests evaluate the other two kernels
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
        g = u0.grid
        ch = fields.spectrum(u0.values)
        if form == "spectral_form":
            step(g, ch, SolverConfig(T=1.0), math.inf)
        else:
            # m = (1 - dx^2)u in coefficients, with no counted transform
            state = ch / g.helm if form == "m_form" else ch
            for _ in range(4):
                KERNEL_RHS[form](dynamics._kernel(g), state)
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
    def test_overflow_stops_cleanly(self):
        # a tall bump with a huge fixed step leaves floating point in a few
        # steps; a tail threshold above 1 never stops the run first
        g = Grid1D(40.0, 256)
        u0 = gaussian(g, A=5.0, width=1.0)
        cfg = SolverConfig(T=2.0, dt=0.5, tail_threshold=2.0)
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

    # the step budget scaled down as the completion property scales it
    @pytest.mark.parametrize("planned", [256, 256.5])
    def test_step_budget_fires_only_before_the_horizon(self, monkeypatch, planned):
        monkeypatch.setattr(dynamics, "MAX_STEPS", 256)
        g = Grid1D(40.0, 128)
        cfg = SolverConfig(T=0.05, dt=0.05 / planned)
        if planned == 256:
            assert evolve(gaussian(g), cfg).steps_taken == 256
        else:  # 257 steps
            with pytest.raises(DivergedError, match="step budget exhausted"):
                evolve(gaussian(g), cfg)

    def test_last_planned_step_reaches_the_horizon(self, monkeypatch):
        # 2^16 steps of 0.003, summed one by one, fall short of their
        # product by 1.6e-12 of it, more than the horizon's tolerance
        n_steps, dt = 2**16, 0.003
        t = 0.0
        for _ in range(n_steps):
            t += dt
        assert t < n_steps * dt * (1.0 - 1e-12)
        # only the time keeping is under test, so the step leaves the state
        monkeypatch.setattr(dynamics, "MAX_STEPS", n_steps)
        monkeypatch.setattr(dynamics, "step", lambda g, ch, cfg, t_left: (ch, min(dt, t_left)))
        g = Grid1D(40.0, 16)
        cfg = SolverConfig(T=n_steps * dt, dt=dt, monitor_every=10**9)
        rep = evolve(RealField(g, np.zeros(g.n)), cfg)
        assert (rep.stop_reason, rep.steps_taken) == ("horizon", n_steps)
        assert rep.times[-1] == cfg.T

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
        val, loc = refined_min(g, synthesize(spectrum(u.values) * -(g.k**2)))
        assert val == pytest.approx(-(k0**2), rel=1e-6)
        # minima of -k0^2 cos at multiples of the period
        period = 2 * math.pi / k0
        assert min(abs(loc - m * period) for m in range(-4, 5)) < 1e-6

    def test_min_uxx_off_node_refinement(self):
        g = Grid1D(40.0, 512)
        k0 = 4 * math.pi / g.L
        shift = 0.3714 * g.dx
        u = RealField(g, np.cos(k0 * (g.x - shift)))
        val, loc = refined_min(g, synthesize(spectrum(u.values) * -(g.k**2)))
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

    @pytest.mark.parametrize("n", [64, 1024, 4096])
    @pytest.mark.parametrize("L", [40.0, math.pi])
    def test_tail_fraction_matches_mask_reference_bitwise(self, n, L):
        g = Grid1D(L, n)
        v = np.random.default_rng(n).standard_normal(n)
        ch = spectrum(v)
        # the inline formulas the cached symbols and the kernel's band replace:
        # 1 + k^2, the Parseval weight times dx/n, and the boolean 2/3 mask
        h1 = 1.0 + g.k**2
        mult = np.full(g.k.shape, 2.0)
        mult[0] = mult[-1] = 1.0
        pw = np.abs(ch) ** 2 * (mult * (g.dx / g.n))
        kcut = (2.0 / 3.0) * g.nyquist
        retained = np.abs(g.k) <= kcut
        top = retained & (np.abs(g.k) >= (2.0 / 3.0) * kcut)
        dens = h1 * pw
        want = float(dens[top].sum()) / float(dens[retained].sum())
        assert spectral_tail_fraction(g, ch) == want

        def same(a, b):
            return np.asarray(a).tobytes() == np.asarray(b).tobytes()

        f = RealField(g, v)
        assert same(fields.coefficient_power(g, ch), pw)
        assert same(energy(g, ch), float(np.sum(h1 * pw)))
        for s in (1.0, 1.5):
            assert same(sobolev_norm(f, s), float(np.sqrt(np.sum(h1**s * pw))))
        assert same(apply_one_minus_dxx(f).values, synthesize(ch * h1))
        assert same(g.helm, 1.0 / h1)
        kern = dynamics._kernel(g)
        assert same(kern.mask, retained)
        assert kern.band == retained.sum()
        assert kern.top == np.flatnonzero(top)[0]

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

    def test_accumulator_converges_where_curvature_varies(self):
        # sup |u_xx| of a steepening Gaussian grows over the run, so B(T)
        # summed at every step of dt = 0.02 must agree with dt = 0.0025: the
        # trapezoid rule reads 1.5e-4 apart, left rectangles 2.1e-2
        u0 = gaussian(Grid1D(20.0, 512), A=0.3, width=1.0)
        coarse, fine = (
            evolve(u0, SolverConfig(T=1.0, dt=dt, monitor_every=1)).B[-1]
            for dt in (0.02, 0.0025)
        )
        assert coarse == pytest.approx(fine, rel=1e-3)

