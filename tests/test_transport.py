"""Characteristic transport: interpolation order, exactness, audit, Picard."""

import math

import numpy as np
import pytest

from gchlab import (
    ConfigError,
    Grid1D,
    RealField,
    SolverConfig,
    TimeSlices,
    TransportProblem,
    cubic_interp_periodic,
    evolve,
    helmholtz_inverse,
    lp_norm,
    picard_bound,
    picard_run,
    solve_transport,
    spectrum,
    synthesize,
    transport_apriori_audit,
)


def uniform(value):
    return lambda t, x: np.full_like(x, value)


class TestCubicInterp:
    def test_exact_at_nodes(self):
        g = Grid1D(math.pi, 64)
        vals = np.exp(np.sin(g.x))
        out = cubic_interp_periodic(vals, g, g.x.copy())
        assert np.max(np.abs(out - vals)) < 1e-14

    def test_fourth_order_in_dx(self):
        xq = np.linspace(-2.0, 2.0, 401)
        errs = []
        for n in (64, 128, 256):
            g = Grid1D(math.pi, n)
            out = cubic_interp_periodic(np.exp(np.sin(g.x)), g, xq)
            errs.append(np.max(np.abs(out - np.exp(np.sin(xq)))))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 3.5

    def test_wraps_around_the_seam(self):
        g = Grid1D(math.pi, 128)
        xq = np.array([g.L - 0.01, -g.L + 0.01, g.L + 0.3])  # last one wraps
        out = cubic_interp_periodic(np.sin(g.x), g, xq)
        expect = np.sin(((xq + g.L) % (2 * g.L)) - g.L)
        assert np.max(np.abs(out - expect)) < 1e-7


    def test_matches_four_weight_lagrange_form(self):
        # oracle: the Lagrange weights of the nodes j-1, j, j+1, j+2 of the
        # point's cell j, each node read modulo n
        g = Grid1D(math.pi, 64)
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(g.n)
        seam = np.array([-g.L, g.L, g.L - 1e-13, -g.L - 1e-13, g.L + 0.5 * g.dx])
        xq = np.concatenate([rng.uniform(-3.0 * g.L, 3.0 * g.L, 500), seam])
        s = (xq + g.L) / g.dx
        j = np.floor(s).astype(np.int64)
        th = s - j
        weights = (
            -th * (th - 1.0) * (th - 2.0) / 6.0,
            (th * th - 1.0) * (th - 2.0) / 2.0,
            -th * (th + 1.0) * (th - 2.0) / 2.0,
            th * (th * th - 1.0) / 6.0,
        )
        oracle = sum(w * vals[(j + k - 1) % g.n] for k, w in enumerate(weights))
        out = cubic_interp_periodic(vals, g, xq)
        assert np.max(np.abs(out - oracle)) < 1e-14


class TestTimeSlices:
    def test_linear_blend(self):
        g = Grid1D(math.pi, 64)
        frames = np.stack([np.zeros(g.n), np.ones(g.n)])
        ts = TimeSlices(g, [0.0, 1.0], frames)
        assert np.allclose(ts.at(0.25), 0.25)

    def test_clamps_outside_range(self):
        g = Grid1D(math.pi, 64)
        frames = np.stack([np.zeros(g.n), np.ones(g.n)])
        ts = TimeSlices(g, [0.0, 1.0], frames)
        assert np.all(ts.at(-5.0) == 0.0)
        assert np.all(ts.at(5.0) == 1.0)

    def test_frames_are_a_read_only_copy(self):
        g = Grid1D(math.pi, 64)
        frames = np.stack([np.zeros(g.n), np.ones(g.n)])
        ts = TimeSlices(g, [0.0, 1.0], frames)
        frames[0] = 7.0
        assert np.all(ts.frames[0] == 0.0)
        with pytest.raises(ValueError):
            ts.frames[0, 0] = 1.0

    def test_sampling_matches_interpolating_the_blend(self):
        g = Grid1D(math.pi, 128)
        rng = np.random.default_rng(3)
        ts = TimeSlices(g, [0.0, 0.4, 1.0], rng.standard_normal((3, g.n)))
        xq = rng.uniform(-g.L, g.L, 300)
        # before, on, between and after the slices; 0.7, 0.25, 0.7 revisits
        # a time after the memo has moved on
        for t in (-1.0, 0.0, 0.4, 0.7, 0.7, 0.25, 0.7, 1.0, 2.0):
            expect = cubic_interp_periodic(ts.at(t), g, xq)
            assert np.max(np.abs(ts(t, xq) - expect)) < 1e-14

    def test_shape_and_order_validation(self):
        g = Grid1D(math.pi, 64)
        with pytest.raises(ConfigError):
            TimeSlices(g, [0.0, 1.0], np.zeros((2, g.n + 1)))
        with pytest.raises(ConfigError):
            TimeSlices(g, [0.0, 0.0], np.zeros((2, g.n)))


class TestSolveTransport:
    def test_constant_advection_exact(self):
        g = Grid1D(math.pi, 512)
        tp = TransportProblem(g, RealField(g, np.sin(g.x)), uniform(1.0), T=1.0)
        sol = solve_transport(tp, 0.05)
        err = np.max(np.abs(sol.frames[-1] - np.sin(g.x - 1.0)))
        assert err < 1e-8

    def test_pure_source_integration(self):
        g = Grid1D(math.pi, 128)
        src = lambda t, x: np.cos(x)
        tp = TransportProblem(g, RealField(g, np.sin(g.x)), uniform(0.0), src, T=0.7)
        sol = solve_transport(tp, 0.07)
        expect = np.sin(g.x) + 0.7 * np.cos(g.x)
        assert np.max(np.abs(sol.frames[-1] - expect)) < 1e-12

    def test_time_dependent_uniform_velocity(self):
        # f(t,x) = sin(x - sin t) rides v = cos t with no source
        g = Grid1D(math.pi, 512)
        vel = lambda t, x: np.full_like(x, math.cos(t))
        tp = TransportProblem(g, RealField(g, np.sin(g.x)), vel, T=1.0)
        sol = solve_transport(tp, 0.05)
        expect = np.sin(g.x - math.sin(1.0))
        assert np.max(np.abs(sol.frames[-1] - expect)) < 1e-8

    def test_variable_coefficient_order(self):
        # dX/dt = sin X integrates to tan(X/2) = tan(X0/2) e^t, so the
        # exact pullback is X0 = 2 atan(e^{-t} tan(x/2))
        g = Grid1D(math.pi, 1024)
        vel = lambda t, x: np.sin(x)
        tp = TransportProblem(g, RealField(g, np.cos(g.x)), vel, T=1.0)
        foot = 2.0 * np.arctan(math.exp(-1.0) * np.tan(0.5 * g.x))
        exact = np.cos(foot)
        errs = []
        for dt in (0.2, 0.1, 0.05):
            sol = solve_transport(tp, dt)
            errs.append(np.max(np.abs(sol.frames[-1] - exact)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 3.3

    def test_single_step_when_dt_exceeds_horizon(self):
        g = Grid1D(math.pi, 512)
        tp = TransportProblem(g, RealField(g, np.sin(g.x)), uniform(1.0), T=0.01)
        sol = solve_transport(tp, 1.0)
        assert np.max(np.abs(sol.frames[-1] - np.sin(g.x - 0.01))) < 1e-9

    def test_requested_output_times(self):
        g = Grid1D(math.pi, 512)
        tp = TransportProblem(g, RealField(g, np.sin(g.x)), uniform(1.0), T=1.0)
        out = np.array([0.0, 0.5, 1.0])
        sol = solve_transport(tp, 0.05, out)
        assert np.array_equal(sol.times, out)
        assert np.array_equal(sol.frames[0], np.sin(g.x))
        assert np.max(np.abs(sol.frames[1] - np.sin(g.x - 0.5))) < 1e-8

    def test_single_output_time_matches_zero_prefixed(self):
        # run_transport_test asks for [T] alone; t=0 is the implicit first frame
        g = Grid1D(math.pi, 512)
        vel = lambda t, x: np.full_like(x, math.cos(t))
        tp = TransportProblem(g, RealField(g, np.sin(g.x)), vel, T=1.0)
        alone = solve_transport(tp, 0.05, np.array([1.0]))
        prefixed = solve_transport(tp, 0.05, np.array([0.0, 1.0]))
        assert np.array_equal(alone.frames[-1], prefixed.frames[-1])

    @pytest.mark.parametrize(
        "out",
        [
            [0.0, 1.0, 0.5],  # unsorted
            [0.0, 0.5, 0.5],  # repeated
            [-0.5, 0.5],  # negative
            [0.0, np.nan],
            [0.0, np.inf],
            [],
            [[0.0, 1.0]],  # not 1-d
        ],
    )
    def test_bad_output_times_rejected_before_tracing(self, out):
        g = Grid1D(math.pi, 128)
        calls = []

        def vel(t, x):
            calls.append(t)
            return np.ones_like(x)

        tp = TransportProblem(g, RealField(g, np.sin(g.x)), vel, T=1.0)
        with pytest.raises(ConfigError):
            solve_transport(tp, 0.1, np.array(out, dtype=float))
        assert calls == []

    def test_validation(self):
        g = Grid1D(math.pi, 128)
        f0 = RealField(g, np.sin(g.x))
        with pytest.raises(ConfigError):
            TransportProblem(g, f0, uniform(1.0), T=0.0)
        with pytest.raises(ConfigError):
            TransportProblem(g, RealField(Grid1D(math.pi, 64), np.zeros(64)), uniform(1.0), T=1.0)
        with pytest.raises(ConfigError):
            solve_transport(TransportProblem(g, f0, uniform(1.0), T=1.0), 0.0)
        with pytest.raises(ConfigError):
            solve_transport(TransportProblem(g, f0, 3.14, T=1.0), 0.1)


class TestSliceBuildUp:
    """Each frame starts from the previous one, so interpolation error
    builds up with the slice count; T=1, dt=0.05 throughout."""

    @staticmethod
    def final_errors(tp, exact, counts=(2, 5, 17)):
        return [
            np.max(np.abs(solve_transport(tp, 0.05, np.linspace(0.0, 1.0, k)).frames[-1] - exact))
            for k in counts
        ]

    def test_build_up_stays_small(self):
        g = Grid1D(math.pi, 512)
        f0 = RealField(g, np.sin(g.x))
        const = TransportProblem(g, f0, uniform(1.0), T=1.0)
        e_const = self.final_errors(const, np.sin(g.x - 1.0))
        vel = lambda t, x: np.full_like(x, math.cos(t))
        wobble = TransportProblem(g, f0, vel, T=1.0)
        e_wobble = self.final_errors(wobble, np.sin(g.x - math.sin(1.0)))
        g2 = Grid1D(math.pi, 1024)
        pull = TransportProblem(g2, RealField(g2, np.cos(g2.x)), lambda t, x: np.sin(x), T=1.0)
        foot = 2.0 * np.arctan(math.exp(-1.0) * np.tan(0.5 * g2.x))
        e_pull = self.final_errors(pull, np.cos(foot))
        # measured at 17 slices: 2.7e-9, 6.4e-9 and 7.6e-8
        assert e_const[-1] <= 1e-8
        assert e_wobble[-1] <= 1e-8
        assert e_pull[-1] <= 2e-7
        # one interval has nothing to build up, so it sets the floor
        for errs in (e_const, e_wobble, e_pull):
            assert errs[0] <= min(errs[1:])


class TestAprioriAudit:
    def test_static_problem_is_tight(self):
        g = Grid1D(math.pi, 256)
        tp = TransportProblem(g, RealField(g, np.sin(g.x)), uniform(0.0), T=1.0)
        rep = transport_apriori_audit(tp, 0.1)
        assert rep.fitted_C == 0.0
        assert np.max(np.abs(rep.ratios - 1.0)) < 1e-9
        assert rep.passed

    def test_translation_preserves_besov_norm(self):
        g = Grid1D(math.pi, 256)
        tp = TransportProblem(g, RealField(g, np.sin(2 * g.x)), uniform(1.0), T=1.0)
        rep = transport_apriori_audit(tp, 0.05)
        assert rep.fitted_C == 0.0
        assert np.all(rep.ratios <= 1.0 + 1e-9)
        assert rep.passed

    def test_variable_velocity_fitted_c_is_stable(self):
        g = Grid1D(math.pi, 256)
        vel = lambda t, x: np.sin(x)
        tp = TransportProblem(g, RealField(g, np.cos(g.x)), vel, T=1.0)
        rep = transport_apriori_audit(tp, 0.05)
        assert rep.passed
        assert rep.refinement_drift < 0.5


class TestPicard:
    def test_bound_arithmetic(self):
        assert picard_bound(1.0, 1.0, 0.25) == 2.0
        with pytest.raises(ConfigError):
            picard_bound(1.0, 1.0, 0.5)  # q = 1 exactly
        with pytest.raises(ConfigError):
            picard_bound(2.0, 1.5, 1.0)

    def test_zero_datum_is_exact_fixed_point(self):
        g = Grid1D(20.0, 256)
        rep = picard_run(RealField(g, np.zeros(g.n)), T=0.25, n_iter=3)
        assert all(x == 0.0 for x in rep.d)
        assert all(x == 0.0 for x in rep.ratios)
        assert rep.fitted_C == 0.0
        assert rep.bound == 0.0
        assert rep.smallness_ok

    def test_small_data_contracts(self):
        g = Grid1D(20.0, 512)
        m0 = RealField(g, 0.15 * np.exp(-(g.x**2) / 4.0))
        rep = picard_run(m0, T=0.25, n_iter=6)
        assert rep.smallness_ok
        assert all(r <= 0.75 for r in rep.ratios[2:])
        assert max(rep.sup_norms) <= 3.0 * rep.sup_norms[0] + 1e-12

    def test_converges_to_direct_solution(self):
        g = Grid1D(20.0, 512)
        m0 = RealField(g, 0.15 * np.exp(-(g.x**2) / 4.0))
        T = 0.25
        rep = picard_run(m0, T=T, n_iter=10)
        final_picard = rep.final_frame

        u0 = helmholtz_inverse(m0)
        cfg = SolverConfig(T=T, rhs_form="m_form", dt=T / 400.0, monitor_every=10**9)
        run = evolve(u0, cfg)
        m_direct = synthesize(spectrum(run.final.values) * (1.0 + g.k**2))
        gap = lp_norm(RealField(g, final_picard - m_direct), 2.0)
        assert gap < 1e-4

    def test_needs_two_iterations(self):
        g = Grid1D(20.0, 256)
        with pytest.raises(ConfigError):
            picard_run(RealField(g, np.zeros(g.n)), T=0.1, n_iter=1)
