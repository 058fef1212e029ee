"""Characteristic transport: interpolation order, exactness, audit, Picard."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gchlab import experiments, transport
from gchlab.config import parse_config
from gchlab.dynamics import SolverConfig, evolve, momentum_coefficients
from gchlab.errors import ConfigError, EstimationError
from gchlab.fields import (
    Grid1D,
    RealField,
    check_domain_decay,
    helmholtz_inverse,
    lp_norm,
    spectrum,
    synthesize,
    wrap,
)
from gchlab.lpaley import low_cutoff
from gchlab.peakon import PeakonSolution
from gchlab.transport import (
    TimeSlices,
    cubic_interp_periodic,
    picard_bound,
    picard_run,
    solve_transport,
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

    @staticmethod
    def stack_blend(ts, t):
        """The blended table as a whole-stack build made it: every frame's
        table at once, then the two bracketing slices blended."""
        tables, times = transport._cubic_table(ts.frames), ts.times
        if len(times) == 1 or t <= times[0]:
            return tables[:, 0]
        if t >= times[-1]:
            return tables[:, -1]
        j = int(np.searchsorted(times, t, side="right")) - 1
        if t == times[j]:
            return tables[:, j]
        th = (t - times[j]) / (times[j + 1] - times[j])
        return (1.0 - th) * tables[:, j] + th * tables[:, j + 1]

    @pytest.mark.parametrize(
        "times, order",
        [
            # before, at, between and after the slices, in order
            ([0.0, 0.25, 0.5, 0.75, 1.0], (-1.0, 0.0, 0.1, 0.25, 0.3, 0.6, 0.75, 0.9, 1.0, 2.0)),
            # back to a slice whose table was dropped, then forward again
            ([0.0, 0.25, 0.5, 0.75, 1.0], (0.7, 0.1, 0.9, 0.1, 0.5, 0.1, 1.5)),
            ([0.0, 0.3, 1.0], (0.9, -0.5, 0.3, 0.65, 0.2)),
            ([0.5], (-1.0, 0.5, 0.7)),
        ],
    )
    def test_samples_match_the_whole_stack_blend_bitwise(self, times, order):
        g = Grid1D(math.pi, 128)
        rng = np.random.default_rng(11)
        ts = TimeSlices(g, times, rng.standard_normal((len(times), g.n)))
        xq = rng.uniform(-g.L, g.L, 300)
        for t in order:
            expect = transport._cubic_eval(self.stack_blend(ts, t), g, xq)
            assert ts(t, xq).tobytes() == expect.tobytes()
            assert len(ts._tables) <= 3

    def test_an_ordered_walk_builds_each_table_once(self, monkeypatch):
        # three RK4 steps per interval, whose midpoints blend two slices
        g = Grid1D(math.pi, 128)
        times = np.linspace(0.0, 1.0, 17)
        vel = TimeSlices(g, times, 0.5 + 0.1 * np.sin(g.x + times[:, None]))
        src = TimeSlices(g, times, np.cos(g.x - times[:, None]))
        built = {id(vel): [], id(src): []}
        table = transport._cubic_table

        def spy(values):
            for ts in (vel, src):
                if np.shares_memory(values, ts.frames):
                    offset = values.ctypes.data - ts.frames.ctypes.data
                    built[id(ts)].append(offset // ts.frames.strides[0])
            return table(values)

        monkeypatch.setattr(transport, "_cubic_table", spy)
        solve_transport(RealField(g, np.sin(g.x)), vel, 0.02, times[1:], src)
        for ts in (vel, src):
            assert built[id(ts)] == list(range(len(times)))
            assert len(ts._tables) <= 3

    def test_each_interval_ends_on_its_slice(self):
        # three RK4 steps do not sum to an interval exactly; its last
        # velocity and source samples must still read the earlier slice
        g = Grid1D(math.pi, 64)
        times = np.linspace(0.0, 1.0, 17)
        seen = {"velocity": [], "source": []}

        def velocity(t, x):
            seen["velocity"].append(t)
            return 0.5 + 0.1 * np.sin(x + t)

        def source(t, x):
            seen["source"].append(t)
            return np.cos(x - t)

        solve_transport(RealField(g, np.sin(g.x)), velocity, 0.02, times[1:], source)
        # per interval: four velocity stages and one source sample a step,
        # plus the source at the later slice
        for name, per_interval in (("velocity", 12), ("source", 4)):
            t = np.reshape(seen[name], (len(times) - 1, per_interval))
            assert t[:, 0].tolist() == times[1:].tolist()
            assert t[:, -1].tolist() == times[:-1].tolist()

    def test_shape_and_order_validation(self):
        g = Grid1D(math.pi, 64)
        with pytest.raises(ConfigError):
            TimeSlices(g, [0.0, 1.0], np.zeros((2, g.n + 1)))
        with pytest.raises(ConfigError):
            TimeSlices(g, [0.0, 0.0], np.zeros((2, g.n)))


class TestSolveTransport:
    @pytest.mark.parametrize("L", [20.0, math.pi, 5.0, 7.3])
    def test_wrap_matches_remainder_bitwise(self, L):
        rng = np.random.default_rng(11)
        # the multiples of L, their neighbours one ulp away, and -0
        seams = np.array([k * L for k in range(-3, 4)] + [-0.0])
        seams = np.concatenate((seams, np.nextafter(seams, np.inf), np.nextafter(seams, -np.inf)))
        inside = seams[np.abs(seams) <= 3.0 * L]
        x = np.concatenate((rng.uniform(-3.0 * L, 3.0 * L, 10**6), inside))
        # crest times around those at which c t crosses -L, L and 3L
        c = 1.3
        seam_ts = np.array([-L, L, 3.0 * L]) / c
        ts = (seam_ts[:, None] + np.spacing(seam_ts)[:, None] * np.arange(-8, 9)).ravel()
        crest = PeakonSolution(c, L).crest
        cases = [(wrap(x, L), x), (crest(ts), c * ts)]
        cases += [(wrap(v, L), v) for v in inside]  # numpy scalars
        cases += [(crest(t), c * t) for t in ts]
        for got, x0 in cases:
            ref = (x0 + L) % (2.0 * L) - L
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))

    def test_constant_advection_exact(self):
        g = Grid1D(math.pi, 512)
        sol = solve_transport(RealField(g, np.sin(g.x)), uniform(1.0), 0.05, [0.0, 1.0])
        err = np.max(np.abs(sol.frames[-1] - np.sin(g.x - 1.0)))
        assert err < 1e-8

    def test_pure_source_integration(self):
        g = Grid1D(math.pi, 128)
        src = lambda t, x: np.cos(x)
        sol = solve_transport(RealField(g, np.sin(g.x)), uniform(0.0), 0.07, [0.0, 0.7], src)
        expect = np.sin(g.x) + 0.7 * np.cos(g.x)
        assert np.max(np.abs(sol.frames[-1] - expect)) < 1e-12

    def test_time_dependent_uniform_velocity(self):
        # f(t,x) = sin(x - sin t) rides v = cos t with no source
        g = Grid1D(math.pi, 512)
        vel = lambda t, x: np.full_like(x, math.cos(t))
        sol = solve_transport(RealField(g, np.sin(g.x)), vel, 0.05, [0.0, 1.0])
        expect = np.sin(g.x - math.sin(1.0))
        assert np.max(np.abs(sol.frames[-1] - expect)) < 1e-8

    def test_variable_coefficient_order(self):
        # dX/dt = sin X integrates to tan(X/2) = tan(X0/2) e^t, so the
        # exact pullback is X0 = 2 atan(e^{-t} tan(x/2))
        g = Grid1D(math.pi, 1024)
        vel = lambda t, x: np.sin(x)
        f0 = RealField(g, np.cos(g.x))
        foot = 2.0 * np.arctan(math.exp(-1.0) * np.tan(0.5 * g.x))
        exact = np.cos(foot)
        errs = []
        for dt in (0.2, 0.1, 0.05):
            sol = solve_transport(f0, vel, dt, [0.0, 1.0])
            errs.append(np.max(np.abs(sol.frames[-1] - exact)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 3.3

    def test_single_step_when_dt_exceeds_horizon(self):
        g = Grid1D(math.pi, 512)
        sol = solve_transport(RealField(g, np.sin(g.x)), uniform(1.0), 1.0, [0.0, 0.01])
        assert np.max(np.abs(sol.frames[-1] - np.sin(g.x - 0.01))) < 1e-9

    def test_requested_output_times(self):
        g = Grid1D(math.pi, 512)
        out = np.array([0.0, 0.5, 1.0])
        sol = solve_transport(RealField(g, np.sin(g.x)), uniform(1.0), 0.05, out)
        assert np.array_equal(sol.times, out)
        assert np.array_equal(sol.frames[0], np.sin(g.x))
        assert np.max(np.abs(sol.frames[1] - np.sin(g.x - 0.5))) < 1e-8

    def test_single_output_time_matches_zero_prefixed(self):
        # run_transport_test asks for [T] alone; t=0 is the implicit first frame
        g = Grid1D(math.pi, 512)
        vel = lambda t, x: np.full_like(x, math.cos(t))
        f0 = RealField(g, np.sin(g.x))
        alone = solve_transport(f0, vel, 0.05, np.array([1.0]))
        prefixed = solve_transport(f0, vel, 0.05, np.array([0.0, 1.0]))
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

        with pytest.raises(ConfigError):
            solve_transport(RealField(g, np.sin(g.x)), vel, 0.1, np.array(out, dtype=float))
        assert calls == []

    def test_validation(self):
        g = Grid1D(math.pi, 128)
        f0 = RealField(g, np.sin(g.x))
        with pytest.raises(ConfigError):
            solve_transport(f0, uniform(1.0), 0.0, [0.0, 1.0])
        with pytest.raises(ConfigError):
            solve_transport(f0, 3.14, 0.1, [0.0, 1.0])
        with pytest.raises(ConfigError):
            solve_transport(f0, uniform(1.0), 0.1, [0.0, 1.0], 3.14)
        g64 = Grid1D(math.pi, 64)
        other = TimeSlices(g64, [0.0, 1.0], np.zeros((2, g64.n)))
        with pytest.raises(ConfigError):
            solve_transport(f0, other, 0.1, [0.0, 1.0])
        with pytest.raises(ConfigError):
            solve_transport(f0, uniform(1.0), 0.1, [0.0, 1.0], other)


class TestSliceBuildUp:
    """Each frame starts from the previous one, so interpolation error
    builds up with the slice count; T=1, dt=0.05 throughout."""

    @staticmethod
    def final_errors(f0, vel, exact, counts=(2, 5, 17)):
        sols = (solve_transport(f0, vel, 0.05, np.linspace(0.0, 1.0, k)) for k in counts)
        return [np.max(np.abs(sol.frames[-1] - exact)) for sol in sols]

    def test_build_up_stays_small(self):
        g = Grid1D(math.pi, 512)
        f0 = RealField(g, np.sin(g.x))
        e_const = self.final_errors(f0, uniform(1.0), np.sin(g.x - 1.0))
        vel = lambda t, x: np.full_like(x, math.cos(t))
        e_wobble = self.final_errors(f0, vel, np.sin(g.x - math.sin(1.0)))
        g2 = Grid1D(math.pi, 1024)
        f2 = RealField(g2, np.cos(g2.x))
        foot = 2.0 * np.arctan(math.exp(-1.0) * np.tan(0.5 * g2.x))
        e_pull = self.final_errors(f2, lambda t, x: np.sin(x), np.cos(foot))
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
        rep = transport_apriori_audit(RealField(g, np.sin(g.x)), uniform(0.0), 1.0, 0.1)
        assert rep.fitted_C == 0.0
        assert np.max(np.abs(rep.ratios - 1.0)) < 1e-9
        assert rep.passed

    def test_translation_preserves_besov_norm(self):
        g = Grid1D(math.pi, 256)
        rep = transport_apriori_audit(RealField(g, np.sin(2 * g.x)), uniform(1.0), 1.0, 0.05)
        assert rep.fitted_C == 0.0
        assert np.all(rep.ratios <= 1.0 + 1e-9)
        assert rep.passed

    def test_variable_velocity_fitted_c_is_stable(self):
        g = Grid1D(math.pi, 256)
        vel = lambda t, x: np.sin(x)
        rep = transport_apriori_audit(RealField(g, np.cos(g.x)), vel, 1.0, 0.05)
        assert rep.passed
        assert rep.refinement_drift < 0.5

    def test_fitted_c_binds_a_frame_exactly(self):
        # the least C makes the bound an equality at its binding frame, so
        # that frame's ratio is 1 up to rounding
        g = Grid1D(math.pi, 256)
        rep = transport_apriori_audit(RealField(g, np.cos(g.x)), lambda t, x: np.sin(x), 1.0, 0.05)
        assert rep.fitted_C > 0.0
        assert abs(np.max(rep.ratios[1:]) - 1.0) <= 4 * np.finfo(float).eps

    def test_large_growth_integral_does_not_overflow(self):
        # at [audit] s = 1.5 V(T) is about 4.5e3, so e^{V(T)} overflows; the
        # fit must evaluate exp(C V) only at its small fitted C, with no warning
        cfg = parse_config("", "transport-test")
        cfg["audit"]["s"] = 1.5
        cfg["audit"]["seed"] = 5
        grid = Grid1D(cfg["grid"]["L"], cfg["grid"]["n"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = experiments.run_transport_test(cfg, grid)
        assert out.passed
        assert 0.0 < out.body["audit"]["fitted_C"] < 1e-3

    def test_norm_count_at_the_runner_defaults(self, monkeypatch):
        # nine velocity norms and ||f0|| once, then nine frame norms for
        # each of the two dt runs; recomputing the first ten per run is 38
        calls = []
        besov_norm = transport.besov_norm

        def counted(*args):
            calls.append(args[1])
            return besov_norm(*args)

        monkeypatch.setattr(transport, "besov_norm", counted)
        cfg = parse_config("", "transport-test")
        grid = Grid1D(cfg["grid"]["L"], cfg["grid"]["n"])
        assert experiments.run_transport_test(cfg, grid).passed
        assert len(calls) == 28

    @pytest.mark.parametrize("field", ["velocity", "datum"])
    def test_nonfinite_norm_fails_before_the_fit(self, field):
        # V(T) = inf or ||f0|| = nan gives no C, so the audit must raise
        # before it fits one
        g = Grid1D(math.pi, 64)
        f0, vel = RealField(g, np.sin(g.x)), uniform(1.0)
        if field == "velocity":
            vel = uniform(np.inf)
        else:
            f0 = RealField(g, np.full(g.n, np.nan))
        with np.errstate(invalid="ignore"), pytest.raises(EstimationError, match="not finite"):
            transport_apriori_audit(f0, vel, 1.0, 0.1)


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
        cfg = SolverConfig(T=T, dt=T / 400.0, monitor_every=10**9)
        run = evolve(u0, cfg)
        m_direct = synthesize(spectrum(run.final.values) * (1.0 + g.k**2))
        gap = lp_norm(RealField(g, final_picard - m_direct), 2.0)
        assert gap < 1e-4

    @staticmethod
    def picard_peak(n_slices):
        g = Grid1D(20.0, 1024)
        m0 = RealField(g, 0.2 * np.exp(-(g.x**2) / 2.0))
        picard_run(m0, T=0.25, n_iter=10, n_slices=n_slices)  # warm the per-grid caches
        tracemalloc.start()
        try:
            picard_run(m0, T=0.25, n_iter=10, n_slices=n_slices)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_peak_is_bounded(self):
        # the peak sits in momentum_coefficients, over the iterate's frames;
        # it is 1.21 MiB (1,265,884 B), and the bound adds 10%.  Cubic
        # tables of every frame, or an iteration's raw coefficient stacks
        # kept alive into the next, would each pass it
        assert self.picard_peak(17) < 1.33 * 2**20

    def test_memory_peak_grows_with_the_frames_alone(self):
        # each extra slice adds one frame to each of the nine frame stacks
        # alive at the peak: the iterate, its spectrum and seven working
        # arrays of momentum_coefficients.  Measured 9.006 frames per extra
        # slice; a table of every frame adds eight more
        frame = 8 * 1024
        assert self.picard_peak(33) - self.picard_peak(17) < 16 * 10 * frame

    def test_fitted_c_is_the_least_that_dominates_the_ladder(self):
        # a bisection with a 1e-9 slack stopped about 2e-10 below this C
        g = Grid1D(20.0, 512)
        m0 = RealField(g, 0.15 * np.exp(-(g.x**2) / 4.0))
        T = 0.25
        rep = picard_run(m0, T=T, n_iter=6)
        m0_norm = rep.sup_norms[0]

        def covered(C):
            q = 2.0 * C * C * m0_norm * T
            return all(x <= C * m0_norm * q**i for i, x in enumerate(rep.d))

        assert rep.smallness_ok
        assert covered(rep.fitted_C * (1.0 + 1e-12))
        assert not covered(rep.fitted_C * (1.0 - 1e-12))

    def test_needs_two_iterations(self):
        g = Grid1D(20.0, 256)
        with pytest.raises(ConfigError):
            picard_run(RealField(g, np.zeros(g.n)), T=0.1, n_iter=1)

    @pytest.mark.parametrize("n_slices", [0, 1])
    def test_needs_two_slices(self, n_slices):
        g = Grid1D(20.0, 256)
        m0 = RealField(g, np.zeros(g.n))
        with pytest.raises(ConfigError, match="two time slices"):
            picard_run(m0, T=0.25, n_iter=4, n_slices=n_slices)


def bisected_ladder_constant(d, m0_norm, T):
    """The least C with d_n <= C ||m0|| q^{n-1}, q = 2 C^2 ||m0|| T, by 200
    bisection steps on a doubled bracket: the closed form's oracle.  Each
    inequality is compared in logs, so no power overflows."""

    def covers(C):
        lead, lq = math.log(C * m0_norm), math.log(2.0 * C * C * m0_norm * T)
        return all(math.log(x) <= lead + i * lq for i, x in enumerate(d) if x > 0.0)

    lo, hi = 0.0, 1.0
    while not covers(hi):
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if covers(mid) else (mid, hi)
    return hi


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    m0_norm=st.floats(1e-2, 1e2),
    T=st.floats(1e-2, 1.0),
    d=st.lists(st.one_of(st.just(0.0), st.floats(1e-10, 1e2)), min_size=2, max_size=12),
)
def test_ladder_constant_matches_a_bisection(m0_norm, T, d):
    assume(any(d))
    C = transport._ladder_constant(d, m0_norm, T)
    assert C == pytest.approx(bisected_ladder_constant(d, m0_norm, T), rel=1e-12)


def picard_default_datum():
    cfg = parse_config("", "picard")
    grid = Grid1D(cfg["grid"]["L"], cfg["grid"]["n"])
    return experiments._initial_field(cfg["data"], grid), cfg["run"]


@settings(derandomize=True, max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**63 - 1))
def test_random_datum_passes_both_decay_screens(seed):
    # picard screens its datum m0 and the direct solve's u0 = (1-dx^2)^{-1} m0
    cfg = parse_config(f'[data]\nkind = "random"\nseed = {seed}\n', "picard")
    grid = Grid1D(cfg["grid"]["L"], cfg["grid"]["n"])
    m0 = experiments._initial_field(cfg["data"], grid)
    check_domain_decay(m0)
    check_domain_decay(helmholtz_inverse(m0))


def traced_steps(monkeypatch):
    """The step count of every `_trace_interval` call, in call order."""
    steps = []
    trace = transport._trace_interval

    def spy(*args):
        steps.append(args[-1])
        return trace(*args)

    monkeypatch.setattr(transport, "_trace_interval", spy)
    return steps


class TestPicardStep:
    """Picard picks its RK4 steps per slice interval by doubling."""

    @staticmethod
    def doubling_passes(m0, T, n_slices, k):
        # the probe: the first interval of the first iteration, with that
        # iteration's data as picard_run builds them
        g = m0.grid
        times = np.linspace(0.0, T, n_slices)
        frames = np.tile(m0.values, (n_slices, 1))
        vel, src = momentum_coefficients(g, frames, spectrum(frames))
        args = (
            low_cutoff(m0, 1).values,
            g,
            TimeSlices(g, times, vel),
            TimeSlices(g, times, src),
            times[0],
            times[1],
        )
        coarse = transport._trace_interval(*args, k)
        fine = transport._trace_interval(*args, 2 * k)
        return np.max(np.abs(fine - coarse)) <= transport.STEP_TOL * np.max(np.abs(fine))

    # the default datum takes one step per interval; five times its
    # amplitude needs more, below the cap
    @pytest.mark.parametrize("scale, steps", [(1.0, 1), (5.0, 4)])
    def test_chosen_steps_are_the_least_that_pass(self, scale, steps):
        m0, run = picard_default_datum()
        m0 = RealField(m0.grid, scale * m0.values)
        rep = picard_run(m0, run["T"], n_iter=2, n_slices=run["n_slices"])
        k = rep.steps_per_interval
        assert k == steps
        assert 0.0 < rep.step_estimate <= transport.STEP_TOL
        assert self.doubling_passes(m0, run["T"], run["n_slices"], k)
        assert k == 1 or not self.doubling_passes(m0, run["T"], run["n_slices"], k // 2)

    @pytest.mark.parametrize("T", [0.25, 0.3])
    def test_doubling_stops_at_the_former_default(self, monkeypatch, T):
        # ten times the default amplitude fails every doubling below 12
        # steps per interval, the count that T/200 gave at 17 slices; the
        # probe traces in 1, 2, 4, 8 and 16 steps, then every interval of
        # every iteration in exactly 12 (T/200 traced some of them in 13)
        m0, run = picard_default_datum()
        m0 = RealField(m0.grid, 10.0 * m0.values)
        steps = traced_steps(monkeypatch)
        rep = picard_run(m0, T, n_iter=2, n_slices=run["n_slices"])
        assert rep.steps_per_interval == 12
        assert rep.step_estimate > transport.STEP_TOL
        assert steps == [1, 2, 4, 8, 16] + [12] * (2 * (run["n_slices"] - 1))

    @pytest.mark.parametrize("n_slices, cap", [(2, 200), (9, 25), (17, 12), (401, 1)])
    def test_cap_depends_on_the_slices_alone(self, monkeypatch, n_slices, cap):
        # a NaN source fails every probe, so the doubling ends at the cap
        def nan_source(g, frames, coeffs):
            vel, src = momentum_coefficients(g, frames, coeffs)
            return vel, np.full_like(src, np.nan)

        monkeypatch.setattr(transport, "momentum_coefficients", nan_source)
        steps = traced_steps(monkeypatch)
        g = Grid1D(20.0, 64)
        with np.errstate(invalid="ignore"), pytest.raises(EstimationError):
            picard_run(RealField(g, np.exp(-(g.x**2) / 2.0)), 0.25, n_iter=2, n_slices=n_slices)
        assert steps[-(n_slices - 1) :] == [cap] * (n_slices - 1)

    def test_nonfinite_probe_stops_at_the_cap(self):
        g = Grid1D(math.pi, 64)
        k, est = transport._steps_by_doubling(
            np.sin(g.x), g, uniform(1.0), uniform(np.nan), 0.0, 0.1, 12
        )
        assert k == 12 and math.isnan(est)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_ladder_fails_with_its_quantity(self, monkeypatch):
        # a NaN source makes every probe frame NaN: the doubling stops at
        # the cap, and the first distance names the failure
        def nan_source(g, frames, coeffs):
            vel, src = momentum_coefficients(g, frames, coeffs)
            return vel, np.full_like(src, np.nan)

        monkeypatch.setattr(transport, "momentum_coefficients", nan_source)
        g = Grid1D(20.0, 256)
        m0 = RealField(g, 0.2 * np.exp(-(g.x**2) / 2.0))
        with pytest.raises(EstimationError, match="distance d_1"):
            picard_run(m0, 0.25, n_iter=2)

    def test_diverged_ladder_ends(self):
        # the feet are far off the grid and the sources overflow: the
        # doubling stops at the cap, and the ladder fails on its first
        # distance instead of hanging or passing over NaN slices
        g = Grid1D(20.0, 256)
        m0 = RealField(g, 1e150 * np.exp(-(g.x**2) / 2.0))
        with np.errstate(all="ignore"), pytest.raises(EstimationError, match="distance d_1"):
            picard_run(m0, 0.25)

    def test_nonfinite_datum_norm_is_named(self):
        g = Grid1D(20.0, 256)
        with np.errstate(invalid="ignore"), pytest.raises(EstimationError, match=r"\|\|m0\|\|"):
            picard_run(RealField(g, np.full(g.n, np.inf)), 0.25)

    def test_probe_makes_no_counted_call(self, monkeypatch):
        # the bench counts solve_transport and besov_norm by name
        calls = {"solve_transport": 0, "besov_norm": 0}
        for name in calls:
            original = getattr(transport, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(transport, name, counted)
        m0, run = picard_default_datum()
        n_iter, n_slices = 10, run["n_slices"]
        picard_run(m0, run["T"], n_iter=n_iter, n_slices=n_slices)
        assert calls == {"solve_transport": n_iter, "besov_norm": 1 + 2 * n_iter * n_slices}
