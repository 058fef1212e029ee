"""Quantitative acceptance gate, twelve criteria, one verdict line each.

Every number is recomputed from scratch at the stated scale, so this file
is slower than the unit files (tens of seconds).  Expensive runs are
shared through module-scoped fixtures, and every solver run made here is
pooled so the running-bound criterion can sweep all of them at once.
"""

import math
import time

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
from gchlab.cli import main
from gchlab.dynamics import (
    SolverConfig,
    evolve,
    rhs_m_form,
    rhs_spectral_form,
    rhs_u_form,
)
from gchlab.fields import (
    Grid1D,
    RealField,
    apply_one_minus_dxx,
    green_convolve,
    helmholtz_inverse,
    lp_norm,
    random_band_limited,
)
from gchlab.lpaley import (
    besov_norm,
    build_partition,
    dyadic_block,
    inequality_audit,
    reconstruct,
)
from gchlab.peakon import PeakonSolution, TestFunction, peakon_field, refinement_study
from gchlab.transport import picard_run

# every evolve() performed by the fixtures lands here for criterion 6
RUN_POOL = []


def _pool(name, run):
    RUN_POOL.append((name, run))
    return run


def verdict(capsys, num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} {name}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def rel_l2(a, b):
    g = a.grid
    return lp_norm(RealField(g, a.values - b.values), 2.0) / lp_norm(b, 2.0)


@pytest.fixture(scope="module")
def peakon_runs():
    out = {}
    for n in (4096, 8192):
        g = Grid1D(40.0, n)
        u0 = peakon_field(g, 0.0, 1.0)
        t0 = time.time()
        run = _pool(f"peakon_{n}", evolve(u0, SolverConfig(T=1.0)))
        wall = time.time() - t0
        err = rel_l2(run.final, peakon_field(g, 1.0, 1.0))
        out[n] = (run, err, wall)
    return out


@pytest.fixture(scope="module")
def gaussian_run():
    g = Grid1D(40.0, 1024)
    u0 = RealField(g, 0.25 * np.exp(-g.x**2 / 2.0))
    # fixed dt: the CFL policy is too generous at this amplitude for 1e-8
    return _pool("gaussian_1024", evolve(u0, SolverConfig(T=1.0, dt=0.005)))


@pytest.fixture(scope="module")
def steep_lab():
    """Steep-data breakdown runs: coarse to its resolution stop, fine to
    the same physical horizon so the rate windows sample matched times."""
    T = 0.05

    def steep(n):
        g = Grid1D(5.0, n)
        return RealField(g, 0.5 * np.exp(-(g.x**2) / (2 * 0.025**2)))

    window = 20
    cond = check_condition(steep(4096), T)
    ceiling = 2.0 * cond.w_curvature
    cfg = dict(cfl_sigma=0.05, monitor_every=1, tail_threshold=1e-4)
    coarse = _pool("steep_4096", evolve(steep(4096), SolverConfig(T=T, **cfg)))
    est_c = estimate_blowup_time(coarse.times, coarse.min_uxx, window=window, ceiling=ceiling)
    fine = _pool(
        "steep_8192",
        evolve(steep(8192), SolverConfig(T=coarse.times[-1], **cfg)),
    )
    est_f = estimate_blowup_time(fine.times, fine.min_uxx, window=window, ceiling=ceiling)
    return {
        "cond": cond,
        "coarse": coarse,
        "fine": fine,
        "window": window,
        "ceiling": ceiling,
        "rate_coarse": rate_report(
            coarse.times, coarse.min_uxx, coarse.min_ux, est_c.T_est, window
        ),
        "rate_fine": rate_report(fine.times, fine.min_uxx, fine.min_ux, est_f.T_est, window),
        "est_coarse": est_c,
    }


@pytest.fixture(scope="module")
def picard_lab():
    g = Grid1D(20.0, 1024)
    m0 = RealField(g, 0.2 * np.exp(-g.x**2 / 2.0))
    T = 0.25
    rep = picard_run(m0, T=T, n_iter=10)
    direct = _pool(
        "picard_direct",
        evolve(
            helmholtz_inverse(m0),
            SolverConfig(T=T, dt=T / 400.0, monitor_every=10**9),
        ),
    )
    m_direct = apply_one_minus_dxx(direct.final)
    gap = lp_norm(RealField(g, rep.final_frame - m_direct.values), 2.0)
    return rep, gap


def test_c01_peakon_transport(capsys, peakon_runs):
    run, err, wall = peakon_runs[4096]
    _, err_fine, _ = peakon_runs[8192]
    ratio = err / err_fine
    ok = err <= 1e-2 and ratio >= 3.0 and wall <= 60.0
    verdict(
        capsys, 1, "peakon transport", ok,
        f"rel L2 {err:.3e} (<= 1e-2), halving-dx gain {ratio:.2f} (>= 3), "
        f"wall {wall:.2f}s (<= 60)",
    )


def test_c02_energy_conservation(capsys, gaussian_run, peakon_runs):
    def drift(run):
        E = np.asarray(run.energy)
        return float(np.max(np.abs(E - E[0])) / E[0])

    d_smooth = drift(gaussian_run)
    d_peak = drift(peakon_runs[4096][0])
    ok = gaussian_run.stop_reason == "horizon" and d_smooth <= 1e-8 and d_peak <= 1e-3
    verdict(
        capsys, 2, "energy conservation", ok,
        f"smooth drift {d_smooth:.3e} (<= 1e-8), peakon drift {d_peak:.3e} (<= 1e-3)",
    )


def test_c03_three_form_agreement(capsys):
    g = Grid1D(40.0, 512)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        u = random_band_limited(g, rng)
        forms = (
            rhs_spectral_form(u),
            helmholtz_inverse(rhs_m_form(apply_one_minus_dxx(u))),
            rhs_u_form(u),
        )
        for i in range(3):
            for j in range(i + 1, 3):
                worst = max(worst, rel_l2(forms[i], forms[j]))
    ok = worst <= 1e-10
    verdict(
        capsys, 3, "three-form agreement", ok,
        f"max pairwise rel L2 {worst:.3e} over 50 fields (<= 1e-10)",
    )


def test_c04_inversion_duality(capsys):
    g = Grid1D(40.0, 1024)
    # smooth decaying data; the kernel-kink quadrature correction does not
    # extend to kinks in the data itself, so no peaked fields here
    corpus = [
        RealField(g, np.exp(-g.x**2 / 2.0)),
        RealField(g, 0.7 * np.exp(-((g.x - 5.0) ** 2) / 8.0)),
        RealField(g, np.exp(-((g.x + 3.0) ** 2) / 18.0) - 0.4 * np.exp(-g.x**2)),
        RealField(g, 1.0 / np.cosh(g.x)),
        RealField(g, g.x * np.exp(-g.x**2 / 2.0)),
    ]
    worst = max(rel_l2(green_convolve(f), helmholtz_inverse(f)) for f in corpus)
    ok = worst <= 1e-8
    verdict(
        capsys, 4, "inversion duality", ok,
        f"kernel quadrature vs spectral, worst rel L2 {worst:.3e} (<= 1e-8)",
    )


def test_c05_dyadic_analysis(capsys):
    g = Grid1D(40.0, 512)
    part = build_partition(g)
    rng = np.random.default_rng(113)
    corpus = [random_band_limited(g, rng) for _ in range(100)]

    recon = max(
        np.max(np.abs(reconstruct([dyadic_block(f, j) for j in part.blocks]).values
                      - f.values))
        for f in corpus
    )
    sq = (part.multipliers**2).sum(axis=0)
    sq_ok = bool(np.all(sq <= 1.0 + 1e-14) and np.all(sq >= 0.5 - 1e-14))

    gm = Grid1D(math.pi, 512)
    mode_ratios = [
        besov_norm(RealField(gm, np.cos(m * gm.x)), 0.0, 2.0, 2.0)
        / lp_norm(RealField(gm, np.cos(m * gm.x)), 2.0)
        for m in (1, 2, 5, 16, 40, 100)
    ]
    mode_ok = all(2.0**-0.5 - 1e-12 <= r <= 1.0 + 1e-12 for r in mode_ratios)

    audit = inequality_audit(corpus, ["interpolation"])[0]
    interp_ok = audit.hard_ok and audit.fitted_constant <= 1.0 + 1e-12

    ok = recon <= 1e-12 and sq_ok and mode_ok and interp_ok
    verdict(
        capsys, 5, "dyadic analysis", ok,
        f"reconstruction {recon:.2e} (<= 1e-12), squared-sum in [1/2,1] {sq_ok}, "
        f"single-mode ratios ok {mode_ok}, interpolation constant "
        f"{audit.fitted_constant:.12f} (<= 1 + 1e-12)",
    )


def test_c06_running_bounds(capsys, peakon_runs, gaussian_run, steep_lab, picard_lab):
    bad = []
    for name, run in RUN_POOL:
        if run.stop_reason == "nonfinite":
            continue
        v = run.verdicts
        if not (v["wbound_ok"] and v["slope_bound_ok"]):
            bad.append(name)
    ok = not bad and len(RUN_POOL) >= 6
    verdict(
        capsys, 6, "running bounds", ok,
        f"{len(RUN_POOL)} runs pooled, violations: {bad or 'none'}",
    )


def test_c07_comparison_ode(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        C = float(10.0 ** rng.uniform(-1.0, 2.0))
        w0 = -C * float(1.0 + 10.0 ** rng.uniform(-0.5, 1.5))
        exact = riccati_bound_time(w0, C)
        worst = max(worst, abs(riccati_solve(w0, C).divergence_time - exact) / exact)
    ok = worst <= 1e-8
    verdict(
        capsys, 7, "comparison ODE", ok,
        f"worst rel gap to closed form {worst:.3e} over 20 pairs (<= 1e-8)",
    )


def test_c08_breakdown_study(capsys, steep_lab, peakon_runs):
    cond = steep_lab["cond"]
    coarse = steep_lab["coarse"]
    ratio = steep_lab["est_coarse"].T_est / cond.bound_time
    steep_growth = accumulator_shape(coarse.times, coarse.B)
    control = peakon_runs[4096][0]
    control_growth = accumulator_shape(control.times, control.B)
    ok = (
        cond.verdict
        and coarse.stop_reason == "resolution_stop"
        and ratio <= 1.1
        and steep_growth >= 1.5
        and control.stop_reason == "horizon"
        and 0.95 <= control_growth <= 1.05
    )
    verdict(
        capsys, 8, "breakdown study", ok,
        f"steep: stop={coarse.stop_reason}, T_est/bound {ratio:.3f} (<= 1.1), "
        f"B growth {steep_growth:.2f} (>= 1.5); control: "
        f"stop={control.stop_reason}, B growth {control_growth:.3f} "
        f"(in [0.95, 1.05])",
    )


def test_c09_breakdown_rate(capsys, steep_lab):
    rc = steep_lab["rate_coarse"]
    rf = steep_lab["rate_fine"]
    d_c = abs(rc.window_mean + 0.5)
    d_f = abs(rf.window_mean + 0.5)
    ok = (
        -0.70 <= rc.window_mean <= -0.35
        and d_f < d_c
        and rc.companion_vanishes
        and rf.companion_vanishes
    )
    verdict(
        capsys, 9, "breakdown rate", ok,
        f"coarse mean {rc.window_mean:.4f} (in [-0.70, -0.35]), fine mean "
        f"{rf.window_mean:.4f} ({d_f:.4f} < {d_c:.4f} from -1/2), "
        f"companion decreasing {rc.companion_vanishes and rf.companion_vanishes}",
    )


def test_rate_window_is_the_fitted_window(steep_lab):
    """rate_report takes the series' last `window` samples, and
    estimate_blowup_time fits the last `window` samples below the ceiling:
    the two are one window only if every one of those lies below it."""
    window = steep_lab["window"]
    for run in (steep_lab["coarse"], steep_lab["fine"]):
        n = len(run.min_uxx)
        kept = np.flatnonzero(np.asarray(run.min_uxx) < steep_lab["ceiling"])[-window:]
        assert np.array_equal(kept, np.arange(n - window, n))


def test_c10_iteration_scheme(capsys, picard_lab):
    rep, gap = picard_lab
    tail = rep.ratios[2:]
    g = Grid1D(20.0, 256)
    zrep = picard_run(RealField(g, np.zeros(g.n)), T=0.25, n_iter=3)
    zero_exact = all(x == 0.0 for x in zrep.d) and all(x == 0.0 for x in zrep.ratios)
    ok = (
        rep.smallness_ok
        and all(r <= 0.75 for r in tail)
        and gap <= 1e-4
        and zero_exact
    )
    verdict(
        capsys, 10, "iteration scheme", ok,
        f"ratios after n=3 max {max(tail):.3f} (<= 0.75), direct gap "
        f"{gap:.3e} (<= 1e-4), zero datum exact {zero_exact}",
    )


def test_c11_weak_identity(capsys):
    study = refinement_study(
        PeakonSolution(1.0, 40.0),
        TestFunction(0.5, 1.5, poly=(1.0, 0.5, -0.25, 0.0)),
        T=1.0,
    )
    ok = study.fitted_order >= 1.5 and study.residuals[-1] <= 1e-4
    verdict(
        capsys, 11, "weak identity", ok,
        f"fitted order {study.fitted_order:.2f} (>= 1.5), finest residual "
        f"{study.residuals[-1]:.3e} (<= 1e-4)",
    )


def test_c12_determinism(capsys, tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "[grid]\nn = 512\n[run]\nT = 0.2\n"
        '[data]\nkind = "random"\nseed = 23\namplitude = 0.05\n'
    )
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        blobs.append(
            {
                name: (out / name).read_bytes()
                for name in ("report.json", "series.csv")
            }
        )
    ok = blobs[0] == blobs[1]
    verdict(
        capsys, 12, "determinism", ok,
        "repeated seeded runs byte-identical (report.json, series.csv)"
        if ok else "artifact bytes differ between identical runs",
    )
