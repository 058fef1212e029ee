"""Experiment runners behind the CLI: compute, then write and judge.

A runner `run_<kind>(cfg, grid)` only computes: it returns an
`Outcome` with its report fields, its verdict, the texts of its artifact
files and its chart, and touches no file.  `run_experiment` is the one place
that writes: echo.cfg, every file the runner returned, plot.svg when
`[output] plot` is set, and report.json; it returns the exit code, 0 iff the
runner's checks passed.  Every runner computes in the calling thread.
Outputs are byte-deterministic for a fixed config and seed: floats go
through repr, keys keep insertion order, sweep members run in amplitude
order.
The module imports what besov-audit and the shared helpers use; each other
runner imports its solver modules (dynamics, blowup, peakon, transport)
when it runs, so a process loads only the modules of the kind it serves.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .config import SCHEMAS, audit_ids, canonical_echo, check_ranges, sweep_amplitudes
from .errors import ConfigError, EstimationError
from .fields import (
    Grid1D,
    RealField,
    SeededNormals,
    apply_one_minus_dxx,
    helmholtz_inverse,
    line_fit,
    lp_norm,
    lp_norms,
    random_band_limited,
    random_band_limited_values,
)
from .lpaley import inequality_audit
from .svgplot import LineChart

if TYPE_CHECKING:
    from .dynamics import RunReport, SolverConfig

# The bars the verdicts are judged by.  They state the lab's claims, so no
# config sets them.
PEAKON_REL_L2_MAX = 1e-2  # distance of the run from the exact translate at T
PEAKON_ORDER_MIN = 1.5  # fitted order of the weak-residual ladder
PEAKON_RESIDUAL_MAX = 1e-4  # the finest weak residual
PICARD_RATIO_MAX = 0.75  # each contraction ratio d_(n+1) / d_n from n = 3 on
PICARD_GAP_MAX = 1e-4  # L2 gap of the last iterate to the direct solve at T
TRANSPORT_EXACT_MAX = 1e-8  # max error of constant advection
TRANSPORT_ORDER_MIN = 3.0  # fitted order in dt of the manufactured solution


class Outcome(NamedTuple):
    """What a runner computed; `run_experiment` writes it."""

    body: dict  # report.json fields between "config" and "passed"
    passed: bool
    files: dict[str, str]  # path relative to the output dir -> text
    chart: LineChart


def _write(outdir: str, name: str, text: str):
    path = os.path.join(outdir, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _san(obj):
    """JSON-safe copy with non-finite floats spelled out; runner bodies hold
    Python values (an np.float64 is a float), so nothing else is converted."""
    if isinstance(obj, dict):
        return {k: _san(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_san(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(float(obj))
    return obj


def _csv_cell(v) -> str:
    if v is None:
        return "nan"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _csv(header: str, rows) -> str:
    """CSV text: the header line, then one line of cells per row."""
    lines = [header] + [",".join(_csv_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _gaussian(grid: Grid1D, amplitude: float, width: float, center: float) -> RealField:
    return RealField(
        grid, amplitude * np.exp(-((grid.x - center) ** 2) / (2.0 * width**2))
    )


def _initial_field(dcfg: dict, grid: Grid1D) -> RealField:
    kind = dcfg["kind"]
    if kind == "zero":
        return RealField(grid, np.zeros(grid.n))
    if kind == "gaussian":
        return _gaussian(grid, dcfg["amplitude"], dcfg["width"], dcfg["center"])
    if kind == "peakon":
        from .peakon import peakon_field

        return peakon_field(grid, 0.0, dcfg["speed"])
    # "random", the last of config.DATA_KINDS
    f = random_band_limited(grid, SeededNormals(dcfg["seed"]), decay=dcfg["decay"])
    # band-limited noise is periodic, not decaying, so a Gaussian envelope
    # holds it: at width L/12 it is e^-72 at the box ends.  Picard also
    # screens u0 = (1-dx^2)^{-1} m0, whose boundary/max ratio stayed below
    # 3.1e-7 over seeds 0-199999 at its defaults (2.1e-7 over seeds 0-19999
    # at n = 4096); width L/8 let u0 past the 1e-6 screen at 17 of seeds
    # 0-19999, and L/6 at about half of them
    env = np.exp(-(grid.x**2) / (2.0 * (grid.L / 12.0) ** 2))
    return RealField(grid, dcfg["amplitude"] * env * f.values)


def _series_chart(rep: RunReport) -> LineChart:
    chart = LineChart("run monitors", "t", "value")
    chart.add("E", rep.times, rep.energy)
    chart.add("min u_xx", rep.times, rep.min_uxx)
    chart.add("B", rep.times, rep.B)
    return chart


def _solver_cfg(rcfg: dict) -> SolverConfig:
    """The solver settings of a [run] section; keys it lacks keep their
    SolverConfig defaults, and dt = 0 picks the CFL policy."""
    from .dynamics import SolverConfig

    keys = ("T", "cfl_sigma", "monitor_every", "tail_threshold")
    return SolverConfig(
        dt=rcfg.get("dt") or None, **{k: rcfg[k] for k in keys if k in rcfg}
    )


def _evolve_ok(rep: RunReport, stops: tuple[str, ...]) -> bool:
    """Both running bounds held and the run stopped for one of `stops`."""
    v = rep.verdicts
    return v["wbound_ok"] and v["slope_bound_ok"] and rep.stop_reason in stops


def run_simulate(cfg: dict, grid: Grid1D) -> Outcome:
    from .dynamics import evolve

    u0 = _initial_field(cfg["data"], grid)
    rep = evolve(u0, _solver_cfg(cfg["run"]))
    return Outcome(
        {"summary": rep.summary()},
        _evolve_ok(rep, ("horizon",)),
        {"series.csv": rep.to_csv()},
        _series_chart(rep),
    )


def run_peakon_verify(cfg: dict, grid: Grid1D) -> Outcome:
    from .dynamics import evolve
    from .peakon import (
        PeakonSolution,
        TestFunction,
        peakon_energy,
        peakon_field,
        refinement_study,
    )

    c = cfg["wave"]["speed"]
    rcfg, rs = cfg["run"], cfg["residual"]
    rep = evolve(peakon_field(grid, 0.0, c), _solver_cfg(rcfg))
    exact = peakon_field(grid, rcfg["T"], c)
    exact_l2 = lp_norm(exact, 2.0)
    if exact_l2 == 0.0:
        raise EstimationError(
            f"the exact translate at T has L2 norm 0 (speed {c!r}); no relative error"
        )
    diff = RealField(grid, rep.final.values - exact.values)
    rel_l2 = lp_norm(diff, 2.0) / exact_l2

    phi = TestFunction(rs["x0"], rs["sigma"], (rs["p0"], rs["p1"], rs["p2"], rs["p3"]))
    study = refinement_study(
        PeakonSolution(c, grid.L),
        phi,
        rcfg["T"],
        levels=rs["levels"],
        nx0=rs["nx0"],
        nt0=rs["nt0"],
    )
    residuals = [float(r) for r in study.residuals]
    chart = LineChart("computed vs exact translate", "x", "u")
    stride = max(1, grid.n // 512)
    chart.add("computed", grid.x[::stride], rep.final.values[::stride])
    chart.add("exact", grid.x[::stride], exact.values[::stride])
    body = {
        "rel_l2_error": rel_l2,
        "energy_drift_rel": rep.summary()["energy_drift_rel"],
        "energy_exact_line": peakon_energy(c),
        "residuals": residuals,
        "fitted_order": study.fitted_order,
        "stop_reason": rep.stop_reason,
        "verdicts": rep.verdicts,
    }
    passed = (
        _evolve_ok(rep, ("horizon",))
        and rel_l2 <= PEAKON_REL_L2_MAX
        and study.fitted_order >= PEAKON_ORDER_MIN
        and residuals[-1] <= PEAKON_RESIDUAL_MAX
    )
    files = {
        "series.csv": rep.to_csv(),
        "residuals.csv": _csv(
            "level,nx,residual",
            ((i, n, r) for i, (n, r) in enumerate(zip(study.resolutions, residuals))),
        ),
    }
    return Outcome(body, passed, files, chart)


# sweep.csv: (column name, record key) in column order
_SWEEP_COLUMNS = (
    ("A", "amplitude"), ("C_T", "C_T"), ("verdict", "verdict"),
    ("T_est", "T_est"), ("bound", "bound_time"), ("window_mean", "window_mean"),
)


def _blowup_single(cfg: dict, grid: Grid1D, amplitude: float):
    from . import blowup as bl
    from .dynamics import evolve

    dcfg = cfg["data"]
    u0 = _gaussian(grid, amplitude, dcfg["width"], dcfg["center"])
    cond = bl.check_condition(u0, cfg["run"]["T"])
    rep = evolve(u0, _solver_cfg(cfg["run"]))
    ceiling = cfg["estimate"]["ceiling_factor"] * cond.w_curvature
    record = {
        "amplitude": amplitude,
        **dataclasses.asdict(cond),
        "stop_reason": rep.stop_reason,
        "T_est": None,
        "window_mean": None,
        "B_growth_factor": None,
        "companion_vanishes": None,
    }
    window = cfg["estimate"]["window"]
    try:
        est = bl.estimate_blowup_time(rep.times, rep.min_uxx, window=window, ceiling=ceiling)
        record["T_est"] = est.T_est
        rate = bl.rate_report(rep.times, rep.min_uxx, rep.min_ux, est.T_est, window)
        record["window_mean"] = rate.window_mean
        record["companion_vanishes"] = rate.companion_vanishes
    except EstimationError as exc:
        record["estimate_error"] = str(exc)
    try:
        record["B_growth_factor"] = bl.accumulator_shape(rep.times, rep.B)
    except EstimationError as exc:
        record["shape_error"] = str(exc)
    return record, rep


def run_blowup_study(cfg: dict, grid: Grid1D) -> Outcome:
    record, rep = _blowup_single(cfg, grid, cfg["data"]["amplitude"])
    files = {"series.csv": rep.to_csv()}
    sweep = []
    for i, amplitude in enumerate(sweep_amplitudes(cfg["sweep"]["amplitudes"])):
        rec, member = _blowup_single(cfg, grid, amplitude)
        sweep.append(rec)
        files[f"sweep_{i:02d}/series.csv"] = member.to_csv()
    if sweep:
        files["sweep.csv"] = _csv(
            ",".join(name for name, _ in _SWEEP_COLUMNS),
            ([r[key] for _, key in _SWEEP_COLUMNS] for r in sweep),
        )

    if record["verdict"]:  # breakdown predicted: a resolution stop in time
        T_est, bound = record["T_est"], record["bound_time"]
        passed = (
            _evolve_ok(rep, ("resolution_stop",))
            and T_est is not None
            and bound is not None
            and T_est <= 1.1 * bound
        )
    else:
        passed = _evolve_ok(rep, ("horizon", "resolution_stop"))
    body = {"study": record, "sweep": sweep, "verdicts": rep.verdicts}
    return Outcome(body, passed, files, _series_chart(rep))


def run_picard(cfg: dict, grid: Grid1D) -> Outcome:
    from .dynamics import SolverConfig, evolve
    from .transport import picard_run

    m0 = _initial_field(cfg["data"], grid)
    rcfg = cfg["run"]
    # direct solve from u0 = (1-dx^2)^{-1} m0 on its CFL policy, compared at
    # the final time.  It runs first, so a datum that leaves floating point
    # fails on its CFL collapse, the cheaper check, before the ladder is
    # traced
    direct = evolve(helmholtz_inverse(m0), SolverConfig(T=rcfg["T"], monitor_every=1000000))
    m_direct = apply_one_minus_dxx(direct.final)
    pr = picard_run(
        m0, rcfg["T"], n_iter=rcfg["n_iter"], s=rcfg["s"], n_slices=rcfg["n_slices"]
    )
    direct_gap = lp_norm(RealField(grid, pr.final_frame - m_direct.values), 2.0)

    chart = LineChart("iterate distances", "n", "d_n", logy=True)
    chart.add("d_n", range(1, len(pr.d) + 1), pr.d)
    rows = (
        (i, pr.sup_norms[i], dn, pr.ratios[i - 2] if i >= 2 else None)
        for i, dn in enumerate(pr.d, start=1)
    )
    # [run] n_iter >= 4 leaves at least one ratio from n = 3 on
    passed = (
        pr.smallness_ok
        and direct_gap <= PICARD_GAP_MAX
        and all(r <= PICARD_RATIO_MAX for r in pr.ratios[2:])
    )
    body = {
        "d": pr.d,
        "ratios": pr.ratios,
        "sup_norms": pr.sup_norms,
        "fitted_C": pr.fitted_C,
        "bound": pr.bound,
        "smallness_ok": pr.smallness_ok,
        "direct_gap_l2": direct_gap,
        "steps_per_interval": pr.steps_per_interval,
        "step_doubling_estimate": pr.step_estimate,
    }
    files = {"series.csv": _csv("n,sup_norm,d_n,ratio", rows)}
    return Outcome(body, passed, files, chart)


def run_besov_audit(cfg: dict, grid: Grid1D) -> Outcome:
    ccfg = cfg["corpus"]
    rng = SeededNormals(ccfg["seed"])
    values = random_band_limited_values(
        grid, rng, ccfg["count"], frac=ccfg["frac"], decay=ccfg["decay"]
    )
    reports = inequality_audit(
        [RealField(grid, v) for v in values], audit_ids(cfg["audits"]["which"])
    )
    chart = LineChart("audit ratios", "sample", "ratio")
    for r in reports:
        chart.add(r.audit_id, range(len(r.ratios)), r.ratios)
    rows = ((r.audit_id, i, float(x)) for r in reports for i, x in enumerate(r.ratios))
    return Outcome(
        {"audits": [dataclasses.asdict(r) for r in reports]},
        all(r.passed for r in reports),
        {"series.csv": _csv("audit,sample,ratio", rows)},
        chart,
    )


def run_transport_test(cfg: dict, grid: Grid1D) -> Outcome:
    from .transport import TimeSlices, solve_transport, transport_apriori_audit

    rcfg = cfg["run"]
    T = rcfg["T"]

    # constant advection: exact trace, error is pure interpolation
    f0 = RealField(grid, np.sin(np.pi / grid.L * grid.x))
    sol = solve_transport(f0, lambda t, x: np.ones_like(x), rcfg["dt0"], np.array([0.0, T]))
    exact_vals = np.sin(np.pi / grid.L * (grid.x - T))
    const_err = float(lp_norms(grid, sol.frames[-1] - exact_vals, np.inf))

    # manufactured: v = cos t, f(t,x) = sin(x - sin t), source-free
    errs = []
    dts = []
    f0m = RealField(grid, np.sin(grid.x))
    for lev in range(rcfg["levels"]):
        dt = rcfg["dt0"] / 2**lev
        s = solve_transport(f0m, lambda t, x: np.full_like(x, math.cos(t)), dt, np.array([T]))
        err = s.frames[0] - np.sin(grid.x - math.sin(T))
        errs.append(float(lp_norms(grid, err, np.inf)))
        dts.append(dt)
    order = line_fit(np.log2(dts), np.log2(np.maximum(errs, 1e-300)))[0]

    acfg = cfg["audit"]
    vel, datum = random_band_limited_values(grid, SeededNormals(acfg["seed"]), 2)
    frozen = TimeSlices(grid, np.array([0.0, T]), np.tile(vel, (2, 1)))
    audit = transport_apriori_audit(RealField(grid, datum), frozen, T, acfg["dt"], s=acfg["s"])

    chart = LineChart("manufactured-solution convergence", "level", "error", logy=True)
    chart.add("max error", range(len(errs)), errs)
    passed = (
        const_err <= TRANSPORT_EXACT_MAX
        and order >= TRANSPORT_ORDER_MIN
        and audit.passed
    )
    body = {
        "constant_advection_error": const_err,
        "errors": errs,
        "fitted_order": order,
        "audit": {
            "fitted_C": audit.fitted_C,
            "refinement_drift": audit.refinement_drift,
            "passed": audit.passed,
        },
    }
    rows = ((i, dt, e) for i, (dt, e) in enumerate(zip(dts, errs)))
    files = {"series.csv": _csv("level,dt,error", rows)}
    return Outcome(body, passed, files, chart)


RUNNERS = {
    "simulate": run_simulate,
    "peakon-verify": run_peakon_verify,
    "blowup-study": run_blowup_study,
    "picard": run_picard,
    "besov-audit": run_besov_audit,
    "transport-test": run_transport_test,
}


def run_experiment(
    kind: str, cfg: dict, outdir: str, seed: int | None = None, threads: int = 1
) -> int:
    """Run one experiment and write its artifacts into outdir.

    A `seed` is written into a copy of cfg at the kind's seed key ([data],
    [corpus] or [audit]; a kind without one ignores it) and checked as a
    loaded seed is, so echo.cfg and report.json reproduce the run.  echo.cfg
    is written first; the runner's files, plot.svg and report.json are
    written after it returns.  A run that raises leaves echo.cfg and an
    error report.json, and the exception propagates.  Returns 0 iff the
    runner's checks passed, else 1.  `threads` is accepted and starts no
    thread: runners compute in the calling thread.
    """
    if kind not in RUNNERS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    sec = next((name for name, keys in SCHEMAS[kind].items() if "seed" in keys), None)
    if seed is not None and sec is not None:
        cfg = {**cfg, sec: {**cfg[sec], "seed": seed}}
        check_ranges(cfg, kind)
    _write(outdir, "echo.cfg", canonical_echo(cfg, kind))
    try:
        # runners detect and report non-finite results themselves
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            grid = Grid1D(cfg["grid"]["L"], cfg["grid"]["n"])
            out = RUNNERS[kind](cfg, grid)
        for name, text in out.files.items():
            _write(outdir, name, text)
        if cfg["output"]["plot"]:
            _write(outdir, "plot.svg", out.chart.render())
        report = {"kind": kind, "config": cfg, **out.body, "passed": out.passed}
    except BaseException as exc:  # error record per contract, then re-raise
        error = f"{type(exc).__name__}: {exc}"
        report = {"kind": kind, "error": error, "passed": False}
        raise
    finally:
        _write(outdir, "report.json", json.dumps(_san(report), indent=2) + "\n")
    return 0 if report["passed"] else 1
