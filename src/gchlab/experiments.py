"""Experiment runners behind the CLI: build, run, emit artifacts, judge.

Every runner writes report.json (summary + verdicts), a CSV of its primary
series, and plot.svg, then returns a process exit code: 0 iff all hard
assertions passed.  Outputs are byte-deterministic for a fixed config and
seed — floats go through repr, keys keep insertion order, sweep rows are
sorted by the orchestrator before writing.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import blowup as bl
from . import dynamics as dyn
from .config import canonical_echo
from .errors import ConfigError, EstimationError
from .fields import (
    Grid1D,
    RealField,
    apply_one_minus_dxx,
    helmholtz_inverse,
    lp_norm,
    random_band_limited,
)
from .lpaley import AUDIT_IDS, inequality_audit
from .peakon import PeakonSolution, TestFunction, peakon_field, refinement_study
from .svgplot import LineChart
from .transport import (
    TimeSlices,
    TransportProblem,
    picard_run,
    solve_transport,
    transport_apriori_audit,
)


def _write(outdir: str, name: str, text: str):
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def _san(obj):
    """JSON-safe copy: numpy scalars unwrapped, non-finite floats spelled out."""
    if isinstance(obj, dict):
        return {k: _san(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_san(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_san(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _report(outdir: str, payload: dict):
    _write(outdir, "report.json", json.dumps(_san(payload), indent=2) + "\n")


def _csv_cell(v) -> str:
    if v is None:
        return "nan"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _gaussian(grid: Grid1D, amplitude: float, width: float, center: float) -> RealField:
    if width <= 0:
        raise ConfigError(f"gaussian width must be positive, got {width}")
    return RealField(
        grid, amplitude * np.exp(-((grid.x - center) ** 2) / (2.0 * width**2))
    )


def _initial_field(dcfg: dict, grid: Grid1D, seed: int | None) -> RealField:
    kind = dcfg.get("kind", "gaussian")
    if kind == "zero":
        return RealField(grid, np.zeros(grid.n))
    if kind == "gaussian":
        return _gaussian(grid, dcfg["amplitude"], dcfg["width"], dcfg["center"])
    if kind == "peakon":
        return peakon_field(grid, 0.0, dcfg["speed"])
    if kind == "random":
        rng = np.random.default_rng(dcfg["seed"] if seed is None else seed)
        f = random_band_limited(grid, rng, decay=dcfg["decay"])
        # band-limited noise is periodic, not decaying; a Gaussian envelope
        # (boundary value e^-18) keeps it inside the solver's decay screen
        env = np.exp(-(grid.x**2) / (2.0 * (grid.L / 6.0) ** 2))
        return RealField(grid, dcfg["amplitude"] * env * f.values)
    raise ConfigError(f"unknown data kind {kind!r}")


def _series_plot(rep: dyn.RunReport, timestamp: bool) -> str:
    chart = LineChart("run monitors", "t", "value")
    chart.add("E", rep.times, rep.energy)
    chart.add("min u_xx", rep.times, rep.min_uxx)
    chart.add("B", rep.times, rep.B)
    return chart.render(timestamp)


def _solver_cfg(rcfg: dict) -> dyn.SolverConfig:
    return dyn.SolverConfig(
        T=rcfg["T"],
        rhs_form=rcfg.get("rhs_form", "spectral_form"),
        dealias=rcfg.get("dealias", True),
        dt=None if rcfg.get("dt", 0.0) == 0.0 else rcfg["dt"],
        cfl_sigma=rcfg.get("cfl_sigma", 0.3),
        monitor_every=rcfg["monitor_every"],
        tail_threshold=rcfg.get("tail_threshold", 1e-3),
    )


def run_simulate(cfg: dict, outdir: str, seed: int | None, threads: int) -> int:
    grid = Grid1D(cfg["grid"]["L"], cfg["grid"]["n"])
    u0 = _initial_field(cfg["data"], grid, seed)
    rep = dyn.evolve(u0, _solver_cfg(cfg["run"]))
    _write(outdir, "series.csv", rep.to_csv())
    if cfg["output"]["plot"]:
        _write(outdir, "plot.svg", _series_plot(rep, cfg["output"]["timestamp"]))
    summary = rep.summary()
    ok = (
        summary["verdicts"]["wbound_ok"]
        and summary["verdicts"]["slope_bound_ok"]
        and rep.stop_reason != "nonfinite"
    )
    _report(
        outdir,
        {"kind": "simulate", "config": cfg, "summary": summary, "passed": ok},
    )
    return 0 if ok else 1


def run_peakon_verify(cfg: dict, outdir: str, seed: int | None, threads: int) -> int:
    grid = Grid1D(cfg["grid"]["L"], cfg["grid"]["n"])
    c = cfg["wave"]["speed"]
    rcfg = cfg["run"]
    u0 = peakon_field(grid, 0.0, c)
    rep = dyn.evolve(
        u0,
        dyn.SolverConfig(
            T=rcfg["T"],
            cfl_sigma=rcfg["cfl_sigma"],
            monitor_every=rcfg["monitor_every"],
        ),
    )
    exact = peakon_field(grid, rcfg["T"], c)
    diff = RealField(grid, rep.final.values - exact.values)
    rel_l2 = lp_norm(diff, 2.0) / lp_norm(exact, 2.0)
    drift = rep.summary()["energy_drift_rel"]

    rs = cfg["residual"]
    phi = TestFunction(rs["x0"], rs["sigma"], (rs["p0"], rs["p1"], rs["p2"], rs["p3"]))
    study = refinement_study(
        PeakonSolution(c, grid.L),
        phi,
        rcfg["T"],
        levels=rs["levels"],
        nx0=rs["nx0"],
        nt0=rs["nt0"],
        crest_split=rs["crest_split"],
    )
    _write(outdir, "series.csv", rep.to_csv())
    rows = ["level,nx,residual"]
    for i, (n, r) in enumerate(zip(study.resolutions, study.residuals)):
        rows.append(f"{i},{n},{_csv_cell(float(r))}")
    _write(outdir, "residuals.csv", "\n".join(rows) + "\n")
    if cfg["output"]["plot"]:
        chart = LineChart("computed vs exact translate", "x", "u")
        stride = max(1, grid.n // 512)
        xs = grid.x[::stride]
        chart.add("computed", xs, rep.final.values[::stride])
        chart.add("exact", xs, exact.values[::stride])
        _write(outdir, "plot.svg", chart.render(cfg["output"]["timestamp"]))
    v = rep.verdicts
    ok = (
        rel_l2 <= rcfg["rel_tol"]
        and study.fitted_order >= rs["order_min"]
        and study.residuals[-1] <= rs["tol"]
        and rep.stop_reason == "horizon"
        and v["wbound_ok"]
        and v["slope_bound_ok"]
    )
    _report(
        outdir,
        {
            "kind": "peakon-verify",
            "config": cfg,
            "rel_l2_error": rel_l2,
            "energy_drift_rel": drift,
            "energy_exact_line": c * c / 12.0,
            "residuals": [float(r) for r in study.residuals],
            "fitted_order": study.fitted_order,
            "stop_reason": rep.stop_reason,
            "verdicts": v,
            "passed": ok,
        },
    )
    return 0 if ok else 1


def _blowup_single(cfg: dict, amplitude: float, outdir: str | None):
    grid = Grid1D(cfg["grid"]["L"], cfg["grid"]["n"])
    dcfg = dict(cfg["data"])
    u0 = _gaussian(grid, amplitude, dcfg["width"], dcfg["center"])
    cond = bl.check_condition(u0, cfg["run"]["T"])
    rep = dyn.evolve(u0, _solver_cfg(cfg["run"]))
    ceiling = cfg["estimate"]["ceiling_factor"] * cond.w_curvature
    record = {
        "amplitude": amplitude,
        "C_T": cond.C_T,
        "C_tilde_T": cond.C_tilde_T,
        "w_curvature": cond.w_curvature,
        "w_mixed": cond.w_mixed,
        "verdict": cond.verdict,
        "bound_time": cond.bound_time,
        "bound_time_curvature": cond.bound_time_curvature,
        "bound_time_variant": cond.bound_time_variant,
        "self_consistent": cond.self_consistent,
        "stop_reason": rep.stop_reason,
        "T_est": None,
        "window_mean": None,
        "B_growth_factor": None,
    }
    try:
        est = bl.estimate_blowup_time(
            rep, window=cfg["estimate"]["window"], ceiling=ceiling
        )
        record["T_est"] = est.T_est
        rate = bl.rate_report(rep, est)
        record["window_mean"] = rate.window_mean
        record["companion_vanishes"] = rate.companion_vanishes
    except EstimationError as exc:
        record["estimate_error"] = str(exc)
    try:
        record["B_growth_factor"] = bl.accumulator_shape(rep.times, rep.B).growth_factor
    except (ConfigError, EstimationError) as exc:
        record["shape_error"] = str(exc)
    if outdir is not None:
        _write(outdir, "series.csv", rep.to_csv())
    return record, rep


def run_blowup_study(cfg: dict, outdir: str, seed: int | None, threads: int) -> int:
    record, rep = _blowup_single(cfg, cfg["data"]["amplitude"], outdir)
    if cfg["output"]["plot"]:
        _write(outdir, "plot.svg", _series_plot(rep, cfg["output"]["timestamp"]))

    sweep_raw = cfg["sweep"]["amplitudes"].strip()
    sweep_records = []
    if sweep_raw:
        try:
            amps = sorted(float(tok) for tok in sweep_raw.split(",") if tok.strip())
        except ValueError:
            raise ConfigError(
                f"sweep amplitudes must be comma-separated numbers, got {sweep_raw!r}"
            ) from None

        def worker(i_amp):
            i, amp = i_amp
            sub = os.path.join(outdir, f"sweep_{i:02d}")
            rec, _ = _blowup_single(cfg, amp, sub)
            return rec

        with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
            sweep_records = list(pool.map(worker, enumerate(amps)))
        sweep_records.sort(key=lambda r: r["amplitude"])
        rows = ["A,C_T,verdict,T_est,bound,window_mean"]
        for r in sweep_records:
            rows.append(
                ",".join(
                    _csv_cell(r[k])
                    for k in (
                        "amplitude",
                        "C_T",
                        "verdict",
                        "T_est",
                        "bound_time",
                        "window_mean",
                    )
                )
            )
        _write(outdir, "sweep.csv", "\n".join(rows) + "\n")

    v = rep.verdicts
    ok = v["wbound_ok"] and v["slope_bound_ok"] and rep.stop_reason != "nonfinite"
    if record["verdict"]:
        ok = ok and rep.stop_reason == "resolution_stop"
        if record["T_est"] is not None and record["bound_time"] is not None:
            ok = ok and record["T_est"] <= 1.1 * record["bound_time"]
        else:
            ok = False
    _report(
        outdir,
        {
            "kind": "blowup-study",
            "config": cfg,
            "study": record,
            "sweep": sweep_records,
            "verdicts": v,
            "passed": ok,
        },
    )
    return 0 if ok else 1


def run_picard(cfg: dict, outdir: str, seed: int | None, threads: int) -> int:
    grid = Grid1D(cfg["grid"]["L"], cfg["grid"]["n"])
    m0 = _initial_field(cfg["data"], grid, seed)
    rcfg = cfg["run"]
    pr = picard_run(
        m0,
        rcfg["T"],
        n_iter=rcfg["n_iter"],
        s=rcfg["s"],
        dt=None if rcfg["dt"] == 0.0 else rcfg["dt"],
        n_slices=rcfg["n_slices"],
        keep_iterates=True,
    )
    # direct solve from u0 = (1-dx^2)^{-1} m0, compared at the final time
    u0 = helmholtz_inverse(m0)
    direct = dyn.evolve(
        u0,
        dyn.SolverConfig(T=rcfg["T"], rhs_form="m_form", monitor_every=1000000),
    )
    m_direct = apply_one_minus_dxx(direct.final)
    m_last = pr.iterates[-1].frames[-1]
    direct_gap = lp_norm(RealField(grid, m_last - m_direct.values), 2.0)

    rows = ["n,sup_norm,d_n,ratio"]
    for i, dn in enumerate(pr.d, start=1):
        ratio = pr.ratios[i - 2] if i >= 2 else None
        rows.append(
            f"{i},{_csv_cell(pr.sup_norms[i])},{_csv_cell(dn)},{_csv_cell(ratio)}"
        )
    _write(outdir, "series.csv", "\n".join(rows) + "\n")
    if cfg["output"]["plot"]:
        chart = LineChart("iterate distances", "n", "d_n", logy=True)
        chart.add("d_n", list(range(1, len(pr.d) + 1)), pr.d)
        _write(outdir, "plot.svg", chart.render(cfg["output"]["timestamp"]))

    ccfg = cfg["check"]
    late = pr.ratios[ccfg["ratio_from"] - 1 :]
    ok = (
        pr.smallness_ok
        and direct_gap <= ccfg["direct_tol"]
        and all(r <= ccfg["ratio_max"] for r in late)
    )
    _report(
        outdir,
        {
            "kind": "picard",
            "config": cfg,
            "d": pr.d,
            "ratios": pr.ratios,
            "sup_norms": pr.sup_norms,
            "fitted_C": pr.fitted_C,
            "bound": pr.bound,
            "smallness_ok": pr.smallness_ok,
            "direct_gap_l2": direct_gap,
            "passed": ok,
        },
    )
    return 0 if ok else 1


def run_besov_audit(cfg: dict, outdir: str, seed: int | None, threads: int) -> int:
    grid = Grid1D(cfg["grid"]["L"], cfg["grid"]["n"])
    ccfg = cfg["corpus"]
    rng = np.random.default_rng(ccfg["seed"] if seed is None else seed)
    corpus = [
        random_band_limited(grid, rng, frac=ccfg["frac"], decay=ccfg["decay"])
        for _ in range(ccfg["count"])
    ]
    which = cfg["audits"]["which"]
    ids = AUDIT_IDS if which == "all" else tuple(
        tok.strip() for tok in which.split(",") if tok.strip()
    )
    reports = [inequality_audit(corpus, aid) for aid in ids]
    rows = ["audit,sample,ratio"]
    for r in reports:
        for i, ratio in enumerate(r.ratios):
            rows.append(f"{r.audit_id},{i},{_csv_cell(float(ratio))}")
    _write(outdir, "series.csv", "\n".join(rows) + "\n")
    if cfg["output"]["plot"]:
        chart = LineChart("audit ratios", "sample", "ratio")
        for r in reports:
            chart.add(r.audit_id, list(range(len(r.ratios))), list(r.ratios))
        _write(outdir, "plot.svg", chart.render(cfg["output"]["timestamp"]))
    ok = all(r.passed for r in reports)
    _report(
        outdir,
        {
            "kind": "besov-audit",
            "config": cfg,
            "audits": [r.to_json() for r in reports],
            "passed": ok,
        },
    )
    return 0 if ok else 1


def run_transport_test(cfg: dict, outdir: str, seed: int | None, threads: int) -> int:
    grid = Grid1D(cfg["grid"]["L"], cfg["grid"]["n"])
    rcfg = cfg["run"]
    T = rcfg["T"]

    # constant advection: exact trace, error is pure interpolation
    f0 = RealField(grid, np.sin(np.pi / grid.L * grid.x))
    tp_const = TransportProblem(grid, f0, lambda t, x: np.ones_like(x), None, T)
    sol = solve_transport(tp_const, rcfg["dt0"], np.array([0.0, T]))
    exact_vals = np.sin(np.pi / grid.L * (grid.x - T))
    const_err = float(np.max(np.abs(sol.frames[-1] - exact_vals)))

    # manufactured: v = cos t, f(t,x) = sin(x - sin t), source-free
    errs = []
    dts = []
    f0m = RealField(grid, np.sin(grid.x))
    for lev in range(rcfg["levels"]):
        dt = rcfg["dt0"] / 2**lev
        tp = TransportProblem(
            grid, f0m, lambda t, x: np.full_like(x, math.cos(t)), None, T
        )
        s = solve_transport(tp, dt, np.array([T]))
        errs.append(float(np.max(np.abs(s.frames[0] - np.sin(grid.x - math.sin(T))))))
        dts.append(dt)
    order = float(
        np.polyfit(np.log2(dts), np.log2(np.maximum(errs, 1e-300)), 1)[0]
    )

    acfg = cfg["audit"]
    rng = np.random.default_rng(acfg["seed"] if seed is None else seed)
    vfield = random_band_limited(grid, rng)
    ffield = random_band_limited(grid, rng)
    frozen = TimeSlices(grid, np.array([0.0, T]), np.tile(vfield.values, (2, 1)))
    tp_audit = TransportProblem(grid, ffield, frozen, None, T)
    audit = transport_apriori_audit(tp_audit, acfg["dt"], s=acfg["s"])

    rows = ["level,dt,error"]
    for i, (dt, e) in enumerate(zip(dts, errs)):
        rows.append(f"{i},{_csv_cell(dt)},{_csv_cell(e)}")
    _write(outdir, "series.csv", "\n".join(rows) + "\n")
    if cfg["output"]["plot"]:
        chart = LineChart("manufactured-solution convergence", "level", "error", logy=True)
        chart.add("max error", list(range(len(errs))), errs)
        _write(outdir, "plot.svg", chart.render(cfg["output"]["timestamp"]))
    ok = (
        const_err <= cfg["check"]["exact_tol"]
        and order >= cfg["check"]["order_min"]
        and audit.passed
    )
    _report(
        outdir,
        {
            "kind": "transport-test",
            "config": cfg,
            "constant_advection_error": const_err,
            "errors": errs,
            "fitted_order": order,
            "audit": {
                "fitted_C": audit.fitted_C,
                "refinement_drift": audit.refinement_drift,
                "passed": audit.passed,
            },
            "passed": ok,
        },
    )
    return 0 if ok else 1


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
    if kind not in RUNNERS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    os.makedirs(outdir, exist_ok=True)
    _write(outdir, "echo.cfg", canonical_echo(cfg, kind))
    try:
        return RUNNERS[kind](cfg, outdir, seed, threads)
    except Exception as exc:  # error record per contract, then nonzero exit
        _report(
            outdir,
            {"kind": kind, "error": f"{type(exc).__name__}: {exc}", "passed": False},
        )
        raise
