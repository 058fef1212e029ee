"""Span tracer for gchlab, installed from outside the package.

`Tracer.install()` wraps the public functions of the numerics modules
(fields, lpaley, dynamics, transport, peakon, blowup) and of the runner
(config, cli, experiments, svgplot), a few named methods, and the
`numpy.fft` transforms.  gchlab modules import functions by name, so each
wrapper is rebound in every gchlab namespace that holds the original
(module globals and module-level dicts such as the experiment registry);
afterwards a reference scan fails loudly if an original is still reachable
from anywhere but its wrapper.

Each span records name, start, end, parent span and thread, and stays in
memory until `dump()` writes the spans out.  A `ThreadPoolExecutor` worker
keeps its own span stack; the task it runs is a span whose parent is the
span that submitted it, so nesting and pool utilization stay correct with
several workers.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

NUMERICS = ("fields", "lpaley", "dynamics", "transport", "peakon", "blowup")
RUNNER = ("config", "cli", "experiments", "svgplot")
METHODS = (
    ("transport", "TimeSlices", "at"),
    ("svgplot", "LineChart", "render"),
    ("dynamics", "RunReport", "to_csv"),
    # the right-hand-side layer under dynamics.step
    ("dynamics", "_Kernel", "rhs_spectral"),
    ("dynamics", "_Kernel", "rhs_m"),
    ("dynamics", "_Kernel", "rhs_u"),
)
FFTS = {"fft": False, "ifft": False, "rfft": True, "irfft": True}  # name -> real
POOL_TASK = "experiments.pool.task"
RHS = ("dynamics._Kernel.rhs_spectral", "dynamics._Kernel.rhs_m", "dynamics._Kernel.rhs_u")
MONITORS = ("dynamics.energy", "dynamics.spectral_tail_fraction")
# artifact writers are runner work even where they live in a numerics module
NOT_NUMERICS = ("dynamics.RunReport.to_csv",)


def _fft_work(real: bool, inverse: bool):
    """(points, computed flops) of one transform: 5 n log2 n, half for real."""

    def work(args, kwargs):
        x = np.asarray(args[0])
        n = kwargs.get("n", args[1] if len(args) > 1 else None)
        axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
        m = x.shape[axis] if x.ndim else 1
        if n is None:
            n = 2 * (m - 1) if (real and inverse) else m
        rows = x.size // m if m else 0
        flops = 5.0 * n * math.log2(n) if n > 1 else 0.0
        return n * rows, (0.5 if real else 1.0) * flops * rows

    return work


def _interp_work(args, kwargs):
    xq = kwargs["xq"] if "xq" in kwargs else args[2]
    return int(np.size(xq)), 0.0


WORK = {"transport.cubic_interp_periodic": _interp_work}


class Tracer:
    def __init__(self):
        # (span id, parent id, name, start, end, thread ident, work)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, name: str, fn, work=None):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            w = work(args, kwargs) if work is not None else None
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, ident(), w))

        return wrapper

    def _wrap_submit(self, submit):
        tracer = self
        spans, ids, clock, ident = self.spans, self._ids, time.perf_counter, threading.get_ident

        @functools.wraps(submit)
        def traced_submit(pool, fn, /, *args, **kwargs):
            submitter = tracer._stack()
            parent = submitter[-1] if submitter else 0
            workers = pool._max_workers

            def task():
                stack = tracer._stack()  # the worker thread's own stack
                sid = next(ids)
                stack.append(sid)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans.append((sid, parent, POOL_TASK, t0, t1, ident(), (workers, 0.0)))

            return submit(pool, task)

        return traced_submit

    def install(self, package: str = "gchlab") -> int:
        """Wrap and rebind everything; return the number of wrapped callables."""
        for short in NUMERICS + RUNNER:
            importlib.import_module(f"{package}.{short}")
        mods = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        }
        wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for short in NUMERICS + RUNNER:
            mod = mods[f"{package}.{short}"]
            for attr, obj in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    name = f"{short}.{attr}"
                    wrapped[id(obj)] = (obj, self._wrap(name, obj, WORK.get(name)))
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[f"{package}.{short}"], cls_name)
            orig = cls.__dict__[meth]
            wrapper = self._wrap(f"{short}.{cls_name}.{meth}", orig)
            wrapped[id(orig)] = (orig, wrapper)
            setattr(cls, meth, wrapper)
        for fname, real in FFTS.items():
            orig = getattr(np.fft, fname)
            wrapper = self._wrap(
                f"fft.{fname}", orig, _fft_work(real, fname.startswith("i"))
            )
            wrapped[id(orig)] = (orig, wrapper)
            setattr(np.fft, fname, wrapper)
        ThreadPoolExecutor.submit = self._wrap_submit(ThreadPoolExecutor.submit)

        for mod in mods.values():
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    ns[attr] = hit[1]
                elif type(obj) is dict and attr != "__builtins__":
                    for key, val in list(obj.items()):
                        hit = wrapped.get(id(val))
                        if hit is not None and hit[0] is val:
                            obj[key] = hit[1]
        self._check_rebound(wrapped, [vars(m) for m in mods.values()])
        return len(wrapped)

    @staticmethod
    def _check_rebound(wrapped: dict, namespaces: list[dict]) -> None:
        """Raise if a gchlab namespace, or any container, still holds an original."""
        allowed = {id(wrapped)}
        for orig, wrapper in wrapped.values():
            allowed.add(id(wrapper.__dict__))  # functools.wraps' __wrapped__
            allowed.add(id(wrapped[id(orig)]))
            for cell in wrapper.__closure__:
                allowed.add(id(cell))
        for orig, _ in wrapped.values():
            # explicit loops: a comprehension here would close over `orig`
            # and hold it in a cell of this frame
            leaks = []
            if orig.__module__.startswith("numpy"):
                # numpy's own modules keep their names; only gchlab's must not
                for ns in namespaces:
                    for val in ns.values():
                        if val is orig:
                            leaks.append(ns["__name__"])
            else:
                for ref in gc.get_referrers(orig):
                    if id(ref) not in allowed and not inspect.isframe(ref):
                        leaks.append(type(ref).__name__)
            if leaks:
                raise RuntimeError(
                    f"tracer: {orig.__module__}.{orig.__qualname__} is still bound "
                    f"unwrapped in {leaks}"
                )

    # ----------------------------------------------------------------- output

    def dump(self, path: str) -> None:
        """Write every span, times relative to the first start."""
        spans = sorted(self.spans)
        names = sorted({s[2] for s in spans})
        threads = sorted({s[5] for s in spans})
        nidx = {n: i for i, n in enumerate(names)}
        tidx = {t: i for i, t in enumerate(threads)}
        base = min((s[3] for s in spans), default=0.0)
        rows = [
            [s[0], s[1], nidx[s[2]], s[3] - base, s[4] - base, tidx[s[5]]]
            for s in spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "parent", "name", "start_s", "end_s", "thread"],
                 "names": names, "spans": rows},
                fh,
                separators=(",", ":"),
            )

    def metrics(self) -> dict:
        return layer_metrics(self.spans)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans: list[tuple]) -> dict:
    """Per-layer counts and times from one process's spans."""
    by_name: dict[str, list] = defaultdict(list)
    children: dict[int, list] = defaultdict(list)
    name_of = {}
    for s in spans:
        by_name[s[2]].append(s)
        children[s[1]].append(s)
        name_of[s[0]] = s[2]

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(s[4] - s[3] for s in by_name[name])

    def self_time(name, excluded):
        """Span time minus the part of it covered by excluded descendants."""
        total = 0.0
        for s in by_name[name]:
            cover, todo = [], list(children[s[0]])
            while todo:
                c = todo.pop()
                if excluded(c[2]):
                    cover.append((max(c[3], s[3]), min(c[4], s[4])))
                else:
                    todo.extend(children[c[0]])
            total += (s[4] - s[3]) - _union_length(cover)
        return total

    def under(name, parent_name):
        return [s for s in by_name[name] if name_of.get(s[1]) == parent_name]

    ffts = [s for n, ss in by_name.items() if n.startswith("fft.") for s in ss]
    tasks = by_name[POOL_TASK]
    util = 0.0
    if tasks:
        task_ids = {s[0] for s in tasks}
        parent_of = {s[0]: s[1] for s in spans}

        def in_task(sid):
            while sid and sid not in task_ids:
                sid = parent_of.get(sid, 0)
            return bool(sid)

        pooled = sum(s[4] - s[3] for s in by_name["dynamics.evolve"] if in_task(s[1]))
        wall = max(s[4] for s in tasks) - min(s[3] for s in tasks)
        workers = max(s[6][0] for s in tasks)
        util = pooled / (workers * wall) if wall > 0 else 0.0

    layer_self: dict[str, float] = defaultdict(float)
    for s in spans:
        cover = [(c[3], c[4]) for c in children[s[0]]]
        layer_self[s[2].split(".", 1)[0]] += (s[4] - s[3]) - _union_length(cover)

    def numerics(name):
        return (
            name.split(".", 1)[0] in NUMERICS + ("fft",) and name not in NOT_NUMERICS
        )

    return {
        "fft.calls": len(ffts),
        "fft.points": sum(s[6][0] for s in ffts),
        "fft.busy_s": sum(s[4] - s[3] for s in ffts),
        "fft.flops_computed": sum(s[6][1] for s in ffts),
        "dynamics.evolve.calls": calls("dynamics.evolve"),
        "dynamics.evolve.busy_s": busy("dynamics.evolve"),
        "dynamics.evolve.self_s": self_time(
            "dynamics.evolve", lambda n: n == "dynamics.step"
        ),
        "dynamics.step.calls": calls("dynamics.step"),
        "dynamics.step.busy_s": busy("dynamics.step"),
        "dynamics.rhs_evals": sum(len(under(n, "dynamics.step")) for n in RHS),
        "dynamics.records": len(under("dynamics.spectral_tail_fraction", "dynamics.evolve")),
        "dynamics.monitor.busy_s": sum(
            s[4] - s[3] for n in MONITORS for s in under(n, "dynamics.evolve")
        ),
        "transport.picard_run.busy_s": busy("transport.picard_run"),
        "transport.solve_transport.calls": calls("transport.solve_transport"),
        "transport.solve_transport.busy_s": busy("transport.solve_transport"),
        "transport.solve_transport.self_s": self_time(
            "transport.solve_transport",
            lambda n: n in ("transport.cubic_interp_periodic", "transport.TimeSlices.at"),
        ),
        "transport.cubic_interp_periodic.calls": calls("transport.cubic_interp_periodic"),
        "transport.cubic_interp_periodic.points": sum(
            s[6][0] for s in by_name["transport.cubic_interp_periodic"]
        ),
        "transport.cubic_interp_periodic.busy_s": busy("transport.cubic_interp_periodic"),
        "transport.TimeSlices.at.calls": calls("transport.TimeSlices.at"),
        "transport.TimeSlices.at.busy_s": busy("transport.TimeSlices.at"),
        "lpaley.besov_norm.calls": calls("lpaley.besov_norm"),
        "lpaley.besov_norm.busy_s": busy("lpaley.besov_norm"),
        "lpaley.inequality_audit.busy_s": busy("lpaley.inequality_audit"),
        "lpaley.partition_for.calls": calls("lpaley.partition_for"),
        "lpaley.partition_build_s": busy("lpaley.build_partition"),
        "peakon.weak_residual.calls": calls("peakon.weak_residual"),
        "peakon.weak_residual.busy_s": busy("peakon.weak_residual"),
        "blowup.check_condition.busy_s": busy("blowup.check_condition"),
        "blowup.estimate_blowup_time.busy_s": busy("blowup.estimate_blowup_time"),
        "blowup.rate_report.busy_s": busy("blowup.rate_report"),
        "config.load_config.busy_s": busy("config.load_config"),
        "experiments.run_experiment.busy_s": busy("experiments.run_experiment"),
        "experiments.self_s": self_time("experiments.run_experiment", numerics),
        "svgplot.LineChart.render.busy_s": busy("svgplot.LineChart.render"),
        "dynamics.RunReport.to_csv.busy_s": busy("dynamics.RunReport.to_csv"),
        "experiments.pool.utilization": util,
        **{
            f"self_s.{layer}": layer_self[layer]
            for layer in ("fft",) + NUMERICS + RUNNER
        },
        "trace.spans": len(spans),
    }
