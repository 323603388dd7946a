"""Outside-in tracing of levyloewner: spans around the calls into each
module's public functions, recorded by wrappers this benchmark installs.
Nothing under ``src/`` knows about it.

A span has a name (``module.function``), a parent span, start and end.  A
call made on a pool thread has no traced caller on its own thread; its parent
is the span open on the main thread, which is the one that started the pool.
Self time is the duration minus the union of the child spans' intervals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

MODULES = ("rng", "drivers", "stable_calculus", "engine", "loewner", "alpha_loewner",
           "experiments", "output", "cli")
# Leaf helpers called once per printed number; wrapping them would time the wrapper.
SKIP = {"output.fmt"}
# Engine B cells of the workloads: pure Brownian at beta=2, kappa+stable at
# beta=2, stable at beta=alpha=1.5.
MC_CELLS = ("k2", "k8", "bessel", "beta1_5")
PATH_BETAS = ("beta2", "beta1_5")
OP_SELF = ("phase_scan", "hitting_probability", "theta0_bracket", "area_fraction",
           "disconnection_frequency")
COEFFS = ("gamma_coeff", "gamma_coeff_alt", "theta0", "phi")


def _arg(args, kwargs, i, name, default=None):
    return kwargs.get(name, args[i] if len(args) > i else default)


def _mc_cell(spec, beta: float) -> str:
    from levyloewner.drivers import Stable

    if beta < 2.0:
        return f"beta{beta:g}".replace(".", "_")
    if not any(isinstance(c, Stable) for c in spec.components):
        return "bessel"
    return f"k{spec.kappa_total:g}"


# What each span keeps of its call: small values only, since hot functions
# are called tens of thousands of times.
INFO = {
    "engine.run_adaptive_mc": lambda a, k, r: (_mc_cell(a[0], k.get("beta", 2.0)), r.steps.copy()),
    "engine.evolve_lanes_on_path": lambda a, k, r: (
        f"beta{_arg(a, k, 4, 'beta', 2.0):g}".replace(".", "_"),
        int((r[0] if isinstance(r, tuple) else r).steps.sum())),
    "drivers.sample_driver": lambda a, k, r: r.grid.size - 1,
    "drivers.standard_stable_sample": lambda a, k, r: r.size,
    "experiments.overshoot_histogram": lambda a, k, r: r.n,
    "output.write_csv": lambda a, k, r: str(_arg(a, k, 0, "path")),
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    t0: int
    t1: int
    info: object = None

    @property
    def ns(self) -> int:
        return self.t1 - self.t0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._restore: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            main = self._main_stack
            parent = stack[-1] if stack else (main[-1] if main else None)
            sid = next(self._ids)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
            self.spans.append(Span(sid, name, parent, t0, t1,
                                   info(args, kwargs, result) if info else None))
            return result
        return traced

    def install(self):
        """Replace every binding of each public function, in every module of
        the package, by its traced wrapper (``from .x import f`` included)."""
        mods = [importlib.import_module(f"levyloewner.{m}") for m in MODULES]
        mods.append(importlib.import_module("levyloewner"))
        wrappers = {}
        for mod in mods[:-1]:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and f"{short}.{name}" not in SKIP
                        and not inspect.isgeneratorfunction(obj)):
                    wrappers[obj] = self.wrap(f"{short}.{name}", obj)
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self):
        for mod, name, obj in reversed(self._restore):
            setattr(mod, name, obj)
        self._restore.clear()

    def self_ns(self) -> dict[int, int]:
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered, end = 0, s.t0
            for c in sorted(children.get(s.id, ()), key=lambda c: c.t0):
                lo, hi = max(c.t0, end), min(c.t1, s.t1)
                if hi > lo:
                    covered += hi - lo
                    end = hi
            out[s.id] = s.ns - covered
        return out

    def dump(self) -> list[dict]:
        return [{"id": s.id, "name": s.name, "parent": s.parent, "t0_ns": s.t0, "t1_ns": s.t1}
                for s in self.spans]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers from the spans.  A layer that the traced workload
    does not exercise reads 0 (its call and step counts read 0 too)."""
    from levyloewner.engine import BLOCK

    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    selfs = tracer.self_ns()
    m: dict[str, float] = {}

    def spans(name):
        return by_name.get(name, [])

    def total_ns(name):
        return sum(s.ns for s in spans(name))

    def mean_ns(name):
        return _ratio(total_ns(name), len(spans(name)))

    # engine B: adaptive Monte Carlo, one cell per driver/beta combination
    cells = {c: {"ns": 0, "steps": [], "cap": 0} for c in MC_CELLS}
    for s in spans("engine.run_adaptive_mc"):
        label, steps = s.info
        cell = cells.setdefault(label, {"ns": 0, "steps": [], "cap": 0})
        cell["ns"] += s.ns
        cell["steps"].append(steps)
        for b in range(0, steps.size, BLOCK):
            blk = steps[b:b + BLOCK]
            cell["cap"] += blk.size * (int(blk.max()) + 1)
    for c in MC_CELLS:
        st = np.concatenate(cells[c]["steps"]) if cells[c]["steps"] else np.zeros(1, dtype=np.int64)
        total = int(st.sum())
        m[f"engine.mc.ns_per_lane_step.{c}"] = _ratio(cells[c]["ns"], total)
        m[f"engine.mc.lane_utilisation.{c}"] = _ratio(total, cells[c]["cap"])
        m[f"engine.mc.lane_steps.{c}"] = total
        m[f"engine.mc.steps_p50.{c}"] = float(np.median(st))
        m[f"engine.mc.steps_max.{c}"] = int(st.max())

    # engine A: lanes sharing one path
    path = {b: [0, 0] for b in PATH_BETAS}
    for s in spans("engine.evolve_lanes_on_path"):
        acc = path.setdefault(s.info[0], [0, 0])
        acc[0] += s.ns
        acc[1] += s.info[1]
    for b in PATH_BETAS:
        m[f"engine.path.ns_per_lane_step.{b}"] = _ratio(*path[b])
        m[f"engine.path.lane_steps.{b}"] = path[b][1]

    for op in OP_SELF:
        m[f"experiments.{op}_s"] = sum(selfs[s.id] for s in spans(f"experiments.{op}")) / 1e9
    def per_unit(name):
        return _ratio(total_ns(name), sum(s.info for s in spans(name)))

    m["experiments.overshoot_ns_per_replica"] = per_unit("experiments.overshoot_histogram")
    m["drivers.sample_driver_ns_per_step"] = per_unit("drivers.sample_driver")
    m["drivers.standard_stable_sample_ns_per_draw"] = per_unit("drivers.standard_stable_sample")

    m["loewner.raster_cluster_self_s"] = sum(selfs[s.id] for s in spans("loewner.raster_cluster")) / 1e9
    m["loewner.connected_components_ms"] = mean_ns("loewner.connected_components") / 1e6

    rows = 0
    for s in spans("output.write_csv"):
        with open(s.info, "rb") as fh:
            rows += fh.read().count(b"\n") - 1
    m["output.write_csv_us_per_row"] = _ratio(total_ns("output.write_csv"), rows) / 1e3
    m["output.render_raster_svg_ms"] = mean_ns("output.render_raster_svg") / 1e6

    for f in COEFFS:
        m[f"stable_calculus.{f}_us"] = mean_ns(f"stable_calculus.{f}") / 1e3

    m["rng.stream_us"] = mean_ns("rng.stream") / 1e3
    m["rng.streams_created"] = len(spans("rng.stream"))
    m["cli.parse_config_us"] = mean_ns("cli.parse_config") / 1e3
    m["trace.spans"] = len(tracer.spans)
    return m
