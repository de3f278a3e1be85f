"""Spans around mfglab's public functions, recorded from outside the package.

`Tracer.install` replaces each target function with a timing wrapper in every
`mfglab` module that holds it, so by-name imports such as
`mfglab.cli.solve_eps_system` or `mfglab.analysis.solve_eps_system` are
wrapped as well as the defining module. Spans (name, start, end, parent) are
kept in memory and written once, after the run. `layer_metrics` turns them
into the per-layer metrics listed in `predictions.json`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from workloads import CLI_COMMANDS

HERE = os.path.dirname(os.path.abspath(__file__))

# (module under mfglab, attribute); the span name is "<module>.<attribute>"
TARGETS = (
    ("hjb", "solve_hjb_acceleration"),
    ("hjb", "solve_hjb_limit_classical"),
    ("hjb", "solve_hjb_mfg_control"),
    ("model", "LagrangianSpec.coupling_value"),
    ("model", "optimal_velocity_field"),
    ("measures", "kernel_smooth"),
    ("measures", "wasserstein1_joint"),
    ("mfg", "solve_eps_system"),
    ("mfg", "solve_limit_classical"),
    ("mfg", "solve_mfg_of_control"),
    ("mfg", "transport_eps"),
    ("mfg", "transport_along_velocity"),
    ("analysis", "run_sweep"),
    ("analysis", "audit_estimates"),
    ("analysis", "sup_value_gap"),
    ("analysis", "sup_marginal_gap"),
    ("analysis", "velocity_oscillation"),
    ("analysis", "compare_joint_reconstruction"),
    ("analysis", "fit_rate"),
    ("trajectory", "minimize_direct"),
    ("trajectory", "solve_el_bvp"),
    ("io", "write_solution_dir"),
    ("io", "atomic_write_text"),
    ("io", "value_csv"),
    ("io", "flow_csv"),
    ("io", "curve_csv"),
)

# by-name import sites that must hold a wrapper once `install` has run
SITES = (
    "mfg.solve_hjb_acceleration",
    "analysis.solve_eps_system",
    "analysis.wasserstein1_joint",
    "cli.solve_eps_system",
    "cli.solve_limit_classical",
    "cli.minimize_direct",
    "measures.kernel_smooth",
)

DRIVERS = ("mfg.solve_eps_system", "mfg.solve_limit_classical", "mfg.solve_mfg_of_control")
TRANSPORT = ("mfg.transport_eps", "mfg.transport_along_velocity")
LIMIT_HJB = ("hjb.solve_hjb_limit_classical", "hjb.solve_hjb_mfg_control")
GAPS = (
    "analysis.sup_value_gap",
    "analysis.sup_marginal_gap",
    "analysis.velocity_oscillation",
    "analysis.compare_joint_reconstruction",
    "analysis.fit_rate",
)
IO = ("io.write_solution_dir", "io.atomic_write_text", "io.value_csv", "io.flow_csv", "io.curve_csv")


def load_predictions():
    with open(os.path.join(HERE, "predictions.json")) as f:
        return json.load(f)


def _grid_nodes(args, kwargs):
    grid = kwargs["grid"] if "grid" in kwargs else args[0]
    return grid.x.size * grid.v.size * (grid.t.size - 1)


def _legendre_nodes(args, kwargs, out):
    spec, p = args[0], args[1]
    return 0 if spec.is_quadratic_kinetic else int(np.size(p))


# counters updated after a wrapped call returns: span name -> (counter, f(args, kwargs, out))
COUNTERS = {
    "hjb.solve_hjb_acceleration": ("hjb.node_updates", lambda a, k, out: _grid_nodes(a, k)),
    "measures.kernel_smooth": (
        "measures.kernel_evals", lambda a, k, out: int(np.size(a[0])) * int(np.size(a[1]))
    ),
    "mfg.solve_eps_system": ("mfg.picard_iters", lambda a, k, out: out.iterations),
    "mfg.solve_limit_classical": ("mfg.picard_iters", lambda a, k, out: out.iterations),
    "mfg.solve_mfg_of_control": ("mfg.picard_iters", lambda a, k, out: out.iterations),
    "model.optimal_velocity_field": ("model.legendre_nodes", _legendre_nodes),
    "measures.wasserstein1_joint": ("measures.w1_exact", lambda a, k, out: int(out.exact)),
    "io.atomic_write_text": ("io.bytes_written", lambda a, k, out: os.path.getsize(a[0])),
}


class Tracer:
    """In-memory span recorder; one per traced workload run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(int)
        self.problems = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, kwargs, out)
            return out

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def _count_inside(self, fn, parent, counter):
        """Count calls of `fn` made while `parent` is the innermost open span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.stack and self.spans[self.stack[-1]][0] == parent:
                self.counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target in every mfglab module that refers to it."""
        import mfglab.cli  # noqa: F401  (loads every submodule)

        modules = [m for n, m in list(sys.modules.items()) if n == "mfglab" or n.startswith("mfglab.")]

        def replace_everywhere(original, wrapper):
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)

        for modname, attr in TARGETS:
            name = f"{modname}.{attr}"
            owner = importlib.import_module(f"mfglab.{modname}")
            try:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, meth, self._wrap(getattr(cls, meth), name))
                else:
                    original = getattr(owner, attr)
                    replace_everywhere(original, self._wrap(original, name))
            except AttributeError:
                self.problems.append(f"trace target {name} not found")
        original = getattr(importlib.import_module("mfglab.hjb"), "interp_slice_xv", None)
        if original is None:
            self.problems.append("trace target hjb.interp_slice_xv not found")
        else:
            replace_everywhere(
                original, self._count_inside(original, "mfg.transport_eps", "mfg.transport_substeps")
            )
        for site in SITES:
            modname, attr = site.split(".")
            val = getattr(importlib.import_module(f"mfglab.{modname}"), attr, None)
            if not hasattr(val, "__perfbench_wrapped__"):
                self.problems.append(f"import site mfglab.{site} is not wrapped")

    # -- reduction ------------------------------------------------------------

    def _durations(self):
        """Inclusive and self seconds of every span."""
        dur = [end - start for _, start, end, _ in self.spans]
        own = list(dur)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= dur[i]
        return dur, own

    def totals(self):
        """Per span name: call count, inclusive seconds, self seconds."""
        dur, own = self._durations()
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, _, _, _) in enumerate(self.spans):
            rec = out[name]
            rec[0] += 1
            rec[1] += dur[i]
            rec[2] += own[i]
        return out

    def breakdown(self):
        """Self seconds per module under each span opened directly inside the run's root span."""
        _, own = self._durations()
        top = [-1] * len(self.spans)
        out = {}
        for i, (name, _, _, parent) in enumerate(self.spans):
            if parent < 0:
                continue
            top[i] = i if self.spans[parent][3] < 0 else top[parent]
            group = out.setdefault(self.spans[top[i]][0], defaultdict(float))
            group[name.split(".")[0]] += own[i]
        return {key: dict(val) for key, val in out.items()}

    def layer_metrics(self):
        """Per-layer metrics of one traced run; layers that did not run report 0."""
        tot = self.totals()

        def calls(*names):
            return sum(tot[n][0] for n in names if n in tot)

        def incl(*names):
            return sum(tot[n][1] for n in names if n in tot)

        def self_s(*names):
            return sum(tot[n][2] for n in names if n in tot)

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        acc_self = self_s("hjb.solve_hjb_acceleration")
        io_s = self_s(*IO)
        m = {
            "hjb.acceleration_self_s": acc_self,
            "hjb.acceleration_calls": calls("hjb.solve_hjb_acceleration"),
            "hjb.node_updates": c["hjb.node_updates"],
            "hjb.ns_per_node": ratio(1e9 * acc_self, c["hjb.node_updates"]),
            "hjb.limit_s": incl(*LIMIT_HJB),
            "hjb.limit_calls": calls(*LIMIT_HJB),
            "model.coupling_s": incl("model.LagrangianSpec.coupling_value"),
            "measures.kernel_smooth_s": incl("measures.kernel_smooth"),
            "measures.kernel_evals": c["measures.kernel_evals"],
            "mfg.picard_iters": c["mfg.picard_iters"],
            "mfg.picard_s_per_iter": ratio(incl(*DRIVERS), c["mfg.picard_iters"]),
            "mfg.driver_self_s": self_s(*DRIVERS),
            "mfg.transport_s": incl(*TRANSPORT),
            "mfg.transport_calls": calls(*TRANSPORT),
            "mfg.transport_substeps": c["mfg.transport_substeps"],
            "model.legendre_s": incl("model.optimal_velocity_field"),
            "model.legendre_nodes": c["model.legendre_nodes"],
            "measures.w1_joint_s": incl("measures.wasserstein1_joint"),
            "measures.w1_joint_calls": calls("measures.wasserstein1_joint"),
            "measures.w1_exact_frac": ratio(
                c["measures.w1_exact"], calls("measures.wasserstein1_joint")
            ),
            "io.write_s": io_s,
            "io.bytes_written": c["io.bytes_written"],
            "io.mb_per_s": ratio(c["io.bytes_written"] / 1e6, io_s),
            "analysis.audit_s": incl("analysis.audit_estimates"),
            "analysis.gap_s": self_s(*GAPS),
            "trajectory.direct_s": incl("trajectory.minimize_direct"),
            "trajectory.bvp_s": incl("trajectory.solve_el_bvp"),
        }
        for cmd, *_ in CLI_COMMANDS:
            m[f"cli.command_s.{cmd}"] = incl(f"cli.{cmd}")
        return m

    def coverage_problems(self, workload, predictions):
        """Spans predicted non-zero on this workload that recorded no calls."""
        tot = self.totals()
        return [
            f"span {name} recorded no calls on {workload}"
            for name in predictions["required_spans"].get(workload, [])
            if tot.get(name, (0,))[0] == 0
        ]

    def dump(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {
            "spans": [[n, s - t0, e - t0, p] for n, s, e, p in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w") as f:
            json.dump(payload, f)
