"""Artifact serialization: 17-significant-digit CSV and atomic file writes.

Each grid coordinate and particle weight is formatted once; only the values
that change from row to row are formatted per row.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import product, repeat

import numpy as np

from .hjb import ValueField
from .measures import MeasureFlow
from .mfg import MFGSolution
from .trajectory import Curve

FLOAT_FMT = "%.17g"


def atomic_write_text(path, text: str):
    """Write via a temp file in the same directory, then rename."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(a):
    """Every entry of `a` in C order, formatted with FLOAT_FMT as it is consumed."""
    return map(FLOAT_FMT.__mod__, np.asarray(a, dtype=float).ravel().tolist())


def _csv(header: str, rows) -> str:
    return "\n".join([header, *rows, ""])


def value_csv(field: ValueField) -> str:
    g = field.grid
    u = _fmt(field.values)
    if field.is_phase:
        nodes = product(_fmt(g.t), _fmt(g.x), _fmt(g.v))
        return _csv("t,x,v,u", (f"{t},{x},{v},{s}" for (t, x, v), s in zip(nodes, u, strict=True)))
    nodes = product(_fmt(g.t), _fmt(g.x))
    return _csv("t,x,u", (f"{t},{x},{s}" for (t, x), s in zip(nodes, u, strict=True)))


def flow_csv(flow: MeasureFlow) -> str:
    """Ensemble rows `t,x,v,w`; marginal flows carry nan in the v column."""
    tw = product(_fmt(flow.times), _fmt(flow.weights))
    X = _fmt(flow.positions)
    if flow.velocities is None:
        V = repeat(FLOAT_FMT % np.nan, flow.positions.size)
    else:
        V = _fmt(flow.velocities)
    return _csv("t,x,v,w", (f"{t},{x},{v},{w}" for (t, w), x, v in zip(tw, X, V, strict=True)))


def curve_csv(curve: Curve) -> str:
    columns = (curve.t, curve.x, curve.velocity, curve.acceleration)
    return _csv("t,gamma,dgamma,ddgamma", map(",".join, zip(*map(_fmt, columns), strict=True)))


def write_solution_dir(out_dir, solution: MFGSolution, config_dict=None, extra_meta=None):
    """Write value.csv, flow.csv, meta.json for a solver run."""
    os.makedirs(out_dir, exist_ok=True)
    atomic_write_text(os.path.join(out_dir, "value.csv"), value_csv(solution.value))
    atomic_write_text(os.path.join(out_dir, "flow.csv"), flow_csv(solution.flow))
    meta = {
        "kind": solution.kind,
        "eps": solution.value.eps,
        "iterations": solution.iterations,
        "fixed_point_gap": solution.fixed_point_gap,
        "gap_history": list(solution.gap_history),
        "converged": bool(solution.converged),
    }
    if config_dict is not None:
        meta["config"] = config_dict
    if extra_meta:
        meta.update(extra_meta)
    atomic_write_text(
        os.path.join(out_dir, "meta.json"), json.dumps(meta, indent=2, sort_keys=True) + "\n"
    )
