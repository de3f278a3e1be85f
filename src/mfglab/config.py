"""Run configuration: JSON blocks with defaults, strict key validation, and
factories for the objects the solvers consume."""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass

from .analysis import SweepPlan
from .errors import ConfigurationError
from .hjb import ControlSet, PhaseGrid
from .measures import ParticleEnsemble, gaussian_ensemble, lattice_ensemble
from .model import MODELS, TERMINALS, LagrangianSpec, TerminalCost, make_lagrangian, make_terminal

DEFAULTS = {
    "model": {
        "name": "quadratic",
        "kappa_pot": 0.5,
        "kappa_c": 0.0,
        "sigma": 0.3,
        "M0": 60.0,
        "terminal": "zero",
        "terminal_amplitude": 1.0,
    },
    "grid": {
        "R_x": 3.0,
        "R_v": 4.0,
        "N_x": 101,
        "N_v": 81,
        "N_t": 201,
        "N_a": 41,
        "A_max": 8.0,
        "T": 1.0,
    },
    "measure": {
        "kind": "lattice",  # lattice | gaussian
        "n": 2000,
        "box": [[-1.0, 1.0], [-1.0, 1.0]],
        "seed": 0,
    },
    "solver": {
        "tol_fp": 1e-3,
        "max_iter": 60,
    },
    "sweep": {
        "eps_ladder": [0.5, 0.2, 0.1, 0.05, 0.02, 0.01],
        "variant": "classical",  # classical | control
    },
}


def _as_default_type(value, default):
    """Cast value to the type of its default (float, int, or nested lists of them);
    raises TypeError, ValueError or OverflowError when it cannot, and ValueError
    when an int default is given a value with a fractional part."""
    if isinstance(default, list):
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {type(value).__name__}")
        return [_as_default_type(item, default[0]) for item in value]
    cast = type(default)(value)
    if isinstance(default, int) and cast != float(value):
        raise ValueError(f"{value!r} is not an integer")
    return cast


def _merge_block(name, defaults, given):
    if not isinstance(given, dict):
        raise ConfigurationError(f"config block {name!r} must be an object")
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ConfigurationError(f"unknown keys in config block {name!r}: {', '.join(unknown)}")
    merged = dict(defaults)
    merged.update(given)
    return merged


@dataclass(frozen=True)
class RunConfig:
    model: dict
    grid: dict
    measure: dict
    solver: dict
    sweep: dict

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigurationError("config root must be a JSON object")
        unknown = sorted(set(data) - set(DEFAULTS))
        if unknown:
            raise ConfigurationError(f"unknown config blocks: {', '.join(unknown)}")
        blocks = {
            name: _merge_block(name, defaults, data.get(name, {}))
            for name, defaults in DEFAULTS.items()
        }
        cfg = cls(**blocks)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def default(cls) -> "RunConfig":
        return cls.from_dict({})

    def validate(self):
        for block, defaults in DEFAULTS.items():
            for key, default in defaults.items():
                if isinstance(default, str):
                    continue
                value = getattr(self, block)[key]
                try:
                    _as_default_type(value, default)
                except (TypeError, ValueError, OverflowError):
                    kind = (
                        "a list of numbers" if isinstance(default, list)
                        else "an integer" if isinstance(default, int) else "a number"
                    )
                    raise ConfigurationError(f"{block}.{key} must be {kind}, got {value!r}") from None
        if self.model["name"] not in MODELS:
            raise ConfigurationError(f"unknown model.name {self.model['name']!r}")
        if self.model["terminal"] not in TERMINALS:
            raise ConfigurationError(f"unknown model.terminal {self.model['terminal']!r}")
        for key in ("M0", "sigma"):
            if not float(self.model[key]) > 0:
                raise ConfigurationError(f"model.{key} must be positive")
        if not float(self.model["kappa_c"]) >= 0:
            raise ConfigurationError("model.kappa_c must be nonnegative")
        grid = self.grid
        for key in ("N_x", "N_v", "N_t", "N_a"):
            if int(grid[key]) < 3:
                raise ConfigurationError(f"grid.{key} must be at least 3")
        for key in ("R_x", "R_v", "T", "A_max"):
            if float(grid[key]) <= 0:
                raise ConfigurationError(f"grid.{key} must be positive")
        if int(grid["N_a"]) % 2 == 0:
            raise ConfigurationError("grid.N_a must be odd so 0 is a control node")
        if self.measure["kind"] not in ("lattice", "gaussian"):
            raise ConfigurationError(f"unknown measure kind {self.measure['kind']!r}")
        if int(self.measure["n"]) < 1:
            raise ConfigurationError("measure.n must be positive")
        box = [[float(c) for c in pair] for pair in self.measure["box"]]
        if len(box) != 2 or any(len(pair) != 2 or not pair[0] < pair[1] for pair in box):
            raise ConfigurationError("measure.box must be two [lo, hi] pairs with lo < hi")
        s = self.solver
        if float(s["tol_fp"]) <= 0 or int(s["max_iter"]) < 1:
            raise ConfigurationError("solver.tol_fp must be positive and max_iter >= 1")
        if self.sweep["variant"] not in ("classical", "control"):
            raise ConfigurationError(f"unknown sweep variant {self.sweep['variant']!r}")
        ladder = [float(e) for e in self.sweep["eps_ladder"]]
        if not ladder or any(e <= 0 for e in ladder):
            raise ConfigurationError("sweep.eps_ladder must be positive")
        if any(ladder[i + 1] >= ladder[i] for i in range(len(ladder) - 1)):
            raise ConfigurationError("sweep.eps_ladder must be strictly decreasing")

    # -- factories ------------------------------------------------------------

    def build_spec(self) -> LagrangianSpec:
        m = self.model
        return make_lagrangian(
            m["name"],
            kappa_pot=float(m["kappa_pot"]),
            kappa_c=float(m["kappa_c"]),
            sigma=float(m["sigma"]),
            M0=float(m["M0"]),
        )

    def build_terminal(self) -> TerminalCost:
        return make_terminal(self.model["terminal"], float(self.model["terminal_amplitude"]))

    def build_grid(self) -> PhaseGrid:
        g = self.grid
        return PhaseGrid.regular(
            R_x=float(g["R_x"]),
            R_v=float(g["R_v"]),
            T=float(g["T"]),
            N_x=int(g["N_x"]),
            N_v=int(g["N_v"]),
            N_t=int(g["N_t"]),
        )

    def build_controls(self) -> ControlSet:
        return ControlSet.symmetric(float(self.grid["A_max"]), int(self.grid["N_a"]))

    def build_mu0(self, seed=None) -> ParticleEnsemble:
        m = self.measure
        box = tuple(tuple(float(c) for c in pair) for pair in m["box"])
        if m["kind"] == "lattice":
            return lattice_ensemble(int(m["n"]), box)
        return gaussian_ensemble(int(m["n"]), box, int(m["seed"] if seed is None else seed))

    def build_plan(self) -> SweepPlan:
        return SweepPlan(eps_ladder=tuple(float(e) for e in self.sweep["eps_ladder"]))

    def to_dict(self) -> dict:
        return copy.deepcopy(
            {
                "model": self.model,
                "grid": self.grid,
                "measure": self.measure,
                "solver": self.solver,
                "sweep": self.sweep,
            }
        )
