"""Run configuration: JSON blocks with defaults, strict key validation, and
factories for the objects the solvers consume."""

from __future__ import annotations

import dataclasses
import inspect
import json
import math

from .analysis import SweepPlan, run_sweep
from .errors import ConfigurationError
from .hjb import BASE_A_MAX, BASE_N_A, ControlSet, PhaseGrid
from .measures import ParticleEnsemble, gaussian_ensemble, lattice_ensemble
from .mfg import _MEMORY, solve_eps_system
from .model import MODELS, TERMINALS, LagrangianSpec, TerminalCost, make_lagrangian, make_terminal


def _defaults(fn, *keys, **renamed):
    """fn's parameter defaults, each under its name or under the key that renames
    it (renamed maps a config key to a parameter), tuples as JSON lists."""
    params = inspect.signature(fn).parameters
    as_json = lambda v: [as_json(item) for item in v] if isinstance(v, tuple) else v
    return {key: as_json(params[renamed.get(key, key)].default) for key in (*keys, *renamed)}


# the API's own defaults; only the measure's kind (lattice | gaussian) and size are the config's
DEFAULTS = {
    "model": {
        **_defaults(make_lagrangian, "name", "kappa_pot", "kappa_c", "sigma", "M0"),
        **_defaults(make_terminal, terminal="name", terminal_amplitude="amplitude"),
    },
    "grid": {
        **_defaults(PhaseGrid.regular, "R_x", "R_v", "N_x", "N_v", "N_t"),
        "N_a": BASE_N_A,
        "A_max": BASE_A_MAX,
        **_defaults(PhaseGrid.regular, "T"),
    },
    "measure": {"kind": "lattice", "n": 2000, **_defaults(gaussian_ensemble, "box", "seed")},
    "solver": _defaults(solve_eps_system, "tol_fp", "max_iter"),
    "sweep": {**_defaults(SweepPlan, "eps_ladder"), **_defaults(run_sweep, "variant")},
}

# bytes a run's arrays may take, as RunConfig.validate estimates them: values
# (8 per node), the semi-Lagrangian operators (about 60 per phase node and
# control), the particle flows, a coupled run's Anderson history and a control
# sweep's joint-W1 cost matrix (8 n^2); a larger run is a configuration error,
# not an allocation failure. The artifact writers stream a chunk of rows at a
# time, so the budget covers writing value.csv too. A backward step's candidate
# rows are bounded by hjb.CANDIDATE_CHUNK_BYTES per CPU, not by N_a, so the
# estimate leaves them out.
GRID_MEMORY_BUDGET = 8 * 2**30
# bytes per particle and time node: 16 for a float64 (t, x, v) flow, 8 for a position
# flow. A coupled sweep holds 64, three joint and two position flows' worth: a Picard
# loop's last transport (16); its iterate, best iterate, and the mixing's residual, step
# and next iterate (8 each); the limit flow (8, or 16 in a control sweep); and a float32
# Anderson history of _MEMORY pairs and the pending pair. Traced peaks on a 21x17 grid:
# 54 N_t n decoupled, 112 coupled (N_t 201, n 10,000), 124 coupled control (1601, 2,000).
FLOW_BYTES = 16 * 5
ANDERSON_BYTES = 8 * (_MEMORY + 1)

# what a value must be, by the type of its default
_KINDS = {list: "a list of numbers", str: "a string", int: "an integer", float: "a number"}


def _as_default_type(value, default):
    """Cast value to the type of its default (str, float, int, or nested lists of
    them); raises TypeError, ValueError or OverflowError when it cannot: a string
    where the default is a number or the reverse, a fractional value where it is
    an int, and a NaN or an infinity (Python's json parses both)."""
    if isinstance(default, list):
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {type(value).__name__}")
        return [_as_default_type(item, default[0]) for item in value]
    if isinstance(value, str) != isinstance(default, str):
        raise TypeError(f"expected {type(default).__name__}, got {type(value).__name__}")
    cast = type(default)(value)
    if isinstance(default, int) and cast != float(value):
        raise ValueError(f"{value!r} is not an integer")
    if isinstance(default, float) and not math.isfinite(cast):
        raise ValueError(f"{value!r} is not finite")
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


@dataclasses.dataclass(frozen=True)
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
            with open(path, encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def default(cls) -> "RunConfig":
        return cls.from_dict({})

    def validate(self):
        """Check every value and store each as the type of its default."""
        for block, defaults in DEFAULTS.items():
            values = getattr(self, block)
            for key, default in defaults.items():
                try:
                    values[key] = _as_default_type(values[key], default)
                except (TypeError, ValueError, OverflowError):
                    raise ConfigurationError(
                        f"{block}.{key} must be {_KINDS[type(default)]}, got {values[key]!r}"
                    ) from None
        model, grid, measure, s = self.model, self.grid, self.measure, self.solver
        if model["name"] not in MODELS:
            raise ConfigurationError(f"unknown model.name {model['name']!r}")
        if model["terminal"] not in TERMINALS:
            raise ConfigurationError(f"unknown model.terminal {model['terminal']!r}")
        for key in ("M0", "sigma"):
            if model[key] <= 0:
                raise ConfigurationError(f"model.{key} must be positive")
        if model["kappa_c"] < 0:
            raise ConfigurationError("model.kappa_c must be nonnegative")
        for key in ("N_x", "N_v", "N_t", "N_a"):
            if grid[key] < 3:
                raise ConfigurationError(f"grid.{key} must be at least 3")
        for key in ("R_x", "R_v", "T", "A_max"):
            if grid[key] <= 0:
                raise ConfigurationError(f"grid.{key} must be positive")
        if grid["N_a"] % 2 == 0:
            raise ConfigurationError("grid.N_a must be odd so 0 is a control node")
        if measure["kind"] not in ("lattice", "gaussian"):
            raise ConfigurationError(f"unknown measure kind {measure['kind']!r}")
        if measure["n"] < 1:
            raise ConfigurationError("measure.n must be positive")
        if measure["seed"] < 0:
            raise ConfigurationError("measure.seed must be nonnegative")
        box = measure["box"]
        if len(box) != 2 or any(len(pair) != 2 or not pair[0] < pair[1] for pair in box):
            raise ConfigurationError("measure.box must be two [lo, hi] pairs with lo < hi")
        if s["tol_fp"] <= 0 or s["max_iter"] < 1:
            raise ConfigurationError("solver.tol_fp must be positive and max_iter >= 1")
        if self.sweep["variant"] not in ("classical", "control"):
            raise ConfigurationError(f"unknown sweep variant {self.sweep['variant']!r}")
        need = grid["N_x"] * grid["N_v"] * (8 * grid["N_t"] + 60 * grid["N_a"])
        per_particle = FLOW_BYTES + (ANDERSON_BYTES if model["kappa_c"] > 0 else 0)
        need += per_particle * grid["N_t"] * measure["n"]
        if self.sweep["variant"] == "control":
            need += 8 * measure["n"] ** 2
        if need > GRID_MEMORY_BUDGET:
            raise ConfigurationError(
                f"grid needs about {need / 2**30:.3g} GiB (N_x N_v (8 N_t + 60 N_a) bytes, plus "
                f"{FLOW_BYTES} N_t n for the particle flows, {ANDERSON_BYTES} N_t n more if "
                f"kappa_c > 0 and 8 n^2 for a control sweep's joint-W1 cost matrix), more than "
                f"the {GRID_MEMORY_BUDGET / 2**30:.3g} GiB budget"
            )
        ladder = self.sweep["eps_ladder"]
        if not ladder or any(e <= 0 for e in ladder):
            raise ConfigurationError("sweep.eps_ladder must be positive")
        if any(ladder[i + 1] >= ladder[i] for i in range(len(ladder) - 1)):
            raise ConfigurationError("sweep.eps_ladder must be strictly decreasing")

    # -- factories ------------------------------------------------------------

    def build_spec(self) -> LagrangianSpec:
        m = self.model
        return make_lagrangian(
            m["name"], kappa_pot=m["kappa_pot"], kappa_c=m["kappa_c"], sigma=m["sigma"], M0=m["M0"]
        )

    def build_terminal(self) -> TerminalCost:
        return make_terminal(self.model["terminal"], self.model["terminal_amplitude"])

    def build_grid(self) -> PhaseGrid:
        g = self.grid
        return PhaseGrid.regular(
            R_x=g["R_x"], R_v=g["R_v"], T=g["T"], N_x=g["N_x"], N_v=g["N_v"], N_t=g["N_t"]
        )

    def build_controls(self) -> ControlSet:
        return ControlSet.symmetric(self.grid["A_max"], self.grid["N_a"])

    def build_mu0(self) -> ParticleEnsemble:
        m = self.measure
        if m["kind"] == "lattice":
            return lattice_ensemble(m["n"], m["box"])
        return gaussian_ensemble(m["n"], m["box"], m["seed"])

    def build_plan(self) -> SweepPlan:
        return SweepPlan(eps_ladder=tuple(self.sweep["eps_ladder"]))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)
