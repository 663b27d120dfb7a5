"""Experiment configuration: a flat key = value file with dotted sections.

Lines are `dotted.key = value`; blank lines and # comments are ignored.
``TABLE`` declares every key once, with its type and default.  A key not in
the table is an error on its line (typos are hard errors, so they cannot
silently change an experiment), and each value is read by its key's type:
a bool key takes only true/false, an int key only an integer literal, a
float key a finite number (not nan or inf), a list key `[a, b]` or a bare
item, and a str key its text as written.  The file's `kind` alone chooses
the experiment.  A value the program cannot use is a ConfigError naming its
key or section.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional, Union, get_type_hints

from .diagnostics import CutoffFamily, ProbeSet, default_lambdas
from .exponents import ModelParams
from .field import FromFile, Gaussian, GridSpec, InitialDataSpec, PlaneWave
from .solver import SolverConfig


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


class ExperimentKind(Enum):
    SINGLE = "single"
    SWEEP = "sweep"
    PCT_CHECK = "pct-check"
    LINEAR_CONFINEMENT = "linear-confinement"


# sweep axis -> the key that each cell of the axis sets to one of its values
SWEEP_AXES = {
    "alpha": "model.alpha",
    "kappa_im": "model.kappa_im",
    "amplitude": "initial.amplitude_re",
    "points": "grid.points",
    "dt": "solver.dt",
}


SWEEP_CAP = 512  # most cells one sweep may run


def parse_config_text(text: str) -> dict:
    """Flat dict of TABLE keys -> values read by their types.

    Syntax errors and unknown keys carry line numbers; a bad value is a
    ConfigError starting `<key>: expected`.
    """
    out: dict = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {ln}: empty key")
        if key not in TABLE:
            raise ConfigError(f"line {ln}: unknown config key {key!r}")
        if key in out:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        out[key] = _checked(key, _parse, TABLE[key][0], val.strip())
    return out


REQUIRED = dataclasses.MISSING  # the default of a key that must be given


def _fields(section: str, cls) -> dict:
    """Rows of a section whose keys are the fields of cls, with its defaults."""
    hints = get_type_hints(cls)
    return {
        f"{section}.{f.name}": (hints[f.name], f.default) for f in dataclasses.fields(cls)
    }


# key -> (type, default); [t] is a list of t; None: read by some runs only
TABLE = {
    "kind": (ExperimentKind, ExperimentKind.SINGLE),
    "output_dir": (str, "runs/out"),
    "model.dim": (int, REQUIRED),
    "model.alpha": (float, REQUIRED),
    "model.kappa_re": (float, 0.0),
    "model.kappa_im": (float, 0.0),
    "grid.box_length": (float, REQUIRED),
    "grid.points": (int, REQUIRED),
    **_fields("solver", SolverConfig),
    "initial.kind": (str, REQUIRED),
    "initial.amplitude_re": (float, 1.0),
    "initial.amplitude_im": (float, 0.0),
    "initial.width": (float, 1.0),
    "initial.mode_index": ([int], None),
    "initial.path": (str, None),
    "probes.median_radius": (bool, True),
    "probes.weighted_l2": (bool, True),
    "probes.localized_mass": (bool, False),
    "probes.scatter": (bool, False),
    "probes.checkpoint_every": (int, 0),
    "probes.lambdas": ([float], ()),  # empty: default_lambdas(box, width)
    "pct.t_star": (float, 0.5),
    "confinement.times": ([float], (1.0, 2.0, 4.0, 8.0)),
}
# sweep.<axis> is a list of values of the key the axis sets
TABLE.update({f"sweep.{a}": ([TABLE[key][0]], None) for a, key in SWEEP_AXES.items()})


def _parse(typ, text: str):
    """text read as a value of table type typ; [t] gives a tuple of t."""
    if isinstance(typ, list):  # [a, b], or a bare item as a one-item list
        if not (text.startswith("[") and text.endswith("]")):
            return (_parse(typ[0], text),)
        inner = text[1:-1].strip()
        return tuple(_parse(typ[0], v.strip()) for v in inner.split(",")) if inner else ()
    try:
        if typ is bool:
            value = {"true": True, "false": False}[text.lower()]
        else:  # str keeps its text; int rejects "2.0"; an Enum takes its values
            value = typ(text)
    except (KeyError, ValueError):
        if issubclass(typ, Enum):
            raise ValueError(
                f"expected one of {', '.join(m.value for m in typ)}, got {text!r}"
            ) from None
        raise ValueError(f"expected {typ.__name__}, got {text!r}") from None
    if typ is float and not math.isfinite(value):
        raise ValueError(f"expected a finite float, got {text!r}")
    return value


def _initial(i: dict) -> InitialDataSpec:
    amp = complex(i["amplitude_re"], i["amplitude_im"])
    if i["kind"] == "gaussian":
        return Gaussian(amp, i["width"])
    if i["kind"] == "plane_wave":
        if i["mode_index"] is None:
            raise ConfigError("plane_wave requires 'initial.mode_index'")
        return PlaneWave(amp, i["mode_index"])
    if i["kind"] == "file":
        if i["path"] is None:
            raise ConfigError("file initial data requires 'initial.path'")
        return FromFile(i["path"])
    raise ConfigError(f"unknown initial.kind {i['kind']!r}")


def _checked(where: str, make, *args, **kwargs):
    """make(*args, **kwargs); a ValueError, TypeError or OverflowError is a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _sectioned(keys: dict) -> dict:
    """Dotted keys nested by section, in key order; top-level keys stay on top."""
    out: dict = {}
    for key, value in keys.items():
        section, _, name = key.rpartition(".")
        (out.setdefault(section, {}) if section else out)[name] = value
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """The resolved TABLE keys of one experiment, and typed sections read from them.

    The given keys (a file's, or a sweep cell's) hold values of their TABLE
    types; they are completed with their defaults and validated, and
    ``keys`` keeps the result in TABLE order.
    """

    keys: dict
    kind: ExperimentKind = field(init=False)
    output_dir: str = field(init=False)
    model: ModelParams = field(init=False)
    grid: GridSpec = field(init=False)
    solver: SolverConfig = field(init=False)
    initial: InitialDataSpec = field(init=False)
    probes: ProbeSet = field(init=False)
    sweep: Optional[dict] = field(init=False)  # axis -> values; None: no axis
    pct_t_star: float = field(init=False)
    confinement_times: tuple = field(init=False)

    def __post_init__(self):
        keys = {key: self.keys.get(key, default) for key, (_, default) in TABLE.items()}
        for key, value in keys.items():
            if value is REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
        sec = _sectioned(keys)
        m, p, sw = sec["model"], sec["probes"], sec["sweep"]
        kappa = complex(m["kappa_re"], m["kappa_im"])
        model = _checked("model", ModelParams, m["dim"], m["alpha"], kappa)
        grid = _checked("grid", GridSpec, m["dim"], **sec["grid"])
        initial = _checked("initial", _initial, sec["initial"])
        cutoffs = None
        if p["localized_mass"]:
            width = getattr(initial, "width", 1.0)
            lams = p["lambdas"] or default_lambdas(grid.box_length, width)
            cutoffs = _checked("probes.lambdas", CutoffFamily.build, grid.dim, lams)
            keys["probes.lambdas"] = cutoffs.lambdas
        elif p["lambdas"]:
            raise ConfigError("probes.lambdas needs probes.localized_mass = true")
        axes = {a: sw[a] for a in SWEEP_AXES if sw[a] is not None}
        if sec["kind"] is ExperimentKind.SWEEP and not axes:
            raise ConfigError("kind = sweep requires at least one sweep.<axis>")
        if sec["kind"] is not ExperimentKind.SWEEP and axes:
            raise ConfigError(
                f"sweep.{next(iter(axes))} needs kind = sweep; "
                f"kind = {sec['kind'].value} runs no sweep"
            )
        if "amplitude" in axes and not isinstance(initial, Gaussian):
            raise ConfigError("sweep.amplitude requires initial.kind = gaussian")
        for name, vals in axes.items():
            if not vals:
                raise ConfigError(f"sweep axis {name!r} is empty")
        total = math.prod(len(v) for v in axes.values())
        if total > SWEEP_CAP:
            raise ConfigError(f"sweep of {total} runs exceeds cap {SWEEP_CAP}")
        # a cell at alpha >= 2/N is classified from its scatter column alone
        top = max(axes.get("alpha", (model.alpha,)))
        if axes and not p["scatter"] and top >= 2.0 / model.dim:
            raise ConfigError(
                f"probes.scatter = true is needed to classify a sweep cell with "
                f"alpha = {top} >= 2/N = {2.0 / model.dim:g}"
            )
        sections = dict(
            keys=keys,
            kind=sec["kind"],
            output_dir=sec["output_dir"],
            model=model,
            grid=grid,
            solver=_checked("solver", SolverConfig, **sec["solver"]),
            initial=initial,
            probes=_checked(
                "probes",
                ProbeSet,
                cutoffs=cutoffs,
                median_radius=p["median_radius"],
                weighted_l2=p["weighted_l2"],
                scatter=p["scatter"],
                store_states_every=p["checkpoint_every"],
            ),
            sweep=axes or None,
            pct_t_star=sec["pct"]["t_star"],
            confinement_times=sec["confinement"]["times"],
        )
        for name, value in sections.items():
            object.__setattr__(self, name, value)

    def cell(self, point: dict) -> "ExperimentConfig":
        """The single run of one sweep point: each axis value set on its key."""
        cleared = dict.fromkeys(f"sweep.{axis}" for axis in SWEEP_AXES)
        values = {SWEEP_AXES[axis]: value for axis, value in point.items()}
        keys = {**self.keys, **cleared, **values, "kind": ExperimentKind.SINGLE}
        return ExperimentConfig(keys)

    def points(self) -> list:
        """The sweep's cells as axis -> value dicts, the first axis slowest."""
        out = [dict()]
        for name, vals in self.sweep.items():
            out = [{**d, name: v} for d in out for v in vals]
        return out


def load_config(path: Union[str, Path]) -> ExperimentConfig:
    """Parse and validate a config file."""
    return ExperimentConfig(parse_config_text(Path(path).read_text(encoding="utf-8")))


def resolved_config_dict(cfg: ExperimentConfig) -> dict:
    """cfg's keys by section, defaults included, for echoing into summary.json.

    Every TABLE key appears once under its own name, so the echo written
    back as a config file rebuilds cfg.
    """
    return _sectioned({**cfg.keys, "kind": cfg.kind.value})
