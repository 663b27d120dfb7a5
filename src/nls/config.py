"""Experiment configuration: a flat key = value file with dotted sections.

Lines are `dotted.key = value`; blank lines and # comments are ignored.
Values are parsed as booleans, integers, floats, bracketed lists of
numbers, or bare strings.  ``TABLE`` declares every key once, with its type
and default, and drives the unknown-key check (typos are hard errors, so
they cannot silently change an experiment), the defaults and the coercion:
a bool key takes only true/false, an int key only an integer, a float key
a finite integer or float (not nan or inf), a list key a list or a bare
scalar, and a str key its text as written.  A value the program cannot
use is a ConfigError naming its key or section.
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
from .field import (
    FromFile,
    Gaussian,
    GridSpec,
    InitialDataSpec,
    PlaneWave,
    QuadraticPhaseGaussian,
)
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


def _parse_value(text: str):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_parse_value(v) for v in inner.split(",")]
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    for number in (int, float):
        try:
            return number(text)
        except ValueError:
            pass
    return text


def parse_config_text(text: str) -> dict:
    """Flat dict of dotted keys -> parsed values; syntax errors carry line numbers.

    A str key of TABLE keeps its text, so `output_dir = 007` names 007/.
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
        if key in out:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        typ = TABLE.get(key, (None,))[0]
        out[key] = val.strip() if typ is str else _parse_value(val)
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
    "kind": (ExperimentKind, "single"),
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
    "initial.chirp_sign": (int, 1),
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

# parsed types each table type takes
_ACCEPTS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _coerce(typ, value):
    """The one coercion rule of each table type; [t] gives a tuple of t."""
    if isinstance(typ, list):  # a bare scalar is a one-element list
        items = value if isinstance(value, (list, tuple)) else [value]
        return tuple(_coerce(typ[0], v) for v in items)
    # an Enum takes its values; a value already of the key's type is taken again
    if type(value) is not typ and type(value) not in _ACCEPTS.get(typ, (str,)):
        raise TypeError(f"expected {typ.__name__}, got {value!r}")
    out = typ(value)  # an integer beyond double range raises OverflowError
    if typ is float and not math.isfinite(out):
        raise ValueError(f"expected a finite float, got {value!r}")
    return out


def _initial(i: dict) -> InitialDataSpec:
    amp = complex(i["amplitude_re"], i["amplitude_im"])
    if i["kind"] == "gaussian":
        return Gaussian(amp, i["width"])
    if i["kind"] == "plane_wave":
        if i["mode_index"] is None:
            raise ConfigError("plane_wave requires 'initial.mode_index'")
        return PlaneWave(amp, i["mode_index"])
    if i["kind"] == "quadratic_phase_gaussian":
        return QuadraticPhaseGaussian(amp, i["width"], i["chirp_sign"])
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

    The given keys (a file's, or a sweep cell's) are completed with their
    defaults, coerced and validated; ``keys`` keeps the result in TABLE order.
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
        keys = {}
        for key, (typ, default) in TABLE.items():
            value = self.keys.get(key, default)
            if value is REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
            keys[key] = None if value is None else _checked(key, _coerce, typ, value)
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
        axes = {a: sw[a] for a in SWEEP_AXES if sw[a] is not None}
        if sec["kind"] is ExperimentKind.SWEEP and not axes:
            raise ConfigError("kind = sweep requires at least one sweep.<axis>")
        if "amplitude" in axes and not isinstance(initial, Gaussian):
            raise ConfigError("sweep.amplitude requires initial.kind = gaussian")
        for name, vals in axes.items():
            if not vals:
                raise ConfigError(f"sweep axis {name!r} is empty")
        total = math.prod(len(v) for v in axes.values())
        if total > SWEEP_CAP:
            raise ConfigError(f"sweep of {total} runs exceeds cap {SWEEP_CAP}")
        sections = dict(
            keys=keys,
            kind=sec["kind"],
            output_dir=sec["output_dir"],
            model=model,
            grid=grid,
            solver=_checked("solver", SolverConfig, **sec["solver"]),
            initial=initial,
            probes=ProbeSet(
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


def load_config(
    path: Union[str, Path], kind: Optional[ExperimentKind] = None
) -> ExperimentConfig:
    """Parse and validate a config file.

    kind, when given, replaces the file's kind (which must still be valid).
    """
    given = parse_config_text(Path(path).read_text())
    unknown = sorted(set(given) - TABLE.keys())
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if kind is not None:
        if "kind" in given:
            _checked("kind", _coerce, ExperimentKind, given["kind"])
        given["kind"] = kind
    return ExperimentConfig(given)


def resolved_config_dict(cfg: ExperimentConfig) -> dict:
    """cfg's keys by section, defaults included, for echoing into summary.json.

    Every TABLE key appears once under its own name, so the echo written
    back as a config file rebuilds cfg.
    """
    return _sectioned({**cfg.keys, "kind": cfg.kind.value})
