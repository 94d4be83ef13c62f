"""Simulation configuration: typed aggregate, INI-format parsing and writing.

The on-disk format is flat key = value text with one section per concern:

    [model]     kind = toy | rn | uniform
    [grid]      x_min, x_max, h, dt
    [run]       t_final, bc, probes (comma list), snapshot_stride,
                energy_stride, label
    [data]      kind, omega, x0, width, phase, support_tol
    [toy]       alpha, beta, smoothing          (toy models)
    [blackhole] mass, charge, r0                (rn models)
    [field]     q, m, l                         (rn models)
    [uniform]   v, p                            (uniform models)

A sweep file adds
    [sweep]     axis = omega | L | m | q | probe ; values = comma list
on top of a complete base configuration.

The keys of a section are the fields of the dataclass that holds it (``Grid``,
``DataSpec``, ``ToyParams``, ...; [run] and [sweep] are the plain fields of
``SimConfig`` and ``SweepSpec``).  A key whose field has a default may be left
out, except toy.smoothing; a key that is not a field is refused.

Serialization prints floats with 17 significant digits, so
parse(serialize(cfg)) reproduces cfg exactly.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import MISSING, astuple, dataclass, fields, replace
from operator import attrgetter

import numpy as np

from .diagnostics import _probe_index
from .geometry import BlackHole
from .initial_data import DataSpec
from .potentials import (
    FieldParams,
    PotentialPair,
    ToyParams,
    rn_potentials,
    toy_potentials,
    uniform_potentials,
)
from .solver import BoundaryMode, Grid, is_whole

__all__ = [
    "ConfigError",
    "SimConfig",
    "SweepSpec",
    "parse_config",
    "serialize_config",
    "parse_sweep",
    "serialize_sweep",
    "load_config",
    "load_sweep",
]


class ConfigError(ValueError):
    """A configuration field is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class _Model:
    """The [model] section."""

    kind: str


@dataclass(frozen=True)
class _Uniform:
    """The [uniform] section; ``SimConfig`` keeps it as the pair (v, p)."""

    v: float
    p: float


# model -> (the function that samples its potentials, then its own INI sections
# as (section, SimConfig attribute passed to that function, dataclass of the keys))
_MODELS = {
    "toy": (toy_potentials, ("toy", "toy", ToyParams)),
    "rn": (rn_potentials, ("blackhole", "bh", BlackHole), ("field", "fp", FieldParams)),
    "uniform": (lambda vp, x: uniform_potentials(*vp, x), ("uniform", "uniform", _Uniform)),
}
# sweep axis -> (model it needs, SimConfig attribute, field of it); the probe
# axis sets SimConfig.probes itself
_AXES = {
    "omega": (None, "data", "omega"),
    "L": ("toy", "toy", "smoothing"),
    "m": ("rn", "fp", "m"),
    "q": ("rn", "fp", "q"),
    "probe": (None, None, None),
}


@dataclass(frozen=True)
class SimConfig:
    """One fully-specified simulation."""

    model: str
    grid: Grid
    t_final: float
    data: DataSpec
    bc: BoundaryMode = BoundaryMode.TRANSPARENT
    probes: tuple[float, ...] = ()
    toy: ToyParams | None = None
    bh: BlackHole | None = None
    fp: FieldParams | None = None
    uniform: tuple[float, float] | None = None
    snapshot_stride: int = 50
    energy_stride: int = 25
    label: str = ""

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.grid.dt))

    def validate(self) -> None:
        if self.model not in _MODELS:
            raise ConfigError(
                f"model.kind: unknown model {self.model!r}, expected one of {tuple(_MODELS)}"
            )
        for section, attr, _ in _MODELS[self.model][1:]:
            if getattr(self, attr) is None:
                raise ConfigError(f"{section}: section required for {self.model} models")
        if self.t_final <= 0.0:
            raise ConfigError(f"run.t_final: must be positive, got {self.t_final}")
        if not is_whole(self.t_final / self.grid.dt):
            raise ConfigError(
                f"run.t_final: {self.t_final} is not a whole number of steps "
                f"of grid.dt = {self.grid.dt}"
            )
        if self.snapshot_stride < 1 or self.energy_stride < 1:
            raise ConfigError("run.snapshot_stride/energy_stride: must be >= 1")
        g = self.grid
        x = g.x
        nodes: dict[int, float] = {}
        for p in self.probes:
            if not (g.x_min + g.h <= p <= g.x_max - g.h):
                raise ConfigError(
                    f"run.probes: probe {p} outside the grid interior "
                    f"({g.x_min + g.h}, {g.x_max - g.h})"
                )
            j = _probe_index(p, x)
            if j in nodes:
                raise ConfigError(
                    f"run.probes: probes {nodes[j]} and {p} snap to the same grid node "
                    f"x = {x[j]:g}"
                )
            nodes[j] = p

    def potentials(self, x: np.ndarray) -> PotentialPair:
        """Sample this configuration's coefficient profiles on the grid ``x``."""
        build, *sections = _MODELS[self.model]
        args = [getattr(self, attr) for _, attr, _ in sections]
        return build(*args, x)


@dataclass(frozen=True)
class SweepSpec:
    """A one-axis family of runs derived from a base configuration."""

    base: SimConfig
    axis: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.axis not in _AXES:
            raise ConfigError(f"sweep.axis: unknown axis {self.axis!r}, expected {tuple(_AXES)}")
        if not self.values:
            raise ConfigError("sweep.values: must be nonempty")

    def configs(self) -> list[SimConfig]:
        return [self.apply(v) for v in self.values]

    def apply(self, value: float) -> SimConfig:
        base = self.base
        label = f"{base.label or base.model}-{self.axis}-{value:g}"
        model, attr, key = _AXES[self.axis]
        if model not in (None, base.model):
            raise ConfigError(f"sweep.axis: {self.axis} sweeps need model.kind = {model}")
        if attr is None:
            return replace(base, label=label, probes=(value,))
        return replace(base, label=label, **{attr: replace(getattr(base, attr), **{key: value})})


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _float(raw: str) -> float:
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(_float(p) for p in raw.split(",") if p.strip())


# Annotation of a key's field (a string: annotations are postponed) ->
# (INI text to value, value to INI text).
_CODECS = {
    "str": (str, str),
    "int": (int, str),
    "float": (_float, _fmt),
    "tuple[float, ...]": (_floats, lambda xs: ", ".join(_fmt(x) for x in xs)),
    "BoundaryMode": (BoundaryMode, attrgetter("value")),
}
# [run] holds the plain fields of SimConfig but the model, [sweep] those of SweepSpec.
_RUN_KEYS = tuple(f for f in fields(SimConfig) if f.type in _CODECS and f.name != "model")
_SWEEP_KEYS = tuple(f for f in fields(SweepSpec) if f.type in _CODECS)
# Files must give these keys although their fields have defaults: L = 1 is no neutral choice.
_REQUIRED = {"toy.smoothing"}


def _ini(text: str, what: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)  # a label may hold '%'
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed {what}: {exc}") from exc
    return cp


def _read(cp: configparser.ConfigParser, section: str, keys) -> dict:
    """The values of ``section``, one per field in ``keys``; keys left out
    are left to their fields' defaults."""
    if not cp.has_section(section):
        raise ConfigError(f"{section}: missing required section")
    given = dict(cp.items(section))
    names = [f.name for f in keys]
    for key in given:
        if key not in names:
            raise ConfigError(f"{section}.{key}: unknown key")
    values = {}
    for f in keys:
        name = f"{section}.{f.name}"
        if f.name not in given:
            if f.default is MISSING or name in _REQUIRED:
                raise ConfigError(f"{name}: missing required key")
            continue
        raw = given[f.name].strip()
        try:
            values[f.name] = _CODECS[f.type][0](raw)
        except ValueError as exc:
            raise ConfigError(f"{name}: cannot parse {raw!r} ({exc})") from exc
    return values


def _section(cp: configparser.ConfigParser, section: str, schema: type):
    """``section`` as an instance of the dataclass ``schema``."""
    values = _read(cp, section, fields(schema))
    try:
        return schema(**values)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _write(cp: configparser.ConfigParser, section: str, obj, keys=None) -> None:
    keys = keys or fields(obj)
    cp[section] = {f.name: _CODECS[f.type][1](getattr(obj, f.name)) for f in keys}


def _config(cp: configparser.ConfigParser) -> SimConfig:
    model = _section(cp, "model", _Model).kind
    parts = {"grid": _section(cp, "grid", Grid), "data": _section(cp, "data", DataSpec)}
    # an unknown model reads no sections of its own, and validate() refuses it
    for section, attr, schema in _MODELS.get(model, (None,))[1:]:
        obj = _section(cp, section, schema)
        parts[attr] = astuple(obj) if schema is _Uniform else obj
    cfg = SimConfig(model=model, **parts, **_read(cp, "run", _RUN_KEYS))
    cfg.validate()
    return cfg


def _config_ini(cfg: SimConfig) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    _write(cp, "model", _Model(cfg.model))
    _write(cp, "grid", cfg.grid)
    _write(cp, "run", cfg, _RUN_KEYS)
    _write(cp, "data", cfg.data)
    for section, attr, schema in _MODELS[cfg.model][1:]:
        obj = getattr(cfg, attr)
        _write(cp, section, _Uniform(*obj) if schema is _Uniform else obj)
    return cp


def _text(cp: configparser.ConfigParser) -> str:
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def parse_config(text: str) -> SimConfig:
    """Parse INI text into a validated :class:`SimConfig`."""
    return _config(_ini(text, "configuration"))


def serialize_config(cfg: SimConfig) -> str:
    """Render a :class:`SimConfig` back to INI text (17 significant digits)."""
    return _text(_config_ini(cfg))


def parse_sweep(text: str) -> SweepSpec:
    """Parse a sweep file: a complete base configuration plus a [sweep] section."""
    cp = _ini(text, "sweep file")
    return SweepSpec(base=_config(cp), **_read(cp, "sweep", _SWEEP_KEYS))


def serialize_sweep(spec: SweepSpec) -> str:
    cp = _config_ini(spec.base)
    _write(cp, "sweep", spec, _SWEEP_KEYS)
    return _text(cp)


def load_config(path) -> SimConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def load_sweep(path) -> SweepSpec:
    with open(path, encoding="utf-8") as fh:
        return parse_sweep(fh.read())
