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

Serialization prints floats with 17 significant digits, so
parse(serialize(cfg)) reproduces cfg exactly.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, replace

import numpy as np

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

MODELS = ("toy", "rn", "uniform")
SWEEP_AXES = ("omega", "L", "m", "q", "probe")


class ConfigError(ValueError):
    """A configuration field is missing, malformed, or inconsistent."""


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
        if self.model not in MODELS:
            raise ConfigError(f"model.kind: unknown model {self.model!r}")
        if self.model == "toy" and self.toy is None:
            raise ConfigError("toy: section required for toy models")
        if self.model == "rn" and (self.bh is None or self.fp is None):
            raise ConfigError("blackhole/field: sections required for rn models")
        if self.model == "uniform" and self.uniform is None:
            raise ConfigError("uniform: section required for uniform models")
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
        for p in self.probes:
            if not (g.x_min + g.h <= p <= g.x_max - g.h):
                raise ConfigError(
                    f"run.probes: probe {p} outside the grid interior "
                    f"({g.x_min + g.h}, {g.x_max - g.h})"
                )

    def potentials(self, x: np.ndarray | None = None) -> PotentialPair:
        """Sample this configuration's coefficient profiles (on ``x`` if given,
        else on the configured grid)."""
        if x is None:
            x = self.grid.x
        if self.model == "toy":
            return toy_potentials(self.toy, x)
        if self.model == "rn":
            return rn_potentials(self.bh, self.fp, x)
        return uniform_potentials(*self.uniform, x)


@dataclass(frozen=True)
class SweepSpec:
    """A one-axis family of runs derived from a base configuration."""

    base: SimConfig
    axis: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"sweep.axis: unknown axis {self.axis!r}, expected {SWEEP_AXES}")
        if not self.values:
            raise ConfigError("sweep.values: must be nonempty")

    def configs(self) -> list[SimConfig]:
        return [self.apply(v) for v in self.values]

    def apply(self, value: float) -> SimConfig:
        base = self.base
        label = f"{base.label or base.model}-{self.axis}-{value:g}"
        if self.axis == "omega":
            return replace(base, data=replace(base.data, omega=value), label=label)
        if self.axis == "L":
            if base.toy is None:
                raise ConfigError("sweep.axis: L sweeps need a toy model")
            return replace(base, toy=replace(base.toy, smoothing=value), label=label)
        if self.axis in ("m", "q"):
            if base.fp is None:
                raise ConfigError(f"sweep.axis: {self.axis} sweeps need an rn model")
            return replace(base, fp=replace(base.fp, **{self.axis: value}), label=label)
        return replace(base, probes=(value,), label=label)  # probe


def _fmt(x: float) -> str:
    return f"{x:.17g}"


_MISSING = object()


def _get(cp: configparser.ConfigParser, section: str, key: str, conv, default=_MISSING):
    if not cp.has_option(section, key):
        if default is _MISSING:
            raise ConfigError(f"{section}.{key}: missing required key")
        return default
    raw = cp.get(section, key).strip()
    try:
        return conv(raw)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r} ({exc})") from exc


def _floats(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    return tuple(float(p) for p in parts)


def parse_config(text: str) -> SimConfig:
    """Parse INI text into a validated :class:`SimConfig`."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc

    for section in ("model", "grid", "run", "data"):
        if not cp.has_section(section):
            raise ConfigError(f"{section}: missing required section")

    model = _get(cp, "model", "kind", str)
    if model not in MODELS:
        raise ConfigError(f"model.kind: unknown model {model!r}, expected one of {MODELS}")

    try:
        grid = Grid(
            x_min=_get(cp, "grid", "x_min", float),
            x_max=_get(cp, "grid", "x_max", float),
            h=_get(cp, "grid", "h", float),
            dt=_get(cp, "grid", "dt", float),
        )
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc

    try:
        data = DataSpec(
            kind=_get(cp, "data", "kind", str),
            omega=_get(cp, "data", "omega", float, 0.0),
            x0=_get(cp, "data", "x0", float, 0.0),
            width=_get(cp, "data", "width", float, 1.0),
            phase=_get(cp, "data", "phase", str, "scaled"),
            support_tol=_get(cp, "data", "support_tol", float, 1e-12),
        )
    except ValueError as exc:
        raise ConfigError(f"data: {exc}") from exc

    toy = bh = fp = uniform = None
    try:
        if model == "toy":
            toy = ToyParams(
                alpha=_get(cp, "toy", "alpha", float),
                beta=_get(cp, "toy", "beta", float, 0.0),
                smoothing=_get(cp, "toy", "smoothing", float),
            )
        elif model == "rn":
            bh = BlackHole(
                mass=_get(cp, "blackhole", "mass", float),
                charge=_get(cp, "blackhole", "charge", float),
                r0=_get(cp, "blackhole", "r0", float, 0.0),
            )
            fp = FieldParams(
                q=_get(cp, "field", "q", float),
                m=_get(cp, "field", "m", float, 0.0),
                l=_get(cp, "field", "l", int, 0),
            )
        else:
            uniform = (_get(cp, "uniform", "v", float), _get(cp, "uniform", "p", float))
    except ConfigError:
        raise
    except (ValueError, configparser.NoSectionError) as exc:
        raise ConfigError(f"{model} parameters: {exc}") from exc

    try:
        bc = BoundaryMode(_get(cp, "run", "bc", str, "transparent"))
    except ValueError as exc:
        raise ConfigError(f"run.bc: {exc}") from exc

    cfg = SimConfig(
        model=model,
        grid=grid,
        t_final=_get(cp, "run", "t_final", float),
        data=data,
        bc=bc,
        probes=_get(cp, "run", "probes", _floats, ()),
        toy=toy,
        bh=bh,
        fp=fp,
        uniform=uniform,
        snapshot_stride=_get(cp, "run", "snapshot_stride", int, 50),
        energy_stride=_get(cp, "run", "energy_stride", int, 25),
        label=_get(cp, "run", "label", str, ""),
    )
    cfg.validate()
    return cfg


def serialize_config(cfg: SimConfig) -> str:
    """Render a :class:`SimConfig` back to INI text (17 significant digits)."""
    cp = configparser.ConfigParser()
    cp["model"] = {"kind": cfg.model}
    g = cfg.grid
    cp["grid"] = {
        "x_min": _fmt(g.x_min), "x_max": _fmt(g.x_max), "h": _fmt(g.h), "dt": _fmt(g.dt)
    }
    cp["run"] = {
        "t_final": _fmt(cfg.t_final),
        "bc": cfg.bc.value,
        "probes": ", ".join(_fmt(p) for p in cfg.probes),
        "snapshot_stride": str(cfg.snapshot_stride),
        "energy_stride": str(cfg.energy_stride),
        "label": cfg.label,
    }
    d = cfg.data
    cp["data"] = {
        "kind": d.kind,
        "omega": _fmt(d.omega),
        "x0": _fmt(d.x0),
        "width": _fmt(d.width),
        "phase": d.phase,
        "support_tol": _fmt(d.support_tol),
    }
    if cfg.toy is not None:
        cp["toy"] = {
            "alpha": _fmt(cfg.toy.alpha),
            "beta": _fmt(cfg.toy.beta),
            "smoothing": _fmt(cfg.toy.smoothing),
        }
    if cfg.bh is not None:
        cp["blackhole"] = {
            "mass": _fmt(cfg.bh.mass),
            "charge": _fmt(cfg.bh.charge),
            "r0": _fmt(cfg.bh.r0),
        }
    if cfg.fp is not None:
        cp["field"] = {"q": _fmt(cfg.fp.q), "m": _fmt(cfg.fp.m), "l": str(cfg.fp.l)}
    if cfg.uniform is not None:
        cp["uniform"] = {"v": _fmt(cfg.uniform[0]), "p": _fmt(cfg.uniform[1])}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def parse_sweep(text: str) -> SweepSpec:
    """Parse a sweep file: a complete base configuration plus a [sweep] section."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed sweep file: {exc}") from exc
    if not cp.has_section("sweep"):
        raise ConfigError("sweep: missing required section")
    base = parse_config(text)
    return SweepSpec(
        base=base,
        axis=_get(cp, "sweep", "axis", str),
        values=_get(cp, "sweep", "values", _floats),
    )


def serialize_sweep(spec: SweepSpec) -> str:
    text = serialize_config(spec.base)
    return text + (
        f"[sweep]\naxis = {spec.axis}\nvalues = "
        + ", ".join(_fmt(v) for v in spec.values)
        + "\n\n"
    )


def load_config(path) -> SimConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def load_sweep(path) -> SweepSpec:
    with open(path, encoding="utf-8") as fh:
        return parse_sweep(fh.read())
