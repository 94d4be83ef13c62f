"""Span tracing around ergosim's public entry points, from outside the program.

The wrappers live here, not in ``src/``: ``install`` replaces each attribute
listed in ``BOUNDARIES`` with a timing wrapper and returns what it replaced,
and ``restore`` puts every original back.  Spans are kept in memory as
``(name, start, end, parent, run_id)`` tuples and written out once, at exit.

Run as a script, this module is the traced child process:

    python3 perfbench/tracing.py SPANS.json -- <ergosim arguments>

It imports ``ergosim.cli`` (timed as ``cli.import``), installs the wrappers,
calls ``ergosim.cli.main(argv)`` (timed as ``cli.main``), restores the
wrappers and writes the spans and counts to SPANS.json.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

# (module, attribute path, span name).  Each attribute is patched where the
# caller looks it up: the CLI imported load_config/run/... into its own
# namespace, the driver calls diagnostics and initial_data through the module.
BOUNDARIES = (
    ("ergosim.cli", "load_config", "config.parse"),
    ("ergosim.cli", "load_sweep", "config.parse"),
    ("ergosim.cli", "serialize_config", "config.serialize"),
    ("ergosim.cli", "_execute", "cli.execute"),
    ("ergosim.cli", "run", "driver.run"),
    ("ergosim.config", "SimConfig.potentials", "potentials.build"),
    ("ergosim.potentials", "sample_grid", "geometry.sample_grid"),
    ("ergosim.initial_data", "build", "initial_data.build"),
    ("ergosim.solver", "Stepper.__init__", "solver.factor"),
    ("ergosim.solver", "Stepper.step", "solver.step"),
    ("ergosim.diagnostics", "energy_total", "diagnostics.energy"),
    ("ergosim.diagnostics", "energy_positive_zone", "diagnostics.zone"),
    ("ergosim.diagnostics", "FluxProbe.sample", "diagnostics.probe"),
)


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = {}
        self.run_id = 0
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, index: int, parent: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.run_id)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a span; ``on_result`` sees each return value."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, parent, name, start)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        index, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, parent, name, start)

    def count(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(value)


def _owner(module: str, path: str):
    obj = importlib.import_module(module)
    *owners, attr = path.split(".")
    for part in owners:
        obj = getattr(obj, part)
    return obj, attr


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Patch every boundary; returns (owner, attribute, original) for ``restore``."""
    patched = []
    for module, path, name in BOUNDARIES:
        owner, attr = _owner(module, path)
        original = vars(owner)[attr]
        wrapper = _wrapper_for(tracer, name, original)
        patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)
    return patched


def restore(patched: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


def _wrapper_for(tracer: Tracer, name: str, original):
    if name == "driver.run":
        # The snapshot callback handed to run() is the CLI's snapshot writer.
        inner = tracer.wrap(name, original)

        @functools.wraps(original)
        def run(cfg, **kwargs):
            callback = kwargs.get("snapshot_callback")
            if callback is not None:
                kwargs["snapshot_callback"] = tracer.wrap("cli.snapshot", callback)
            return inner(cfg, **kwargs)

        return run
    if name == "cli.execute":
        inner = tracer.wrap(name, original)

        @functools.wraps(original)
        def execute(*args, **kwargs):
            tracer.run_id += 1
            return inner(*args, **kwargs)

        return execute
    if name == "geometry.sample_grid":
        return tracer.wrap(
            name, original,
            on_result=lambda geom: tracer.count("geometry.clamped_nodes", geom.clamped.sum()),
        )
    return tracer.wrap(name, original)


# --- arithmetic on spans -----------------------------------------------------

def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, run_id in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent, run_id) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, reach, start), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- <ergosim arguments>", file=sys.stderr)
        return 2
    spans_path, cli_argv = Path(argv[0]), argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import ergosim.cli
    patched = install(tracer)
    try:
        with tracer.span("cli.main"):
            code = ergosim.cli.main(cli_argv)
    finally:
        restore(patched)
    spans_path.write_text(
        json.dumps({"exit_code": code, "counts": tracer.counts, "spans": tracer.spans}),
        encoding="utf-8",
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
