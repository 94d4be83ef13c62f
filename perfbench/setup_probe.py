"""Everything a run does before its first step, in a fresh process, then exit.

    python3 perfbench/setup_probe.py run|sweep CONFIG.ini

Imports ``ergosim.cli``, parses the configuration, samples the potentials,
builds the initial data and constructs the ``Stepper`` (which factors the
tridiagonal matrix).  A sweep does this for its first configuration, which is
what each pool worker does for its own run.  The benchmark times this process
from launch to exit as ``setup_s``.
"""

import sys


def main(verb: str, path: str) -> int:
    from ergosim.cli import load_config, load_sweep
    from ergosim import initial_data
    from ergosim.solver import Stepper

    cfg = load_config(path) if verb == "run" else load_sweep(path).configs()[0]
    cfg.validate()
    pp = cfg.potentials(cfg.grid.x)
    initial_data.build(cfg.data, cfg.grid.x, pp.v)
    Stepper(cfg.grid, pp, cfg.bc)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
