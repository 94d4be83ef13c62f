"""The helper process: a run with a spare CPU (``driver._spare_cpu``) gets
one helper (``solver._Helper``), which writes the run's snapshot files and,
while it is not writing, steps the right half of each step's rows, as its
``Stepper`` sends them.

Whole runs with and without the helper give equal arrays and equal output
bytes, on both black-hole runs of the paper, on a reference (Dirichlet) run,
on a toy run whose packet crosses the cut and on a run whose steps mix split
and whole steps; a library run takes the helper by the same rule as a
command-line run, a run without a spare CPU forks nothing, nor does one whose
helper could get no work, a helper with nothing to split does not spin, two
runs with helpers that share two CPUs do not starve each other, and no
helper outlives its run, however the run ends.
"""

from __future__ import annotations

import gc
import os
import pickle
import resource
import signal
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ergosim as es
from ergosim import cli, driver, potentials, solver
from ergosim.driver import run
from ergosim.presets import get_preset

SRC = Path(cli.__file__).resolve().parents[1]


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _preset(name: str, label: str) -> es.SimConfig:
    (cfg,) = (c for c in get_preset(name).configs if c.label == label)
    return cfg


def _crossing_toy() -> es.SimConfig:
    """A split toy run (P != 0) with n = 6001, whose packet starts at x = 3 and
    moves left across the cut at x = 0."""
    return es.SimConfig(
        model="toy",
        toy=es.ToyParams(alpha=1.0, beta=0.2, smoothing=1.0),
        grid=es.Grid(x_min=-30.0, x_max=30.0, h=0.01, dt=0.01),
        t_final=6.0,
        data=es.DataSpec(kind="wave-packet", omega=0.5, x0=3.0, width=1.0, phase="plain"),
        bc=es.BoundaryMode.TRANSPARENT,
        probes=(-5.0,),
        snapshot_stride=400,
    )


class TestSameResults:
    @pytest.mark.parametrize(
        "case",
        [
            pytest.param(replace(_preset("rn-highenergy", "omega-100"), t_final=4.0,
                                 snapshot_stride=800), id="rn-highenergy-omega-100"),
            pytest.param(replace(_preset("rn-wavepacket", "omega-2.3"), t_final=10.0,
                                 snapshot_stride=1000), id="rn-wavepacket-omega-2.3"),
            pytest.param(_crossing_toy(), id="toy-crossing-the-cut"),
            # u = v = 0 at both ends of a grid enlarged to n = 27601
            pytest.param(replace(_preset("rn-wavepacket", "omega-2.3"), t_final=10.0,
                                 snapshot_stride=100, bc=es.BoundaryMode.REFERENCE),
                         id="rn-wavepacket-reference"),
            # n = 6251: steep fronts inside the overlap make the halves of
            # some split steps differ in the last bit (which of them split
            # depends on the helper's snapshot writes), and those steps are
            # taken again whole
            pytest.param(replace(_preset("rn-wavepacket", "omega-2.3"), t_final=100.0,
                                 grid=es.Grid(x_min=-500.0, x_max=500.0, h=0.16, dt=0.16)),
                         id="rn-wavepacket-h-0.16"),
        ],
    )
    def test_run_with_the_helper_is_the_run_without(self, case, tmp_path, monkeypatch, made):
        results, real_run = {}, cli.run
        for helper in (False, True):
            monkeypatch.setattr(driver, "_spare_cpu", lambda runs_in_flight: helper)
            monkeypatch.setattr(
                cli, "run", lambda cfg, **kw: results.setdefault(helper, real_run(cfg, **kw))
            )
            cli._execute(case, tmp_path / str(helper))
        assert [(s._helper is not None, s._k) for s in made] == [(False, None), (True, 42)]
        without, with_helper = (results[h].final_state for h in (False, True))
        assert np.array_equal(without.u, with_helper.u)
        assert np.array_equal(without.v, with_helper.v)
        assert _files(tmp_path / "False") == _files(tmp_path / "True")
        if case.model == "toy":  # the packet's peak crossed the cut
            assert case.data.x0 > 0.0 > case.grid.x[np.argmax(np.abs(without.u))]


    def test_a_run_mixes_split_and_whole_steps(self, tmp_path, monkeypatch, made):
        """Where every row is live, so that the window is all rows, the steps
        taken while the helper writes a snapshot are solved by this process
        alone over that window, the others split; only the first step, from
        a state that is not one of the stepper's pairs, solves whole, and
        the run is the run without the helper."""
        case = replace(_preset("rn-highenergy", "omega-100"), t_final=2.0, snapshot_stride=40)
        results, real_run = {}, cli.run
        whole, solve = [], solver._TridiagLU.solve
        monkeypatch.setattr(solver._TridiagLU, "solve",
                            lambda self, rhs: whole.append(self) or solve(self, rhs))
        for helper in (False, True):
            monkeypatch.setattr(driver, "_spare_cpu", lambda runs_in_flight: helper)
            monkeypatch.setattr(
                cli, "run", lambda cfg, **kw: results.setdefault(helper, real_run(cfg, **kw))
            )
            cli._execute(case, tmp_path / str(helper))
        lone, split = made
        assert split._helper is not None and split._k == 42
        assert split._window == (0, case.grid.n) and split.windowed_steps == 0
        assert whole.count(lone._lu) == case.n_steps
        assert whole.count(split._lu) == 1 and split.retaken_steps == 0
        assert 0 < split.split_steps < case.n_steps - 1  # and the other steps alone
        without, with_helper = (results[h].final_state for h in (False, True))
        assert np.array_equal(without.u, with_helper.u)
        assert np.array_equal(without.v, with_helper.v)
        assert _files(tmp_path / "False") == _files(tmp_path / "True")

    def test_none_spare_forks_nothing(self, tmp_path, monkeypatch, made):
        monkeypatch.setattr(driver, "_spare_cpu", lambda runs_in_flight: False)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        cli._execute(_crossing_toy(), tmp_path / "out")
        assert forks == []
        assert [s._helper for s in made] == [None]
        assert len(list((tmp_path / "out" / "snapshots").glob("snap_*.csv"))) == 3


def _against_lone(cfg: es.SimConfig, steps: int) -> tuple[solver.Stepper, list]:
    """Steps ``cfg``'s data ``steps`` times with a stepper that has a helper
    and with a lone one (:func:`_stepped_against_lone`)."""
    setup = driver.prepare(cfg)
    return _stepped_against_lone(setup.grid, setup.pp, setup.bc, setup.state, steps)


def _stepped_against_lone(grid, pp, bc, state, steps: int) -> tuple[solver.Stepper, list]:
    """Steps ``state`` ``steps`` times with a stepper that has a helper and
    with a lone one, and checks that every state has the lone stepper's
    bytes, signed zeros included; returns the first, closed, and its window
    after each step."""
    ours = solver.Stepper(grid, pp, bc, second_cpu=True)
    lone = solver.Stepper(grid, pp, bc)
    a, b, windows = state, state, []
    try:
        for _ in range(steps):
            a, b = ours.step(a), lone.step(b)
            assert a.u.tobytes() == b.u.tobytes() and a.v.tobytes() == b.v.tobytes()
            windows.append(ours._window)
    finally:
        ours.close()
    return ours, windows


class TestWindow:
    """A stepper with a helper steps only the rows of its window, which the
    field occupies, and its states are a lone stepper's to the bit."""

    def test_a_packet_in_the_right_half(self):
        """The transparent right end's closure makes -0 parts from +0 data,
        so the window reaches it from the first step on; every step after
        the first, whole one, is windowed, and the window grows with the
        field.  The window lies right of the middle row m and its overlap,
        so it is cut at its own middle; with no snapshot to write, the
        helper takes half of every windowed step."""
        cfg = _preset("rn-wavepacket", "omega-2.3")
        zero = np.zeros(cfg.grid.n, dtype=complex)
        setup = driver.prepare(cfg)
        after = solver.Stepper(setup.grid, setup.pp, setup.bc).step(es.FieldState(zero, zero))
        live = np.flatnonzero(np.concatenate([after.u, after.v]).view(np.uint64))
        assert sorted({(j // 2) % cfg.grid.n for j in live}) == [cfg.grid.n - 2, cfg.grid.n - 1]
        stepper, windows = _against_lone(cfg, 500)
        (first, _), (lo, hi) = windows[0], windows[-1]
        assert cfg.grid.n // 2 + stepper._k < lo < first and hi == cfg.grid.n
        assert stepper._shared_window.tolist() == [lo, hi]  # the window the helper reads
        assert (stepper.windowed_steps, stepper.retaken_steps) == (499, 0)
        assert stepper.split_steps == 499

    @pytest.mark.parametrize("x0", [250.0, -250.0])
    def test_a_reference_run(self, x0):
        """u = v = 0 at both ends of the enlarged grid, which all-+0 data
        leave +0, so the window has two edges, in the half of the packet."""
        cfg = replace(_preset("rn-wavepacket", "omega-2.3"), t_final=10.0,
                      bc=es.BoundaryMode.REFERENCE)
        cfg = replace(cfg, data=replace(cfg.data, x0=x0))
        stepper, windows = _against_lone(cfg, 250)
        (lo, hi), m = windows[-1], stepper.grid.n // 2
        assert (m < lo < hi < stepper.grid.n) if x0 > 0 else (0 < lo < hi < m)
        assert (stepper.windowed_steps, stepper.retaken_steps) == (249, 0)

    def test_a_packet_across_the_cut_splits_its_window(self, monkeypatch):
        started, go = [], solver._Helper.go
        monkeypatch.setattr(solver._Helper, "go",
                            lambda helper, p: started.append(go(helper, p)) or started[-1])
        cfg = _preset("rn-wavepacket", "omega-2.3")
        stepper, windows = _against_lone(replace(cfg, data=replace(cfg.data, x0=0.0)), 200)
        n, m, k = cfg.grid.n, cfg.grid.n // 2, stepper._k
        assert all(0 < lo < m - k and hi == n for lo, hi in windows)
        assert sum(started) == stepper.windowed_steps == 199  # the helper, not writing, took half

    def test_a_right_mover_widens_the_window_at_its_right_edge(self):
        """A packet moving right on a Dirichlet grid (n = 6001), whose window
        starts short of the right end: the field comes within the guard rows
        of the window's right edge, which widens by a chunk before the field
        reaches it, so no step is taken again.  The window widens after the
        helper is forked, and the cut, its middle, moves with it: the
        helper, which saw the stepper as it was at the fork, reads the new
        window from the memory they share (a half step at the old cut would
        fail the seam check and be taken again)."""
        g = es.Grid(x_min=-30.0, x_max=30.0, h=0.01, dt=0.01)
        u = np.exp(-((g.x + 10.0) ** 2))
        state = es.FieldState(u.astype(complex), (2.0 * (g.x + 10.0) * u).astype(complex))  # v = -u'
        stepper, windows = _stepped_against_lone(
            g, potentials.uniform_potentials(0.0, 0.0, g.x), es.BoundaryMode.DIRICHLET, state, 600)
        (lo, first), (_, last) = windows[0], windows[-1]
        assert lo == 0 and first < last < g.n
        assert (stepper.windowed_steps, stepper.retaken_steps) == (599, 0)
        assert stepper.split_steps == 599

    def test_a_field_at_the_edge_is_stepped_again_whole(self, monkeypatch):
        """With chunks of 8 rows and one guard row, the field reaches the
        window's edge before the window widens: those steps are taken again
        whole, and counted."""
        monkeypatch.setattr(solver, "_CHUNK", 8)
        monkeypatch.setattr(solver, "_GUARD", 1)
        stepper, _ = _against_lone(_preset("rn-wavepacket", "omega-2.3"), 100)
        assert stepper.retaken_steps > 0
        assert stepper.windowed_steps + stepper.retaken_steps == 99

    def test_the_scipy_binding(self, tmp_path, monkeypatch):
        monkeypatch.setattr(solver, "_LAPACK", solver._lapack(tmp_path))  # no library there
        assert solver._LAPACK.name == "scipy"
        stepper, _ = _against_lone(_preset("rn-wavepacket", "omega-2.3"), 100)
        assert stepper.windowed_steps == 99


class TestLibraryDefault:
    """``driver.run(cfg)`` with no keyword takes the helper by the rule that
    command-line runs follow, ``driver._spare_cpu``: here on two usable CPUs."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @pytest.fixture
    def forks(self, monkeypatch):
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        return forks

    def test_a_spare_cpu_forks_one_helper(self, made, forks, reaped):
        assert driver._spare_cpu(1)
        run(_crossing_toy())
        (stepper,) = made
        assert forks == [1]
        assert stepper._helper is not None and stepper._k == 42
        assert reaped(stepper._helper.pid)

    def test_two_runs_in_flight_fork_none(self, made, forks):
        assert not driver._spare_cpu(2)
        run(_crossing_toy(), runs_in_flight=2)
        assert forks == []
        assert [s._helper for s in made] == [None]

    def test_the_default_run_is_the_run_without_a_helper(self, made):
        default, without = run(_crossing_toy()), run(_crossing_toy(), runs_in_flight=2)
        assert [s._helper is not None for s in made] == [True, False]
        assert np.array_equal(default.final_state.u, without.final_state.u)
        assert np.array_equal(default.final_state.v, without.final_state.v)

    def test_a_helper_is_forked_only_where_it_can_get_work(self, made, forks, reaped):
        """A run whose grid does not split and that hands the helper no call
        forks none; the same run with a snapshot callback does, at its first
        call, and reaps it."""
        cfg = es.SimConfig(
            model="toy",
            toy=es.ToyParams(alpha=1.0, beta=0.0, smoothing=1.0),
            grid=es.Grid(x_min=-30.0, x_max=30.0, h=0.1, dt=0.1),  # n = 601
            t_final=12.0,
            data=es.DataSpec(kind="wave-packet", omega=0.0, x0=7.5, width=1.0, phase="plain"),
            bc=es.BoundaryMode.TRANSPARENT,
            probes=(15.0,),
        )
        idle = run(cfg)
        assert forks == []
        with_calls = run(cfg, snapshot_callback=lambda state: len)
        assert forks == [1]
        assert [(s._helper is not None, s._k) for s in made] == [(True, None)] * 2
        assert made[0]._helper.pid is None and reaped(made[1]._helper.pid)
        assert np.array_equal(idle.final_state.u, with_calls.final_state.u)

    def test_a_call_that_cannot_pickle_is_raised(self, made, reaped):
        """With a helper, the function a snapshot callback returns is pickled
        to it; a lambda cannot be, and the run raises and reaps its helper
        (forked by the first snapshot's call, of ``len``)."""
        with pytest.raises((pickle.PicklingError, AttributeError), match="pickle"):
            run(_crossing_toy(), snapshot_callback=lambda state: len if state.t == 0.0
                else lambda u: None)
        (stepper,) = made
        assert stepper._helper is not None
        assert reaped(stepper._helper.pid)


def _helper_cpu_s(helper: solver._Helper) -> float:
    """The CPU seconds that ``helper`` spends in half a second of idling,
    read from its rusage when ``close`` reaps it."""
    time.sleep(0.5)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    helper.close()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime


def test_a_helper_with_nothing_to_split_blocks():
    """A helper without ``step`` (a stepper below the split's crossover
    makes one) only runs calls, so it blocks on its pipe between them
    instead of spinning; a helper with ``step`` spins, which the same
    measure sees."""
    n = 1001
    for step, idle in ((None, True), (lambda p: None, False)):  # a stand-in half step
        helper = solver._Helper(n, step=step)
        helper.call(len, np.ones(n, dtype=complex))  # forks it at this first request
        helper.wait()
        if idle:
            assert _helper_cpu_s(helper) < 0.1
        else:
            assert _helper_cpu_s(helper) > 0.2


# Pins itself to the CPUs argv[1], prepares a shortened rn-highenergy
# omega = 100 run (n = 20001, 1000 steps), says "ready", and at a line on
# stdin runs it through driver.run with argv[2] runs in flight; prints the
# monotonic clock, which all processes share, at the run's start and end.
PAIR_SCRIPT = """
import os, sys, time
from dataclasses import replace
from ergosim.driver import run
from ergosim.presets import get_preset

os.sched_setaffinity(0, [int(cpu) for cpu in sys.argv[1].split(",")])
(cfg,) = (c for c in get_preset("rn-highenergy").configs if c.label == "omega-100")
cfg = replace(cfg, t_final=5.0)
print("ready", flush=True)
sys.stdin.readline()
start = time.monotonic()
run(cfg, runs_in_flight=int(sys.argv[2]))
print(start, time.monotonic())
"""


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="pins two runs to two CPUs",
)
def test_two_runs_with_helpers_on_two_cpus_do_not_starve():
    """Two runs that each take a helper, on the same two CPUs, so that four
    processes share them: each waiting side yields its CPU, so the pair
    takes less than twice as long as the same pair without helpers (without
    the yields, 3 to 11 times as long)."""
    cpus = ",".join(map(str, sorted(os.sched_getaffinity(0))[:2]))

    def pair(runs_in_flight: int) -> float:
        """The wall time of two such runs started together."""
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", PAIR_SCRIPT, cpus, str(runs_in_flight)], env=_env(),
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        try:
            for proc in procs:  # both have imported and prepared
                assert proc.stdout.readline() == "ready\n", proc.communicate()[1]
            for proc in procs:
                proc.stdin.write("go\n")
                proc.stdin.flush()
            spans = []
            for proc in procs:
                out, err = proc.communicate(timeout=120)
                assert proc.returncode == 0, err
                spans.append([float(t) for t in out.split()])
        finally:
            for proc in procs:
                proc.kill()
                proc.wait()
        return max(end for _, end in spans) - min(start for start, _ in spans)

    with_helpers, without = pair(1), pair(2)
    assert with_helpers < 2.0 * without, (with_helpers, without)


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def _env() -> dict[str, str]:
    """The environment of a Python child: this source tree first on its path,
    and BLAS pools of one thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _python(script: str, *args: str, **kwargs) -> tuple[subprocess.Popen, str, str]:
    """Run ``script`` to its end; the finished process, its stdout and stderr."""
    with subprocess.Popen(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", script, *args],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **kwargs,
    ) as proc:
        out, err = proc.communicate(timeout=120)
    return proc, out, err


# A toy run above the split's crossover, so that a run given a spare CPU gets
# a helper that splits its solves as well as writing its two snapshots.
HELPER_INI = """\
[model]
kind = toy

[grid]
x_min = -30
x_max = 30
h = 0.01
dt = 0.01

[run]
t_final = 0.5
bc = transparent
probes = 5
snapshot_stride = 1000
energy_stride = 10

[data]
kind = wave-packet
omega = 0.5
x0 = 6
width = 1
phase = plain

[toy]
alpha = 1
beta = 0.2
smoothing = 1
"""

# Runs `ergosim run` on argv[1] into argv[2] with a spare CPU, after a fault
# chosen by argv[3]; prints the pid of each helper process when it is forked,
# then exits with main's code.
CLI_SCRIPT = """
import sys
import numpy as np
from ergosim import cli, driver, solver
from ergosim.solver import Stepper

ini, out, fault = sys.argv[1:4]
original, steps = Stepper.step, [0]

def step(self, state):
    state = original(self, state)
    steps[0] += 1
    if steps[0] == 3 and fault == "inf":
        state.u[5] = np.inf
    if steps[0] == 3 and fault == "raise":
        raise RuntimeError("injected fault")
    return state

Stepper.step = step
driver._spare_cpu = lambda runs_in_flight: True
start = solver._Helper._start

def logged(self):  # returns in this process only, once the helper is forked
    start(self)
    print(self.pid, flush=True)

solver._Helper._start = logged
sys.exit(cli.main(["--output-dir", out, "--quiet", "run", ini]))
"""


class TestLifeCycle:
    @pytest.fixture(autouse=True)
    def deadline(self):
        """Fail, rather than hang, a test whose stepper waits on a lost helper."""

        def expire(signum, frame):
            raise TimeoutError("solve helper test ran past its deadline")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def test_reaped_after_a_run(self, monkeypatch, made, reaped):
        monkeypatch.setattr(driver, "_spare_cpu", lambda runs_in_flight: True)
        run(_crossing_toy())
        (stepper,) = made
        assert stepper._helper is not None
        assert reaped(stepper._helper.pid)

    def test_reaped_after_a_snapshot_callback_raises(self, monkeypatch, made, reaped):
        def callback(state):
            if state.t > 0.0:
                raise OSError("disk full")

        monkeypatch.setattr(driver, "_spare_cpu", lambda runs_in_flight: True)
        with pytest.raises(OSError, match="disk full"):
            run(_crossing_toy(), snapshot_callback=callback)
        (stepper,) = made
        assert stepper._helper is not None
        assert reaped(stepper._helper.pid)

    @pytest.mark.parametrize(
        "fault, code", [("none", 0), ("raise", 1), ("bad-config", 2), ("inf", 3)]
    )
    def test_no_process_outlives_ergosim_run(self, tmp_path, fault, code):
        """A real `ergosim run` in a process group of its own: whatever its
        exit code, nothing of the group is left when it has exited."""
        ini = tmp_path / "helper.ini"
        text = HELPER_INI if fault != "bad-config" else HELPER_INI.replace("h = 0.01", "h = -1")
        ini.write_text(text, encoding="utf-8")
        proc, out, err = _python(
            CLI_SCRIPT, str(ini), str(tmp_path / "out"), fault, start_new_session=True
        )
        assert proc.returncode == code, err
        assert len(out.split()) == (fault != "bad-config")  # the helpers' pids
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
        if fault == "inf":
            assert "numerical failure: non-finite field detected at step 3" in err

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
    def test_helper_ends_with_its_stepper_process(self):
        """A process that started helpers, one that splits and spins and one
        that only runs calls and blocks, and leaves by os._exit, calling
        neither close() nor a finalizer, takes both helpers with it."""
        script = """
import os
import numpy as np
from ergosim import potentials, solver

for n in (solver._SPLIT_MIN_N + 1, 1001):
    grid = solver.Grid(x_min=0.0, x_max=(n - 1) * 0.01, h=0.01, dt=0.01)
    pp = potentials.uniform_potentials(0.0, 0.0, grid.x)
    stepper = solver.Stepper(grid, pp, "dirichlet", second_cpu=True)
    assert (stepper._k is None) == (n == 1001)
    state = solver.FieldState(np.ones(n, dtype=complex), np.zeros(n, dtype=complex))
    state = stepper.step(stepper.step(state))  # the second one split, where it can
    stepper.call(len, state.u)
    print(stepper._helper.pid, flush=True)
os._exit(0)
"""
        proc, out, err = _python(script)
        assert proc.returncode == 0, err
        helpers = [int(pid) for pid in out.split()]
        assert len(helpers) == 2
        deadline = time.monotonic() + 1.0
        while any(map(_running, helpers)) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(map(_running, helpers))

    def test_a_dropped_stepper_reaps_its_helper_without_the_collector(self, reaped):
        """A splitting stepper dropped without ``close()`` stops and reaps its
        helper as soon as its last reference goes, through the helper's
        finalizer: once forked, the helper holds no reference back to its
        stepper (``steps``), so no cycle waits for the garbage collector."""
        n = solver._SPLIT_MIN_N + 1
        grid = solver.Grid(x_min=0.0, x_max=(n - 1) * 0.01, h=0.01, dt=0.01)
        pp = potentials.uniform_potentials(0.0, 0.0, grid.x)
        gc.disable()
        try:
            stepper = solver.Stepper(grid, pp, "dirichlet", second_cpu=True)
            assert stepper._k == 42
            state = solver.FieldState(np.ones(n, dtype=complex), np.zeros(n, dtype=complex))
            state = stepper.step(stepper.step(state))  # the second one splits: the fork
            pid = stepper._helper.pid
            assert pid is not None and not reaped(pid)
            del stepper
            assert reaped(pid)
        finally:
            gc.enable()

    def test_a_stepper_dropped_before_its_first_request_is_freed_at_once(self):
        """A splitting stepper dropped before it has sent its helper any
        request (nothing is forked yet) is freed as soon as its last reference
        goes: the helper's ``steps`` reaches its stepper through a weak
        reference, so no cycle waits for the garbage collector."""
        n = solver._SPLIT_MIN_N + 1
        grid = solver.Grid(x_min=0.0, x_max=(n - 1) * 0.01, h=0.01, dt=0.01)
        pp = potentials.uniform_potentials(0.0, 0.0, grid.x)
        gc.disable()
        try:
            stepper = solver.Stepper(grid, pp, "dirichlet", second_cpu=True)
            assert stepper._k == 42 and stepper._helper.pid is None
            alive = weakref.ref(stepper)
            del stepper
            assert alive() is None
        finally:
            gc.enable()

    def test_helper_forks_before_any_thread(self, tmp_path):
        """The helper is forked while the run has one Python thread (BLAS
        pools are kept to one thread here, as in the writer's test)."""
        script = """
import os, sys, threading
from pathlib import Path
from ergosim import cli, driver, solver
from ergosim.config import load_config

at_fork = []
os.register_at_fork(before=lambda: at_fork.append(threading.active_count()))
driver._spare_cpu = lambda runs_in_flight: True
made, init = [], solver.Stepper.__init__
solver.Stepper.__init__ = lambda self, *args, **kw: init(self, *args, **kw) or made.append(self)
cli._execute(load_config(Path(sys.argv[1])), Path(sys.argv[2]))
assert [(s._helper is not None, s._k) for s in made] == [(True, 42)], made
assert at_fork == [1], at_fork
"""
        ini = tmp_path / "helper.ini"
        ini.write_text(HELPER_INI, encoding="utf-8")
        proc, _, err = _python(script, str(ini), str(tmp_path / "out"))
        assert proc.returncode == 0, err
