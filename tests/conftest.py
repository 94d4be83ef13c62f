"""Fixtures shared by the tests of the run's helper process."""

from __future__ import annotations

import os

import pytest

from ergosim import solver


@pytest.fixture
def made(monkeypatch):
    """Every LU that a stepper builds in this process, in order; a
    ``solver._SplitLU``'s helper process has the pid ``lu.pid``."""
    lus, factor = [], solver._factor
    monkeypatch.setattr(solver, "_factor", lambda *args: lus.append(factor(*args)) or lus[-1])
    return lus


def _reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def reaped():
    """``reaped(pid)``: whether ``pid``, a child of this process, has been
    waited for (``os.waitpid`` would reap, and return, one that was not)."""
    return _reaped
