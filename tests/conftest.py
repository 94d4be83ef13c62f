"""Fixtures shared by the tests of the run's helper process."""

from __future__ import annotations

import os

import pytest

from ergosim import solver


@pytest.fixture
def made(monkeypatch):
    """Every ``Stepper`` built in this process, in order.  ``stepper._helper``
    is its ``solver._Helper`` (None without ``second_cpu``), whose process
    has the pid ``stepper._helper.pid`` once forked, and ``stepper._k`` the
    overlap of its split (None where it does not split)."""
    steppers, init = [], solver.Stepper.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        steppers.append(self)

    monkeypatch.setattr(solver.Stepper, "__init__", record)
    return steppers


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
