"""Fixtures shared by the sweep tests."""

import pytest

from clinelab import explorer


@pytest.fixture
def fork_small_sweeps(monkeypatch):
    """Fork at jobs > 1 however few triples a sweep has, on two usable
    CPUs, so that small sweeps run the forked-worker path."""
    monkeypatch.setattr(explorer, "MIN_WORKER_TRIPLES", 1)
    monkeypatch.setattr(explorer.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
