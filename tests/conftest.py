"""Fixtures that choose how a large enumeration level is expanded.

``enumeration._may_split`` reads the CPUs the process may run on from
``os.sched_getaffinity``.  ``one_cpu`` makes every level run in this process;
``two_cpus`` lets a level of at least ``SPLIT_CHILDREN`` children fork its
worker on any machine, and records the share each worker took.
"""

import os

import pytest

from decgraph import enumeration


@pytest.fixture
def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.fixture
def two_cpus(monkeypatch):
    """The share of each worker forked while the test runs, in order."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    shares = []

    class Recorded(enumeration._Worker):
        def __init__(self, share, delta, permute):
            shares.append(share)
            super().__init__(share, delta, permute)

    monkeypatch.setattr(enumeration, "_Worker", Recorded)
    return shares
