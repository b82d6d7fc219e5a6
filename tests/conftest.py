"""Fixtures that decide whether ``fit`` shares its passes with a helper process."""

import os

import pytest

from coact import pointprocess


@pytest.fixture
def forks(monkeypatch):
    """Make every ``fit`` fork its helper, whatever this machine's CPUs and
    this process's threads; returns the pids forked so far.

    Patching ``os.sched_getaffinity`` to one CPU on top gives the case
    without a helper.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(pointprocess, "_os_threads", lambda: 1)
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids

