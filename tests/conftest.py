"""Shared test configuration: hypothesis draws the same examples every run,
and the sweep tests set the CPU set and record the sweep's worker pools."""

import os

import pytest
from hypothesis import settings

import mwls.harness

# Derandomized draws keep the tolerance-based properties from flaking between
# runs; deadline=None because the first example pays numpy's warm-up.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def use_cpus(monkeypatch):
    """Let the process run on n CPUs, as `taskset` would: use_cpus(n)."""

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return use


@pytest.fixture
def sweep_pools(monkeypatch):
    """The worker count of each pool `convergence_study` opens, in order."""
    sizes = []

    class Recorded(mwls.harness.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(mwls.harness, "ThreadPoolExecutor", Recorded)
    return sizes
