"""Fault-injecting constructors for engine tests.

These are referenced by ``module:attr`` dotted paths (the registry's
escape hatch), so worker processes can import them by name.  Each
scheduler constructor returns a scheduler whose ``decide`` misbehaves
in a specific way, exercising one failure path of the pool.  Each
builder runs cleanly but lets one source of cross-run divergence into
its simulation — the defects the pool's worker-isolation differential
must report.
"""

from __future__ import annotations

import os
import signal
import time
import zlib

from repro.engine.registry import resolve_builder


class _RaisingScheduler:
    """Scheduler that raises deterministically on its first decision."""

    name = "raising"

    def decide(self, observation):
        raise RuntimeError("injected failure")


class _HangingScheduler:
    """Scheduler that sleeps far past any reasonable per-job timeout."""

    name = "hanging"

    def __init__(self, sleep_seconds: float):
        self.sleep_seconds = sleep_seconds

    def decide(self, observation):
        time.sleep(self.sleep_seconds)
        raise RuntimeError("should have been killed before waking")


class _SuicidalScheduler:
    """Scheduler that SIGKILLs its own process mid-job (simulated OOM)."""

    name = "suicidal"

    def decide(self, observation):
        os.kill(os.getpid(), signal.SIGKILL)


def make_raising(simulation):
    """Constructor for a job that fails deterministically."""
    del simulation
    return _RaisingScheduler()


def make_hanging(simulation, sleep_seconds: float = 60.0):
    """Constructor for a job that exceeds any small timeout."""
    del simulation
    return _HangingScheduler(sleep_seconds)


def make_crashing(simulation):
    """Constructor for a job whose worker dies without replying."""
    del simulation
    return _SuicidalScheduler()


#: Per-process build count: differs by job placement and by how many
#: jobs this process ran before.
_BUILDS = 0


def build_counted(seed: int = 0, **params):
    """Defect: a module-level counter feeds the seed."""
    global _BUILDS
    _BUILDS += 1
    return resolve_builder("planetlab")(seed=seed + _BUILDS, **params)


def build_set_ordered(seed: int = 0, **params):
    """Defect: set iteration order (string hashing) feeds the seed."""
    names = {f"pm-{index}" for index in range(8)}
    order = zlib.crc32("".join(names).encode()) % 997
    return resolve_builder("planetlab")(seed=seed + order, **params)


def build_ambient(seed: int = 0, **params):
    """Defect: a wall-clock read and an environment read feed the seed."""
    stamp = int(time.time() * 1e6) % 997
    kernel = os.environ.get("REPRO_KERNEL", "auto")
    return resolve_builder("planetlab")(
        seed=seed + stamp + len(kernel), **params
    )
