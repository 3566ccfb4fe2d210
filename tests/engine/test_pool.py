"""Tests for the worker pool: determinism, ordering, and fault isolation.

The parallel tests spawn real worker processes, so the simulations are
kept tiny (a few PMs, a handful of steps) and the pool small (2 workers).
"""

import json

import pytest

from repro.engine import events as ev
from repro.engine.cache import ResultCache
from repro.engine.events import EventJournal
from repro.engine.jobs import JobSpec, content_hash
from repro.engine.pool import (
    STATUS_CRASHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    ExecutionEngine,
    require_ok,
    run_jobs,
)
from repro.engine.registry import BUILDER_REGISTRY, SCHEDULER_REGISTRY
from repro.engine.serialize import result_to_dict
from repro.errors import ConfigurationError, EngineError

BUILDER_PARAMS = {"num_pms": 4, "num_vms": 6, "num_steps": 10}

#: One tiny fleet per registered builder, for the isolation differential.
DIFFERENTIAL_FLEETS = {
    "planetlab": {"num_pms": 4, "num_vms": 6, "num_steps": 10},
    "google": {"num_pms": 4, "num_vms": 8, "num_steps": 10},
    "churn": {
        "num_pms": 4, "capacity": 6, "initial_vms": 3, "num_steps": 10,
    },
}

#: Seeded-defect builders (tests/engine/faulty.py) the differential
#: must report: module state, set order, wall clock plus environment.
SEEDED_DEFECTS = ("build_counted", "build_set_ordered", "build_ambient")


def differential_specs():
    """Every registered builder x scheduler, then the seeded defects."""
    specs = [
        JobSpec.create(
            builder,
            scheduler,
            seed=1,
            num_steps=10,
            builder_params=params,
            tag=f"{builder}/{scheduler}",
        )
        for builder, params in DIFFERENTIAL_FLEETS.items()
        for scheduler in sorted(SCHEDULER_REGISTRY)
    ]
    specs.extend(
        JobSpec.create(
            f"tests.engine.faulty:{defect}",
            "noop",
            seed=1,
            num_steps=10,
            builder_params=BUILDER_PARAMS,
            tag=defect,
        )
        for defect in SEEDED_DEFECTS
    )
    return specs


def result_bytes(job_result):
    """Canonical result JSON without its one wall-time field."""
    assert job_result.ok, job_result.error
    data = result_to_dict(job_result.result)
    for step in data["steps"]:
        del step["scheduler_seconds"]
    return json.dumps(data, sort_keys=True)


def divergent_tags(specs, runs):
    """Tags of the specs whose result bytes differ between any two runs.

    Every run must return one result per spec, in submission order.
    """
    for results in runs:
        assert [jr.spec for jr in results] == list(specs)
    fingerprints = [[result_bytes(jr) for jr in results] for results in runs]
    return [
        spec.tag
        for index, spec in enumerate(specs)
        if len({run[index] for run in fingerprints}) > 1
    ]


def good_spec(seed, scheduler="noop", **scheduler_params):
    return JobSpec.create(
        "planetlab",
        scheduler,
        seed=seed,
        num_steps=10,
        builder_params=BUILDER_PARAMS,
        scheduler_params=scheduler_params,
    )


def faulty_spec(constructor, seed=0, **scheduler_params):
    return JobSpec.create(
        "planetlab",
        f"tests.engine.faulty:{constructor}",
        seed=seed,
        num_steps=10,
        builder_params=BUILDER_PARAMS,
        scheduler_params=scheduler_params,
    )


class TestValidation:
    def test_bad_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            run_jobs([], jobs=0)
        with pytest.raises(ConfigurationError):
            run_jobs([], retries=-1)
        with pytest.raises(ConfigurationError):
            run_jobs([], timeout_seconds=0)
        with pytest.raises(ConfigurationError):
            ExecutionEngine(jobs=0)


class TestSerialExecution:
    def test_results_in_submission_order(self):
        specs = [good_spec(seed) for seed in (3, 1, 2)]
        results = run_jobs(specs, jobs=1)
        assert [jr.spec.seed for jr in results] == [3, 1, 2]
        assert all(jr.ok for jr in results)
        assert all(jr.result.scheduler_name == "NoMigration" for jr in results)

    def test_failed_job_does_not_poison_siblings(self):
        journal = EventJournal()
        specs = [good_spec(0), faulty_spec("make_raising"), good_spec(1)]
        results = run_jobs(specs, jobs=1, journal=journal)
        assert [jr.status for jr in results] == [
            STATUS_OK, STATUS_FAILED, STATUS_OK,
        ]
        assert "injected failure" in results[1].error
        assert journal.count(ev.FAILED) == 1
        assert journal.count(ev.FINISHED) == 2

    def test_require_ok_raises_on_failure(self):
        results = run_jobs([faulty_spec("make_raising")], jobs=1)
        with pytest.raises(EngineError, match="1 of 1 jobs failed"):
            require_ok(results)

    def test_require_ok_unwraps_success(self):
        results = run_jobs([good_spec(0)], jobs=1)
        unwrapped = require_ok(results)
        assert unwrapped[0].scheduler_name == "NoMigration"


class TestParallelExecution:
    def test_parallel_matches_serial_bit_for_bit(self, monkeypatch):
        """Worker-isolation differential over every registered pair.

        The same specs run three ways: (A) serially in this process,
        forward and then reversed, which exposes module state leaking
        between jobs; (B) on two spawned workers under
        ``PYTHONHASHSEED=1``; (C) on two workers under
        ``PYTHONHASHSEED=2`` with the eager kernel and contracts off,
        which exposes hash/set order and the documented environment
        switches reaching a result.  Every clean pair must give the
        same bytes all four times; each seeded defect must not.
        """
        assert sorted(DIFFERENTIAL_FLEETS) == sorted(BUILDER_REGISTRY)
        specs = differential_specs()
        serial = run_jobs(specs, jobs=1)
        reversed_serial = run_jobs(specs[::-1], jobs=1)[::-1]
        monkeypatch.setenv("PYTHONHASHSEED", "1")
        hash_seed_1 = run_jobs(specs, jobs=2)
        monkeypatch.setenv("PYTHONHASHSEED", "2")
        monkeypatch.setenv("REPRO_KERNEL", "off")
        monkeypatch.setenv("REPRO_CONTRACTS", "0")
        hash_seed_2 = run_jobs(specs, jobs=2)
        runs = [serial, reversed_serial, hash_seed_1, hash_seed_2]
        assert divergent_tags(specs, runs) == list(SEEDED_DEFECTS)

    def test_raising_job_fails_alone(self, tmp_path):
        cache = ResultCache(tmp_path)
        journal = EventJournal()
        specs = [good_spec(0), faulty_spec("make_raising"), good_spec(1)]
        results = run_jobs(
            specs, jobs=2, cache=cache, journal=journal, retries=0
        )
        assert [jr.status for jr in results] == [
            STATUS_OK, STATUS_FAILED, STATUS_OK,
        ]
        assert "injected failure" in results[1].error
        # Only the successes were cached; the failure never poisons it.
        assert cache.contains(content_hash(specs[0]))
        assert not cache.contains(content_hash(specs[1]))
        assert cache.contains(content_hash(specs[2]))
        assert journal.count(ev.FAILED) == 1

    def test_timeout_kills_worker_and_records(self):
        journal = EventJournal()
        specs = [
            faulty_spec("make_hanging", sleep_seconds=60.0),
            good_spec(0),
        ]
        results = run_jobs(
            specs, jobs=2, journal=journal, timeout_seconds=3.0, retries=0
        )
        assert results[0].status == STATUS_TIMEOUT
        assert "timeout" in results[0].error
        assert results[1].status == STATUS_OK
        assert journal.count(ev.TIMEOUT) == 1

    def test_killed_worker_retried_then_crashed(self):
        journal = EventJournal()
        specs = [faulty_spec("make_crashing"), good_spec(0)]
        results = run_jobs(specs, jobs=2, journal=journal, retries=1)
        assert results[0].status == STATUS_CRASHED
        assert results[0].attempts == 2  # original + one retry
        assert "worker died" in results[0].error
        assert results[1].status == STATUS_OK
        assert journal.count(ev.RETRIED) == 1

    def test_killed_worker_no_retries(self):
        results = run_jobs([faulty_spec("make_crashing")], jobs=2, retries=0)
        assert results[0].status == STATUS_CRASHED
        assert results[0].attempts == 1


class TestExecutionEngineFacade:
    def test_plain_callables_rejected_when_parallel(self):
        engine = ExecutionEngine(jobs=2)
        with pytest.raises(ConfigurationError, match="registry-backed"):
            engine.run_matrix(
                lambda seed: None, {"x": lambda sim: None}, [0]
            )

    def test_plain_callables_rejected_with_cache(self, tmp_path):
        engine = ExecutionEngine(jobs=1, cache_dir=tmp_path)
        with pytest.raises(ConfigurationError, match="registry-backed"):
            engine.run_matrix(
                lambda seed: None, {"x": lambda sim: None}, [0]
            )

    def test_summary_mentions_counters(self):
        engine = ExecutionEngine(jobs=1)
        assert "executed=0" in engine.summary()
        assert "jobs=1" in engine.summary()
