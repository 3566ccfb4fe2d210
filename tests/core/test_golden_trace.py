"""Golden decision-trace regression tests (the rewrite's behaviour fence).

The fixtures were recorded with the pre-vectorization dict-of-dicts
numerical core; these tests prove the array-backed ``SparseMatrix`` +
cached ``SparseLstd`` reproduce the *identical* migration sequence on
fixed-seed synthetic-PlanetLab runs.  Every Q-value the agent ranks, the
Boltzmann sampling stream, and the noop-budget sampling all feed into
this sequence, so agreement here is the strongest end-to-end equivalence
check the repo has.
"""

from __future__ import annotations

import json

import pytest

from tests.core.golden_scenarios import (
    GOLDEN_SEEDS,
    fixture_path,
    run_golden_scenario,
)


def _load_fixture(seed: int) -> dict:
    with open(fixture_path(seed), "r", encoding="utf-8") as handle:
        return json.load(handle)


#: Every seed under ``REPRO_KERNEL=auto`` (the compiled fast path when it
#: loads) and ``off`` (its eager oracle): both must replay the recording.
KERNEL_CASES = [
    pytest.param(seed, "auto", id=str(seed)) for seed in GOLDEN_SEEDS
] + [pytest.param(seed, "off", id=f"{seed}-off") for seed in GOLDEN_SEEDS]


@pytest.mark.parametrize("seed, kernel", KERNEL_CASES)
def test_migration_sequence_is_reproduced_exactly(
    seed: int, kernel: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    monkeypatch.setenv("REPRO_KERNEL", kernel)
    expected = _load_fixture(seed)
    actual = run_golden_scenario(seed)
    assert actual["scenario"] == expected["scenario"]
    assert actual["migrations"] == expected["migrations"], (
        f"seed {seed}: vectorized core diverged from the recorded "
        f"decision trace (first difference at migration "
        f"{next(i for i, (a, b) in enumerate(zip(actual['migrations'], expected['migrations'])) if a != b) if actual['migrations'] and expected['migrations'] else 0})"
    )
    assert actual["total_migrations"] == expected["total_migrations"]
    assert actual["q_table_nonzeros"] == expected["q_table_nonzeros"]
    assert actual["total_cost_usd"] == pytest.approx(
        expected["total_cost_usd"], rel=0, abs=0
    )


def test_fixtures_exist_for_all_seeds() -> None:
    for seed in GOLDEN_SEEDS:
        payload = _load_fixture(seed)
        assert payload["seed"] == seed
        assert payload["migrations"], "fixture should contain migrations"
