"""Tests for the Boltzmann policy calculator (Algorithm 2)."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.contracts import NumericalContractError
from repro.core.exploration import BoltzmannPolicy
from repro.errors import ConfigurationError


class TestTemperature:
    def test_decay_factor(self):
        policy = BoltzmannPolicy(initial_temperature=3.0, decay=0.01)
        policy.step()
        assert policy.temperature == pytest.approx(3.0 * math.exp(-0.01))

    def test_decay_floor(self):
        policy = BoltzmannPolicy(
            initial_temperature=1.0, decay=5.0, min_temperature=0.1
        )
        for _ in range(10):
            policy.step()
        assert policy.temperature == pytest.approx(0.1)

    def test_zero_decay_keeps_temperature(self):
        policy = BoltzmannPolicy(initial_temperature=2.0, decay=0.0)
        policy.step()
        assert policy.temperature == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial_temperature": 0.0},
            {"decay": -1.0},
            {"min_temperature": 0.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            BoltzmannPolicy(**kwargs)


class TestWeights:
    def test_minimum_gets_weight_one(self):
        policy = BoltzmannPolicy(initial_temperature=1.0)
        weights = policy.weights([3.0, 1.0, 2.0])
        assert weights[1] == pytest.approx(1.0)
        assert all(w <= 1.0 for w in weights)

    def test_algorithm2_formula(self):
        policy = BoltzmannPolicy(initial_temperature=2.0)
        weights = policy.weights([0.0, 4.0])
        assert weights[1] == pytest.approx(math.exp(-2.0))

    def test_empty(self):
        policy = BoltzmannPolicy()
        assert policy.weights([]) == []

    def test_high_temperature_near_uniform(self):
        policy = BoltzmannPolicy(initial_temperature=1e6)
        probs = policy.probabilities([1.0, 2.0, 3.0])
        assert max(probs) - min(probs) < 1e-5

    def test_low_temperature_near_greedy(self):
        policy = BoltzmannPolicy(
            initial_temperature=1e-3, min_temperature=1e-3
        )
        probs = policy.probabilities([1.0, 2.0, 3.0])
        assert probs[0] > 0.999

    def test_tied_minimisers_share_mass_distant_action_gets_none(self):
        # Weights [1, 1, exp(-1e18) = 0]: the minimisers split the mass.
        policy = BoltzmannPolicy(
            initial_temperature=1e-9, min_temperature=1e-9
        )
        probs = policy.probabilities([0.0, 0.0, 1e9])
        assert probs[0] == pytest.approx(0.5)
        assert probs[1] == pytest.approx(0.5)
        assert probs[2] == 0.0

    @given(
        st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=10)
    )
    def test_probabilities_sum_to_one(self, q_values):
        policy = BoltzmannPolicy(initial_temperature=1.5)
        probs = policy.probabilities(q_values)
        assert sum(probs) == pytest.approx(1.0)
        assert all(p >= 0.0 for p in probs)


class TestSelection:
    def test_select_deterministic_seed(self):
        a = BoltzmannPolicy(seed=5)
        b = BoltzmannPolicy(seed=5)
        actions = ["x", "y", "z"]
        qs = [1.0, 2.0, 3.0]
        assert a.select(actions, qs) == b.select(actions, qs)

    def test_select_biased_to_minimum(self):
        policy = BoltzmannPolicy(initial_temperature=0.5, seed=0)
        counts = {"low": 0, "high": 0}
        for _ in range(300):
            action, _ = policy.select(["low", "high"], [0.0, 3.0])
            counts[action] += 1
        assert counts["low"] > counts["high"]

    def test_select_greedy(self):
        policy = BoltzmannPolicy()
        action, index = policy.select_greedy(["a", "b", "c"], [2.0, 0.5, 1.0])
        assert action == "b"
        assert index == 1

    def test_length_mismatch(self):
        policy = BoltzmannPolicy()
        with pytest.raises(ConfigurationError):
            policy.select(["a"], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            policy.select_greedy(["a"], [])

    def test_empty_selection_rejected(self):
        policy = BoltzmannPolicy()
        with pytest.raises(ConfigurationError):
            policy.select([], [])

    def test_exploration_rate_decreases_over_time(self):
        # Early: spread choices; late: concentrated on the minimum.
        policy = BoltzmannPolicy(initial_temperature=5.0, decay=0.05, seed=1)
        early = [policy.select([0, 1, 2], [0.0, 1.0, 2.0])[1] for _ in range(200)]
        for _ in range(200):
            policy.step()
        late = [policy.select([0, 1, 2], [0.0, 1.0, 2.0])[1] for _ in range(200)]
        assert np.mean([i != 0 for i in late]) < np.mean([i != 0 for i in early])


class TestNonFiniteQ:
    """Both selection paths raise one named error on non-finite Q."""

    ROWS = [
        [math.inf, math.inf],
        [-math.inf, 1.0],
        [math.nan, 1.0],
    ]

    @pytest.mark.parametrize("row", ROWS)
    def test_select_raises(self, row):
        with pytest.raises(NumericalContractError, match="Q row 0 "):
            BoltzmannPolicy().select(["a", "b"], row)

    @pytest.mark.parametrize("row", ROWS)
    def test_select_rows_raises_naming_the_row(self, row):
        flat = np.array([0.5, 1.0] + row)
        offsets = np.array([0, 2, 4], dtype=np.int64)
        with pytest.raises(NumericalContractError, match="Q row 1 ") as info:
            BoltzmannPolicy().select_rows(flat, offsets)
        assert len(info.value.violations) == 1
