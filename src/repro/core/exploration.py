"""Boltzmann exploration with decaying temperature (Algorithm 2).

Actions are weighted ``exp((-Q + Q_min) / Temp)``: the cheapest action
gets weight 1 and costlier ones exponentially less, so high temperatures
explore broadly while ``Temp -> 0`` recovers greedy selection.  The
temperature decays by ``exp(-epsilon)`` each step.

:meth:`BoltzmannPolicy.select_rows` draws one action per candidate row
of a whole step in one array pass.  Row-by-row
:meth:`~BoltzmannPolicy.select` is its oracle: the two agree bit for
bit, in picks and in the RNG state they leave behind.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.contracts import NumericalContractError
from repro.errors import ConfigurationError

ActionT = TypeVar("ActionT")


def _require_finite_rows(q_values: np.ndarray, offsets: np.ndarray) -> None:
    """Raise :class:`NumericalContractError` naming each non-finite row.

    Without this guard ``select`` leaks NumPy's "Probabilities contain
    NaN" and ``select_rows`` silently picks column 0 (every NaN ``<=``
    comparison is False).
    """
    bad = np.flatnonzero(~np.isfinite(q_values))
    if bad.shape[0] == 0:
        return
    rows = np.unique(np.searchsorted(offsets, bad, side="right") - 1)
    raise NumericalContractError(
        [
            f"Q row {r} is not finite: "
            f"{q_values[offsets[r]:offsets[r + 1]].tolist()}"
            for r in rows.tolist()
        ]
    )


def _check_rows(q_values: np.ndarray, offsets: np.ndarray) -> int:
    """Validate a flat candidate array; returns its number of rows."""
    if offsets.shape[0] == 0 or int(offsets[-1]) != q_values.shape[0]:
        raise ConfigurationError("q_values and offsets lengths differ")
    num_rows = offsets.shape[0] - 1
    if num_rows and int(np.diff(offsets).min()) <= 0:
        raise ConfigurationError("cannot select from an empty action set")
    return num_rows


class BoltzmannPolicy:
    """Softmin action selection with per-step temperature decay.

    Args:
        initial_temperature: ``Temp_0`` (paper: 3).
        decay: ``epsilon``; temperature multiplies by ``exp(-epsilon)``
            at every :meth:`step`.
        min_temperature: decay floor keeping the softmax well defined.
        seed: RNG seed for sampling.
    """

    def __init__(
        self,
        initial_temperature: float = 3.0,
        decay: float = 0.01,
        min_temperature: float = 1e-3,
        seed: int = 0,
    ) -> None:
        if initial_temperature <= 0:
            raise ConfigurationError("Temp0 must be > 0")
        if decay < 0:
            raise ConfigurationError("epsilon must be >= 0")
        if min_temperature <= 0:
            raise ConfigurationError("min temperature must be > 0")
        self.temperature = initial_temperature
        self.decay = decay
        self.min_temperature = min_temperature
        self._rng = np.random.default_rng(seed)

    def step(self) -> None:
        """Apply one temperature-decay tick (line 2 of Algorithm 2)."""
        self.temperature = max(
            self.min_temperature, self.temperature * math.exp(-self.decay)
        )

    def weights(self, q_values: Sequence[float]) -> List[float]:
        """Unnormalised Boltzmann weights (line 8 of Algorithm 2).

        Accepts any float sequence, including a NumPy array from
        :meth:`repro.core.lstd.SparseLstd.q_values`.  The elementwise
        ``math.exp`` is kept deliberately, here and in
        :meth:`select_rows`: ``np.exp`` is a SIMD approximation that
        differs from libm's ``exp`` by 1 ulp on 4.4% of 2 M random
        exponents (NumPy 2.4.6, AVX-512F), which would break
        bit-identity with the historical scalar path.  A step has at
        most a few hundred candidate actions.
        """
        if len(q_values) == 0:
            return []
        minimum = min(q_values)
        return [
            math.exp((-q + minimum) / self.temperature) for q in q_values
        ]

    def probabilities(self, q_values: Sequence[float]) -> List[float]:
        """Normalised selection probabilities."""
        weights = self.weights(q_values)
        # An explicit left-to-right total, the order select_rows'
        # cumsum follows: from Python 3.12 ``sum()`` of floats is
        # compensated and may differ in the last ulp.  The minimiser's
        # weight is exactly exp(0) = 1, so the total is at least 1.
        total = 0.0
        for weight in weights:
            total += weight
        return [w / total for w in weights]

    def select(
        self, actions: Sequence[ActionT], q_values: Sequence[float]
    ) -> Tuple[ActionT, int]:
        """Sample an action; returns ``(action, index)``.

        ``actions`` may be any indexable sequence — including a NumPy
        destination row from the vectorized candidate plan, hence the
        explicit ``len()`` emptiness checks (ndarray truthiness is
        ambiguous).  Only ``len(actions)`` and the probabilities feed
        the RNG, so list and array callers draw identical streams.
        Non-finite Q raises :class:`NumericalContractError`.
        """
        if len(actions) != len(q_values):
            raise ConfigurationError("actions and q_values lengths differ")
        if len(actions) == 0:
            raise ConfigurationError("cannot select from an empty action set")
        _require_finite_rows(
            np.asarray(q_values, dtype=np.float64),
            np.array([0, len(q_values)], dtype=np.int64),
        )
        probabilities = self.probabilities(q_values)
        index = int(self._rng.choice(len(actions), p=probabilities))
        return actions[index], index

    def select_rows(
        self, q_values: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        """Sample one action per row of a flat candidate array.

        Row ``r`` holds ``q_values[offsets[r]:offsets[r + 1]]``; returns
        each row's picked index within its row (int64).  Equal to
        :meth:`select` called row by row, bit for bit, and leaves the
        RNG in the same state: ``Generator.choice(n, p=p)`` draws one
        double ``u`` and returns ``cdf.searchsorted(u, side="right")``,
        and one ``random(num_rows)`` call draws the doubles the per-row
        calls would.
        """
        num_rows = _check_rows(q_values, offsets)
        if num_rows == 0:
            return np.zeros(0, dtype=np.int64)
        _require_finite_rows(q_values, offsets)
        cdf = self._row_cdfs(q_values, offsets)
        draws = self._rng.random(num_rows)
        return np.count_nonzero(cdf <= draws[:, None], axis=1)

    def _row_cdfs(self, q_values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Every row's selection CDF in one rows x width matrix.

        Row ``r``'s first ``n`` entries are bit for bit the
        ``p.cumsum() / cdf[-1]`` that ``Generator.choice`` searches for
        ``p = probabilities(row)``; the padding reads 1.0, which no
        draw in ``[0, 1)`` reaches.  The weights sit zero-padded, so
        ``cumsum(axis=1)`` adds each row's operands in that row's own
        order (padding adds an exact 0.0) — one flat cumsum minus
        offsets would not.
        """
        num_rows = offsets.shape[0] - 1
        starts = offsets[:-1]
        lengths = np.diff(offsets)
        row_of = np.repeat(np.arange(num_rows, dtype=np.int64), lengths)
        minimum = np.minimum.reduceat(q_values, starts)
        exponent = (-q_values + minimum[row_of]) / self.temperature
        weights = np.zeros((num_rows, int(lengths.max())))
        columns = np.arange(q_values.shape[0], dtype=np.int64) - starts[row_of]
        weights[row_of, columns] = [math.exp(x) for x in exponent.tolist()]
        totals = weights.cumsum(axis=1)[:, -1:]
        cdf = (weights / totals).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        return cdf

    def select_greedy(
        self, actions: Sequence[ActionT], q_values: Sequence[float]
    ) -> Tuple[ActionT, int]:
        """Pure exploitation — used once the temperature has decayed."""
        if len(actions) != len(q_values):
            raise ConfigurationError("actions and q_values lengths differ")
        if len(actions) == 0:
            raise ConfigurationError("cannot select from an empty action set")
        index = min(range(len(actions)), key=lambda i: q_values[i])
        return actions[index], index


class EpsilonGreedyPolicy:
    """Epsilon-greedy alternative to Boltzmann exploration (ablation).

    Interface-compatible with :class:`BoltzmannPolicy`: pick the min-Q
    action with probability ``1 - epsilon`` and a uniform random action
    otherwise; ``epsilon`` decays multiplicatively per :meth:`step`.
    The paper argues Boltzmann's cost-sensitivity beats this uniform
    exploration — the ablation bench quantifies it.
    """

    def __init__(
        self,
        epsilon: float = 0.3,
        decay: float = 0.01,
        min_epsilon: float = 0.01,
        seed: int = 0,
    ) -> None:
        if not 0 <= epsilon <= 1:
            raise ConfigurationError("epsilon must be in [0, 1]")
        if decay < 0:
            raise ConfigurationError("decay must be >= 0")
        if not 0 <= min_epsilon <= 1:
            raise ConfigurationError("min epsilon must be in [0, 1]")
        self.epsilon = epsilon
        self.decay = decay
        self.min_epsilon = min_epsilon
        self._rng = np.random.default_rng(seed)

    #: BoltzmannPolicy interface parity — reported as a pseudo-temperature.
    @property
    def temperature(self) -> float:
        return self.epsilon

    def step(self) -> None:
        """Decay epsilon by ``exp(-decay)``, floored at ``min_epsilon``."""
        self.epsilon = max(
            self.min_epsilon, self.epsilon * math.exp(-self.decay)
        )

    def probabilities(self, q_values: Sequence[float]) -> List[float]:
        """Selection distribution: greedy mass plus uniform exploration."""
        if len(q_values) == 0:
            return []
        count = len(q_values)
        base = self.epsilon / count
        probabilities = [base] * count
        greedy = min(range(count), key=lambda i: q_values[i])
        probabilities[greedy] += 1.0 - self.epsilon
        return probabilities

    def select(
        self, actions: Sequence[ActionT], q_values: Sequence[float]
    ) -> Tuple[ActionT, int]:
        if len(actions) != len(q_values):
            raise ConfigurationError("actions and q_values lengths differ")
        if len(actions) == 0:
            raise ConfigurationError("cannot select from an empty action set")
        if self._rng.random() < self.epsilon:
            index = int(self._rng.integers(0, len(actions)))
        else:
            index = min(range(len(actions)), key=lambda i: q_values[i])
        return actions[index], index

    def select_rows(
        self, q_values: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        """:meth:`select` once per row of a flat candidate array.

        A plain row loop: a row draws one or two values depending on
        the first, so there is no fixed-width batch (and this policy
        only serves the exploration ablation).
        """
        num_rows = _check_rows(q_values, offsets)
        picks = np.empty(num_rows, dtype=np.int64)
        for r in range(num_rows):
            row = q_values[offsets[r]:offsets[r + 1]]
            picks[r] = self.select(row, row)[1]
        return picks

    def select_greedy(
        self, actions: Sequence[ActionT], q_values: Sequence[float]
    ) -> Tuple[ActionT, int]:
        if len(actions) != len(q_values):
            raise ConfigurationError("actions and q_values lengths differ")
        if len(actions) == 0:
            raise ConfigurationError("cannot select from an empty action set")
        index = min(range(len(actions)), key=lambda i: q_values[i])
        return actions[index], index
