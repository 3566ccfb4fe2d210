"""Differential oracle for the batched Boltzmann draw.

``BoltzmannPolicy.select_rows`` samples every candidate row of a step in
one array pass, and ``MeghScheduler._select_from_plan`` ranks the moves
with one ``np.lexsort``.  The oracle is the row-by-row path they
replaced: ``BoltzmannPolicy.select`` once per row, then a Python
``sorted`` over ``(not mandatory, q)``.  Both must agree bit for bit —
the same picks, the same ranking, and the same RNG state afterwards.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MeghConfig
from repro.core.agent import MeghScheduler
from repro.core.candidates import CandidatePlan
from repro.core.exploration import BoltzmannPolicy, EpsilonGreedyPolicy
from repro.errors import ConfigurationError

NUM_PMS = 8

#: A few exact values drawn often enough to make equal-Q ties common.
TIED_Q = (-1.0, 0.0, 0.25, 1.0)

q_value = st.one_of(
    st.sampled_from(TIED_Q),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
#: Log-uniform from 1e-3 to 1e6, endpoints included.
temperature = st.one_of(
    st.sampled_from((1e-3, 1e6)),
    st.floats(-3.0, 6.0).map(lambda exponent: 10.0**exponent),
)
seed = st.integers(0, 2**32 - 1)


def flatten(rows):
    flat = np.array([q for row in rows for q in row], dtype=np.float64)
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(row) for row in rows])
    return flat, offsets


def rng_state(policy):
    return policy._rng.bit_generator.state


class TestPolicySelectRows:
    # Rows up to 12 wide, past today's 7: from 8 elements NumPy's
    # pairwise `sum` reorders the adds, which this test must catch.
    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.lists(q_value, min_size=1, max_size=12),
            min_size=0,
            max_size=12,
        ),
        temperature=temperature,
        seed=seed,
    )
    def test_matches_row_by_row_select(self, rows, temperature, seed):
        oracle = BoltzmannPolicy(
            initial_temperature=temperature, seed=seed
        )
        fast = BoltzmannPolicy(initial_temperature=temperature, seed=seed)
        flat, offsets = flatten(rows)
        if rows:
            # The CDFs themselves match bit for bit, so agreement on
            # the picks does not rest on draws missing a boundary.
            cdf = fast._row_cdfs(flat, offsets)
            for r in range(len(rows)):
                row = flat[offsets[r]:offsets[r + 1]]
                expected = np.array(oracle.probabilities(row)).cumsum()
                expected /= expected[-1]
                assert cdf[r, :len(row)].tobytes() == expected.tobytes()
                assert (cdf[r, len(row):] == 1.0).all()
        expected = [
            oracle.select(row, row)[1]
            for row in (
                flat[offsets[r]:offsets[r + 1]] for r in range(len(rows))
            )
        ]
        picks = fast.select_rows(flat, offsets)
        assert picks.dtype == np.int64
        assert picks.tolist() == expected
        assert rng_state(fast) == rng_state(oracle)

    def test_single_action_rows_draw_one_double_each(self):
        policy = BoltzmannPolicy(seed=3)
        replay = np.random.default_rng(3)
        flat, offsets = flatten([[2.0], [5.0], [-1.0]])
        assert policy.select_rows(flat, offsets).tolist() == [0, 0, 0]
        replay.random(3)
        assert rng_state(policy) == replay.bit_generator.state

    def test_empty_plan_draws_nothing(self):
        policy = BoltzmannPolicy(seed=4)
        before = copy.deepcopy(rng_state(policy))
        picks = policy.select_rows(
            np.zeros(0), np.zeros(1, dtype=np.int64)
        )
        assert picks.shape == (0,)
        assert rng_state(policy) == before

    def test_empty_row_rejected(self):
        with pytest.raises(ConfigurationError):
            BoltzmannPolicy().select_rows(
                np.array([1.0]), np.array([0, 0, 1], dtype=np.int64)
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            BoltzmannPolicy().select_rows(
                np.array([1.0, 2.0]), np.array([0, 1], dtype=np.int64)
            )

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.lists(
            st.lists(q_value, min_size=1, max_size=7),
            min_size=0,
            max_size=12,
        ),
        seed=seed,
    )
    def test_epsilon_greedy_row_loop_matches_select(self, rows, seed):
        oracle = EpsilonGreedyPolicy(epsilon=0.5, seed=seed)
        fast = EpsilonGreedyPolicy(epsilon=0.5, seed=seed)
        flat, offsets = flatten(rows)
        expected = [
            oracle.select(flat[offsets[r]:offsets[r + 1]],
                          flat[offsets[r]:offsets[r + 1]])[1]
            for r in range(len(rows))
        ]
        assert fast.select_rows(flat, offsets).tolist() == expected
        assert rng_state(fast) == rng_state(oracle)


# ----------------------------------------------------------------------
# _select_from_plan: batched draw + lexsort ranking vs the row loop
# ----------------------------------------------------------------------
class FixedQ:
    """Stands in for SparseLstd: serves one precomputed Q vector."""

    def __init__(self, q_values):
        self._q_values = q_values

    def q_values(self, action_indices):
        assert action_indices.shape == self._q_values.shape
        return self._q_values


@st.composite
def plans(draw):
    """A random flat plan (rows of 1-7 actions) and its Q vector."""
    num_rows = draw(st.integers(0, 12))
    sources, mandatory, dest_pm, q = [], [], [], []
    offsets = [0]
    for _ in range(num_rows):
        source = draw(st.integers(0, NUM_PMS - 1))
        dests = draw(
            st.lists(
                st.integers(0, NUM_PMS - 1),
                min_size=1,
                max_size=7,
                unique=True,
            )
        )
        sources.append(source)
        mandatory.append(draw(st.booleans()))
        dest_pm.extend(dests)
        offsets.append(len(dest_pm))
        q.extend(
            draw(st.lists(q_value, min_size=len(dests), max_size=len(dests)))
        )
    vm_ids = np.arange(num_rows, dtype=np.int64)
    dest_pm = np.array(dest_pm, dtype=np.int64)
    offsets = np.array(offsets, dtype=np.int64)
    plan = CandidatePlan(
        vm_ids=vm_ids,
        sources=np.array(sources, dtype=np.int64),
        mandatory=np.array(mandatory, dtype=bool),
        dest_pm=dest_pm,
        offsets=offsets,
        action_indices=np.repeat(vm_ids, np.diff(offsets)) * NUM_PMS
        + dest_pm,
        num_pms=NUM_PMS,
    )
    return plan, np.array(q, dtype=np.float64)


def select_from_plan_oracle(agent, plan):
    """The historical row loop: ``select`` per row, then ``sorted``.

    Returns ``(chosen, moves, noops)`` in ``_select_from_plan``'s
    encoding: flat plan positions of every row's pick, the ranked and
    capped moving rows, and the staying rows.
    """
    flat_q = agent.lstd.q_values(plan.action_indices)
    picks = []
    for r in range(plan.num_rows):
        start = int(plan.offsets[r])
        end = int(plan.offsets[r + 1])
        raw_q = flat_q[start:end]
        dests = plan.dest_pm[start:end]
        source = int(plan.sources[r])
        mandatory = bool(plan.mandatory[r])
        if mandatory:
            q_values = raw_q.copy()
        else:
            q_values = raw_q + agent.config.migration_margin * (
                dests != source
            )
        _, index = agent.policy.select(dests, q_values)
        picks.append(
            (float(q_values[index]), r, start + index, mandatory,
             int(dests[index]) == source)
        )
    max_moves = max(
        1,
        int(agent.config.max_migration_fraction * agent.action_space.num_vms),
    )
    ranked = sorted(
        (
            (not mandatory, q, r)
            for q, r, _, mandatory, stays in picks
            if not stays
        ),
        key=lambda entry: (entry[0], entry[1]),
    )
    return (
        [at for _, _, at, _, _ in picks],
        [r for _, _, r in ranked[:max_moves]],
        [r for _, r, _, _, stays in picks if stays],
    )


def make_agent(q_values, temperature, seed):
    agent = MeghScheduler(
        num_vms=40,
        num_pms=NUM_PMS,
        # A budget of 4 moves, so the cap cuts into 12-row plans.
        config=MeghConfig(max_migration_fraction=0.1),
        seed=seed,
        contracts=False,
    )
    agent.lstd = FixedQ(q_values)
    agent.policy.temperature = temperature
    return agent


class TestSelectFromPlan:
    @settings(max_examples=300, deadline=None)
    @given(plan_q=plans(), temperature=temperature, seed=seed)
    def test_matches_row_loop_and_sorted_ranking(
        self, plan_q, temperature, seed
    ):
        plan, q_values = plan_q
        oracle_agent = make_agent(q_values, temperature, seed)
        fast_agent = make_agent(q_values, temperature, seed)
        chosen, moves, noops = select_from_plan_oracle(oracle_agent, plan)
        raw_q, fast_chosen, fast_moves, fast_noops = (
            fast_agent._select_from_plan(plan)
        )
        assert raw_q is q_values
        assert fast_chosen.tolist() == chosen
        assert fast_moves.tolist() == moves
        assert fast_noops.tolist() == noops
        assert rng_state(fast_agent.policy) == rng_state(oracle_agent.policy)

    def test_equal_q_moves_keep_row_order(self):
        # Four moving rows: relief rows first even at a higher Q, and
        # equal-Q rows keep row order (a stable sort, as `sorted` is).
        vm_ids = np.arange(4, dtype=np.int64)
        offsets = np.arange(5, dtype=np.int64)
        dest_pm = np.full(4, 5, dtype=np.int64)
        plan = CandidatePlan(
            vm_ids=vm_ids,
            sources=np.zeros(4, dtype=np.int64),
            mandatory=np.array([False, True, False, True]),
            dest_pm=dest_pm,
            offsets=offsets,
            action_indices=vm_ids * NUM_PMS + dest_pm,
            num_pms=NUM_PMS,
        )
        agent = make_agent(np.array([0.0, 5.0, 0.0, 5.0]), 1.0, seed=0)
        _, _, moves, noops = agent._select_from_plan(plan)
        assert moves.tolist() == [1, 3, 0, 2]
        assert noops.tolist() == []


class TestWholeRunDraws:
    def test_policy_rng_advances_one_double_per_candidate_row(
        self, monkeypatch
    ):
        from repro.core.trace import DecisionTrace
        from repro.harness.builders import build_planetlab_simulation
        from repro.harness.runner import run_scheduler

        simulation = build_planetlab_simulation(
            num_pms=10, num_vms=16, num_steps=40, seed=0
        )
        scheduler = MeghScheduler.from_simulation(
            simulation, seed=0, contracts=False
        )
        scheduler.trace = DecisionTrace()
        policy = scheduler.policy
        select_rows = policy.select_rows
        draws = []

        def checked(q_values, offsets):
            replay = np.random.default_rng()
            replay.bit_generator.state = copy.deepcopy(rng_state(policy))
            picks = select_rows(q_values, offsets)
            replay.random(offsets.shape[0] - 1)
            assert rng_state(policy) == replay.bit_generator.state
            draws.append(offsets.shape[0] - 1)
            return picks

        monkeypatch.setattr(policy, "select_rows", checked)
        run_scheduler(simulation, scheduler)
        rows = [
            record.num_candidate_vms for record in scheduler.trace.records
        ]
        assert draws == rows
        assert sum(rows) > 0
