"""Checkpoint/restart: bit-identity, periodic cadence, v1 compatibility."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.cloudsim.events import EventLog
import repro
from repro.core.agent import MeghScheduler
from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    load_agent,
    load_service,
    save_agent,
    save_service,
)
from repro.errors import ConfigurationError
from repro.harness.builders import build_planetlab_simulation
from repro.service.builders import build_churn_service


def _result_key(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def _run_full(seed: int, steps: int = 48):
    service = build_churn_service(seed=seed, num_steps=steps)
    agent = MeghScheduler.from_simulation(service, seed=seed)
    log = EventLog()
    result = service.run(agent, event_log=log)
    return result, log, agent


class TestResumeBitIdentity:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_interrupted_run_resumes_byte_identically(self, tmp_path, seed):
        """The PR's acceptance criterion, across three seeds.

        Contracts are on in the test suite, so the Sherman–Morrison
        auditor validates every update *and every slot retirement* on
        both halves of the interrupted run — any drift raises.
        """
        steps = 48
        full_result, full_log, full_agent = _run_full(seed, steps)
        assert full_agent.lstd.retirements_applied > 0

        path = str(tmp_path / f"service-{seed}.npz")
        service = build_churn_service(seed=seed, num_steps=steps)
        agent = MeghScheduler.from_simulation(service, seed=seed)
        log = EventLog()
        stopped = service.run(
            agent,
            event_log=log,
            checkpoint_path=path,
            stop_after_step=steps // 2,
        )
        assert stopped is None

        resumed_service, resumed_agent = load_service(path)
        resumed_log = EventLog()
        resumed = resumed_service.run(resumed_agent, event_log=resumed_log)
        assert _result_key(full_result) == _result_key(resumed)
        assert [e.to_json() for e in full_log] == [
            e.to_json() for e in resumed_log
        ]
        assert (
            resumed_agent.lstd.retirements_applied
            == full_agent.lstd.retirements_applied
        )

    def test_periodic_checkpoint_resumes_byte_identically(self, tmp_path):
        steps = 40
        full_result, _, _ = _run_full(7, steps)

        path = str(tmp_path / "periodic.npz")
        service = build_churn_service(seed=7, num_steps=steps)
        agent = MeghScheduler.from_simulation(service, seed=7)
        service.run(
            agent, checkpoint_every=16, checkpoint_path=path
        )  # last boundary checkpoint is at step 32, mid-run

        resumed_service, resumed_agent = load_service(path)
        resumed = resumed_service.run(resumed_agent)
        assert _result_key(full_result) == _result_key(resumed)

    def test_checkpoint_format_is_independent_of_kernel(
        self, tmp_path, monkeypatch
    ):
        """Checkpoint under ``auto``, resume on the eager ``off`` path.

        The saved learner state is the settled matrix, so the resumed
        half must not care which path staged the first half's updates.
        """
        steps = 40
        monkeypatch.setenv("REPRO_KERNEL", "auto")
        full_result, _, _ = _run_full(5, steps)

        path = str(tmp_path / "auto.npz")
        service = build_churn_service(seed=5, num_steps=steps)
        agent = MeghScheduler.from_simulation(service, seed=5)
        service.run(agent, checkpoint_path=path, stop_after_step=steps // 2)

        monkeypatch.setenv("REPRO_KERNEL", "off")
        resumed_service, resumed_agent = load_service(path)
        assert resumed_agent.lstd.B.kernel_name == "off"
        resumed = resumed_service.run(resumed_agent)
        assert _result_key(full_result) == _result_key(resumed)

    def test_resume_rejects_different_horizon(self, tmp_path):
        path = str(tmp_path / "svc.npz")
        service = build_churn_service(seed=0, num_steps=30)
        agent = MeghScheduler.from_simulation(service, seed=0)
        service.run(agent, checkpoint_path=path, stop_after_step=10)
        resumed_service, resumed_agent = load_service(path)
        with pytest.raises(ConfigurationError):
            resumed_service.run(resumed_agent, num_steps=25)


class TestServiceCheckpointFormat:
    def test_service_checkpoint_is_version_2(self, tmp_path):
        path = str(tmp_path / "svc.npz")
        service = build_churn_service(seed=0, num_steps=20)
        agent = MeghScheduler.from_simulation(service, seed=0)
        service.run(agent, checkpoint_path=path, stop_after_step=9)
        with np.load(path, allow_pickle=False) as data:
            assert int(data["version"]) == CHECKPOINT_VERSION == 2
            assert "agent_rng_state" in data.files
            assert "service_state" in data.files
            state = json.loads(str(data["service_state"][()]))
        assert state["next_step"] == 10
        assert state["spec"]["builder"] == "churn"

    def test_agent_only_checkpoint_rejected_by_load_service(self, tmp_path):
        sim = build_planetlab_simulation(num_pms=4, num_vms=6, num_steps=10)
        agent = MeghScheduler.from_simulation(sim, seed=0)
        sim.run(agent)
        path = str(tmp_path / "agent.npz")
        save_agent(agent, path)
        with pytest.raises(ConfigurationError):
            load_service(path)

    def test_save_service_requires_learner(self, tmp_path):
        from repro.baselines.noop import NoMigrationScheduler

        with pytest.raises(ConfigurationError):
            save_service(
                NoMigrationScheduler(), str(tmp_path / "x.npz"), {}
            )


class TestAgentCheckpointV2:
    def _trained(self, seed=4):
        sim = build_planetlab_simulation(
            num_pms=6, num_vms=8, num_steps=30, seed=seed
        )
        agent = MeghScheduler.from_simulation(sim, seed=seed)
        sim.run(agent)
        return agent

    def test_rng_states_round_trip(self, tmp_path):
        agent = self._trained()
        path = str(tmp_path / "agent.npz")
        save_agent(agent, path)
        restored = load_agent(path, seed=999)  # seed must not matter in v2
        assert (
            restored._rng.bit_generator.state
            == agent._rng.bit_generator.state
        )
        assert (
            restored.policy._rng.bit_generator.state
            == agent.policy._rng.bit_generator.state
        )
        assert (
            restored._previous_action_indices
            == agent._previous_action_indices
        )
        assert restored._last_normalized_cost == agent._last_normalized_cost
        assert restored.lstd.updates_applied == agent.lstd.updates_applied
        assert restored.qtable.samples == agent.qtable.samples

    def test_operator_tracker_round_trips(self, tmp_path):
        service = build_churn_service(seed=2, num_steps=25)
        agent = MeghScheduler.from_simulation(service, seed=2)
        service.run(agent)
        path = str(tmp_path / "dynamic.npz")
        save_agent(agent, path)
        restored = load_agent(path)
        assert restored.dynamic_slots
        assert (
            restored.lstd.operator_entries()
            == agent.lstd.operator_entries()
        )
        assert (
            restored.lstd.retirements_applied
            == agent.lstd.retirements_applied
        )


class TestCrashSafety:
    """A process that dies mid-save leaves the previous checkpoint intact."""

    #: Child process: reload the checkpoint, then save it again with a
    #: payload whose last array kills the process while NumPy is
    #: serialising it — after the archive's first members are written.
    _CRASHING_SAVE = textwrap.dedent(
        """
        import os
        import sys

        from repro.core import checkpoint

        class Crash:
            def __array__(self, dtype=None, copy=None):
                os._exit(17)

        path = sys.argv[1]
        agent = checkpoint.load_agent(path)
        build = checkpoint._agent_payload
        checkpoint._agent_payload = lambda a: {**build(a), "zz_crash": Crash()}
        checkpoint.save_agent(agent, path)
        """
    )

    def test_crash_mid_save_keeps_previous_checkpoint(self, tmp_path):
        sim = build_planetlab_simulation(
            num_pms=6, num_vms=8, num_steps=30, seed=4
        )
        agent = MeghScheduler.from_simulation(sim, seed=4)
        sim.run(agent)
        path = str(tmp_path / "agent.npz")
        save_agent(agent, path)
        with np.load(path, allow_pickle=False) as data:
            before = {key: data[key] for key in data.files}

        source = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (source, env.get("PYTHONPATH")))
        )
        child = subprocess.run(
            [sys.executable, "-c", self._CRASHING_SAVE, path],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 17, child.stderr

        restored = load_agent(path)
        assert restored.lstd.updates_applied == agent.lstd.updates_applied
        with np.load(path, allow_pickle=False) as data:
            assert sorted(data.files) == sorted(before)
            for key, array in before.items():
                assert np.array_equal(data[key], array), key


class TestV1Compatibility:
    """Version-1 checkpoints load with a documented fresh-RNG caveat."""

    def _v1_payload(self, agent):
        rows, cols, values = [], [], []
        for i, j, value in agent.lstd.B.items():
            rows.append(i)
            cols.append(j)
            values.append(value)
        z_indices = list(agent.lstd.z.keys())
        return {
            "version": np.array(1),
            "num_vms": np.array(agent.action_space.num_vms),
            "num_pms": np.array(agent.action_space.num_pms),
            "beta": np.array(agent.beta),
            "b_rows": np.array(rows, dtype=np.int64),
            "b_cols": np.array(cols, dtype=np.int64),
            "b_values": np.array(values, dtype=np.float64),
            "z_indices": np.array(z_indices, dtype=np.int64),
            "z_values": np.array(
                [agent.lstd.z[i] for i in z_indices], dtype=np.float64
            ),
            "temperature": np.array(agent.policy.temperature),
            "steps_seen": np.array(agent._steps_seen),
            "cost_running_mean": np.array(agent._cost_running_mean),
            "costs_seen": np.array(agent._costs_seen),
            "gamma": np.array(agent.config.gamma),
            "config_repr": np.array(repr(agent.config)),
        }

    def _trained(self):
        sim = build_planetlab_simulation(
            num_pms=6, num_vms=8, num_steps=30, seed=5
        )
        agent = MeghScheduler.from_simulation(sim, seed=5)
        sim.run(agent)
        return agent

    def test_v1_loads_with_fresh_rng_warning(self, tmp_path):
        agent = self._trained()
        path = str(tmp_path / "v1.npz")
        np.savez_compressed(path, **self._v1_payload(agent))
        with pytest.warns(UserWarning, match="fresh RNGs"):
            restored = load_agent(path, seed=5)
        # Learned state survives ...
        for action in range(0, agent.action_space.dimension, 7):
            assert restored.lstd.q_value(action) == pytest.approx(
                agent.lstd.q_value(action)
            )
        assert restored.policy.temperature == pytest.approx(
            agent.policy.temperature
        )
        # ... but the decision context does not: v1 never stored it.
        assert restored._previous_action_indices == []
        assert restored._last_normalized_cost is None
        assert not restored.dynamic_slots

    def test_unsupported_version_rejected(self, tmp_path):
        agent = self._trained()
        payload = self._v1_payload(agent)
        payload["version"] = np.array(99)
        path = str(tmp_path / "v99.npz")
        np.savez_compressed(path, **payload)
        with pytest.raises(ConfigurationError):
            load_agent(path)
