"""Tests for job specs, canonicalization, and content hashing."""

import threading

import pytest

from repro.engine.jobs import (
    CODE_VERSION,
    SALT_ENV_VAR,
    JobSpec,
    content_hash,
    engine_salt,
    freeze,
    freeze_params,
    thaw,
    thaw_params,
)
from repro.engine.registry import (
    BuilderSpec,
    SchedulerSpec,
    job_spec,
    resolve_builder,
    resolve_scheduler,
)
from repro.errors import ConfigurationError


class TestFreezeThaw:
    def test_scalars_pass_through(self):
        for value in (None, True, 0, 1.5, "x"):
            assert freeze(value) == value
            assert thaw(freeze(value)) == value

    def test_nested_containers_round_trip(self):
        value = {"b": [1, 2, {"c": 3.0}], "a": (4, 5), "d": None}
        thawed = thaw(freeze(value))
        assert thawed == {"b": [1, 2, {"c": 3.0}], "a": [4, 5], "d": None}

    def test_dict_order_canonicalized(self):
        assert freeze({"a": 1, "b": 2}) == freeze({"b": 2, "a": 1})

    def test_numpy_scalars_collapse(self):
        np = pytest.importorskip("numpy")
        assert freeze(np.float64(0.25)) == 0.25
        assert freeze(np.int64(7)) == 7

    def test_unfreezable_rejected(self, tmp_path):
        np = pytest.importorskip("numpy")

        def nested(x):
            return x

        with open(tmp_path / "log.txt", "w") as handle:
            for value in (
                object(),
                lambda x: x,
                nested,
                handle,
                np.random.default_rng(0),
                threading.Lock(),
            ):
                with pytest.raises(ConfigurationError):
                    freeze(value)
                with pytest.raises(ConfigurationError):
                    freeze({"nested": [value]})
        with pytest.raises(ConfigurationError):
            JobSpec.create(
                "planetlab", "noop", seed=0, builder_params={"f": lambda: 0}
            )
        with pytest.raises(ConfigurationError):
            BuilderSpec.create("planetlab", post=lambda x: x)
        with pytest.raises(ConfigurationError):
            SchedulerSpec.create("noop", post=lambda x: x)

    def test_params_round_trip(self):
        params = {"beta": 0.8, "grid": [1, 2], "cfg": {"x": 1}}
        assert thaw_params(freeze_params(params)) == params
        assert freeze_params(None) == ()
        assert thaw_params(()) == {}


class TestJobSpec:
    def test_create_requires_names(self):
        with pytest.raises(ConfigurationError):
            JobSpec.create("", "megh", seed=0)
        with pytest.raises(ConfigurationError):
            JobSpec.create("planetlab", "", seed=0)

    def test_param_order_insensitive(self):
        first = JobSpec.create(
            "planetlab", "megh", seed=0,
            builder_params={"num_pms": 4, "num_vms": 6},
        )
        second = JobSpec.create(
            "planetlab", "megh", seed=0,
            builder_params={"num_vms": 6, "num_pms": 4},
        )
        assert first == second
        assert content_hash(first) == content_hash(second)

    def test_default_tag(self):
        spec = JobSpec.create("planetlab", "megh", seed=3)
        assert spec.tag == "megh@seed3"

    def test_kwargs_thaw(self):
        spec = JobSpec.create(
            "planetlab", "megh", seed=0,
            scheduler_params={"config": {"epsilon": 0.1}},
        )
        assert spec.scheduler_kwargs() == {"config": {"epsilon": 0.1}}


class TestContentHash:
    BASE = dict(builder="planetlab", scheduler="megh", seed=0, num_steps=50)

    def _hash(self, **overrides):
        return content_hash(JobSpec.create(**{**self.BASE, **overrides}))

    def test_stable(self):
        assert self._hash() == self._hash()
        assert len(self._hash()) == 64

    def test_sensitive_to_every_computation_field(self):
        base = self._hash()
        assert self._hash(seed=1) != base
        assert self._hash(builder="google") != base
        assert self._hash(scheduler="madvm") != base
        assert self._hash(num_steps=51) != base
        assert self._hash(builder_params={"num_pms": 8}) != base
        assert self._hash(scheduler_params={"seed": 1}) != base

    def test_tag_excluded(self):
        assert self._hash(tag="a") == self._hash(tag="b")

    def test_salt_env_override(self, monkeypatch):
        base = self._hash()
        monkeypatch.setenv(SALT_ENV_VAR, "other-salt")
        assert engine_salt() == "other-salt"
        assert self._hash() != base
        monkeypatch.delenv(SALT_ENV_VAR)
        assert engine_salt() == CODE_VERSION
        assert self._hash() == base


class TestRegistry:
    def test_known_names_resolve(self):
        assert callable(resolve_builder("planetlab"))
        assert callable(resolve_scheduler("megh"))

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_builder("no-such-builder")
        with pytest.raises(ConfigurationError):
            resolve_scheduler("no-such-scheduler")

    def test_dotted_path_resolution(self):
        fn = resolve_scheduler("tests.engine.faulty:make_raising")
        assert fn.__name__ == "make_raising"

    def test_dotted_path_errors(self):
        with pytest.raises(ConfigurationError):
            resolve_scheduler("tests.engine.no_such_module:make_raising")
        with pytest.raises(ConfigurationError):
            resolve_scheduler("tests.engine.faulty:no_such_attr")

    def test_spec_callables_carry_structure(self):
        builder = BuilderSpec.create("planetlab", num_pms=4, num_vms=6)
        factory = SchedulerSpec.create("noop")
        spec = job_spec(builder, factory, seed=2, num_steps=10, tag="t")
        assert spec.builder == "planetlab"
        assert spec.scheduler == "noop"
        assert spec.seed == 2
        assert spec.builder_kwargs() == {"num_pms": 4, "num_vms": 6}
        assert spec.tag == "t"

    def test_builder_spec_builds_simulation(self):
        builder = BuilderSpec.create(
            "planetlab", num_pms=4, num_vms=6, num_steps=10
        )
        simulation = builder(0)
        assert simulation.datacenter.num_pms == 4
