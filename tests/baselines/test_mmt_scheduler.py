"""Tests for the complete MMT scheduler (detection + selection + PABFD)."""

import json

import pytest

from repro.baselines.mmt import scheduler as scheduler_module
from repro.baselines.mmt.placement import _power_aware_best_fit_scalar
from repro.baselines.mmt.scheduler import MMTScheduler
from repro.cloudsim.datacenter import Datacenter
from repro.cloudsim.monitor import UtilizationMonitor
from repro.harness.builders import build_planetlab_simulation
from repro.mdp.interfaces import Observation
from repro.mdp.state import observe_state

from tests.conftest import make_pm, make_vm


def build_observation(datacenter, monitor=None, step=0):
    if monitor is None:
        monitor = UtilizationMonitor()
        monitor.observe(datacenter)
    return Observation(
        step=step,
        state=observe_state(datacenter, step),
        datacenter=datacenter,
        monitor=monitor,
        last_step_cost_usd=0.0,
        interval_seconds=300.0,
    )


@pytest.fixture
def overload_setup():
    pms = [make_pm(i) for i in range(4)]
    vms = [make_vm(j, mips=2000.0, ram_mb=512.0) for j in range(5)]
    dc = Datacenter(pms, vms)
    for j in (0, 1):
        dc.place(j, 0)
        dc.vm(j).set_demand(0.9)  # host 0 at 90 %
    dc.place(2, 1)
    dc.vm(2).set_demand(0.3)
    dc.place(3, 2)
    dc.vm(3).set_demand(0.3)
    dc.place(4, 3)
    dc.vm(4).set_demand(0.3)
    return dc


class TestOverloadRelief:
    def test_evicts_from_overloaded_host(self, overload_setup):
        scheduler = MMTScheduler("THR", consolidate=False)
        migrations = scheduler.decide(build_observation(overload_setup))
        assert migrations, "THR must relieve the 90 % host"
        assert all(
            overload_setup.host_of(m.vm_id) == 0 for m in migrations
        )

    def test_evicts_until_below_threshold(self, overload_setup):
        scheduler = MMTScheduler("THR", consolidate=False)
        migrations = scheduler.decide(build_observation(overload_setup))
        evicted = {m.vm_id for m in migrations}
        remaining = (
            overload_setup.demanded_mips(0)
            - sum(overload_setup.vm(v).demanded_mips for v in evicted)
        )
        assert remaining <= 0.7 * overload_setup.pm(0).mips

    def test_destination_not_the_overloaded_host(self, overload_setup):
        scheduler = MMTScheduler("THR", consolidate=False)
        for migration in scheduler.decide(build_observation(overload_setup)):
            assert migration.dest_pm_id != 0

    def test_no_overload_no_relief(self):
        pms = [make_pm(0), make_pm(1)]
        vms = [make_vm(0)]
        dc = Datacenter(pms, vms)
        dc.place(0, 0)
        dc.vm(0).set_demand(0.5)
        scheduler = MMTScheduler("THR", consolidate=False)
        assert scheduler.decide(build_observation(dc)) == []


class TestConsolidation:
    def test_evacuates_underloaded_host_fully(self):
        pms = [make_pm(0), make_pm(1)]
        vms = [make_vm(0, ram_mb=512.0), make_vm(1, ram_mb=512.0)]
        dc = Datacenter(pms, vms)
        dc.place(0, 0)
        dc.place(1, 1)
        dc.vm(0).set_demand(0.1)
        dc.vm(1).set_demand(0.2)
        scheduler = MMTScheduler("THR", consolidate=True)
        migrations = scheduler.decide(build_observation(dc))
        # The lighter host's VM moves so the host can sleep.
        assert len(migrations) == 1
        assert migrations[0].vm_id == 0
        assert migrations[0].dest_pm_id == 1

    def test_partial_evacuation_abandoned(self):
        # Two VMs on an underloaded host, but only one fits elsewhere:
        # the host is not evacuated at all.
        pms = [make_pm(0), make_pm(1, ram_mb=1024.0)]
        vms = [
            make_vm(0, ram_mb=1024.0),
            make_vm(1, ram_mb=1024.0),
            make_vm(2, ram_mb=900.0),
        ]
        dc = Datacenter(pms, vms)
        dc.place(0, 0)
        dc.place(1, 0)
        dc.place(2, 1)
        for j in range(3):
            dc.vm(j).set_demand(0.05)
        scheduler = MMTScheduler("THR", consolidate=True)
        migrations = scheduler.decide(build_observation(dc))
        # Host 1 has only 124 MB free; host 0's pair cannot both leave.
        # Host 1's own VM (2) cannot move to 0 and leave 0 evacuated, so
        # only a full-evacuation plan of one host is permitted.
        sources = {dc.host_of(m.vm_id) for m in migrations}
        assert 0 not in sources

    def test_consolidation_disabled(self):
        pms = [make_pm(0), make_pm(1)]
        vms = [make_vm(0, ram_mb=512.0)]
        dc = Datacenter(pms, vms)
        dc.place(0, 0)
        dc.vm(0).set_demand(0.05)
        scheduler = MMTScheduler("THR", consolidate=False)
        assert scheduler.decide(build_observation(dc)) == []


class TestConfiguration:
    def test_name_reflects_detector_and_selection(self):
        assert MMTScheduler("THR").name == "THR-MMT"
        assert MMTScheduler("LRR").name == "LRR-MMT"

    def test_detector_kwargs_by_name(self):
        scheduler = MMTScheduler("THR", utilization_threshold=0.9)
        assert scheduler.detector.utilization_threshold == 0.9

    def test_detector_kwargs_with_instance_rejected(self):
        from repro.baselines.mmt.detection import ThresholdDetector

        with pytest.raises(TypeError):
            MMTScheduler(ThresholdDetector(), utilization_threshold=0.9)

    @pytest.mark.parametrize("name", ["THR", "IQR", "MAD", "LR", "LRR"])
    def test_all_paper_variants_run(self, name, overload_setup):
        scheduler = MMTScheduler(name)
        monitor = UtilizationMonitor()
        for _ in range(12):
            monitor.observe(overload_setup)
        migrations = scheduler.decide(
            build_observation(overload_setup, monitor)
        )
        assert isinstance(migrations, list)


class TestVectorizedPabfdWholeRun:
    """A whole MMT run plans the same migrations with the vectorized
    PABFD as with the per-PM scan, on a fleet where each VM has dozens
    of feasible hosts of both power models."""

    @staticmethod
    def run(name, kwargs):
        simulation = build_planetlab_simulation(
            num_pms=100, num_vms=130, num_steps=10, seed=3
        )
        datacenter = simulation.datacenter
        assert datacenter.arrays.power_groups(datacenter.pms) is not None
        result = simulation.run(
            MMTScheduler(name, **kwargs), validate_every_step=False
        )
        payload = result.to_dict()
        for step in payload["steps"]:
            step.pop("scheduler_seconds")
        return json.dumps(payload, sort_keys=True), result.total_migrations

    @pytest.mark.parametrize(
        "name, kwargs",
        [("THR", {"utilization_threshold": 0.7}), ("LR", {})],
        ids=["THR", "LR"],
    )
    def test_to_dict_identical_to_scalar_scan(
        self, name, kwargs, monkeypatch
    ):
        vectorized, migrations = self.run(name, kwargs)
        monkeypatch.setattr(
            scheduler_module,
            "power_aware_best_fit",
            _power_aware_best_fit_scalar,
        )
        scalar, _ = self.run(name, kwargs)
        assert vectorized == scalar
        assert migrations > 0, "the run must migrate to prove anything"
