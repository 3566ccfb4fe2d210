"""Unit tests for the data-center placement and CPU-sharing logic."""

import pytest

from repro.cloudsim.datacenter import Datacenter
from repro.errors import CapacityError, UnknownEntityError

from tests.conftest import make_pm, make_vm


class TestConstruction:
    def test_rejects_sparse_pm_ids(self):
        with pytest.raises(UnknownEntityError):
            Datacenter([make_pm(0), make_pm(2)], [make_vm(0)])

    def test_rejects_sparse_vm_ids(self):
        with pytest.raises(UnknownEntityError):
            Datacenter([make_pm(0)], [make_vm(1)])

    def test_counts(self, small_datacenter):
        assert small_datacenter.num_pms == 4
        assert small_datacenter.num_vms == 6


class TestPlacement:
    def test_place_and_lookup(self, small_datacenter):
        small_datacenter.place(0, 2)
        assert small_datacenter.host_of(0) == 2
        assert 0 in small_datacenter.vms_on(2)

    def test_place_wakes_host(self, small_datacenter):
        small_datacenter.pm(1).sleep()
        small_datacenter.place(0, 1)
        assert not small_datacenter.pm(1).asleep

    def test_double_place_rejected(self, small_datacenter):
        small_datacenter.place(0, 0)
        with pytest.raises(CapacityError):
            small_datacenter.place(0, 1)

    def test_ram_capacity_enforced(self, small_datacenter):
        # Host RAM 4096; four 1024-MB VMs fit, the fifth does not.
        for vm_id in range(4):
            small_datacenter.place(vm_id, 0)
        with pytest.raises(CapacityError):
            small_datacenter.place(4, 0)

    def test_remove_returns_host(self, placed_datacenter):
        assert placed_datacenter.remove(0) == 0
        assert placed_datacenter.host_of(0) is None

    def test_remove_unplaced_rejected(self, small_datacenter):
        with pytest.raises(UnknownEntityError):
            small_datacenter.remove(0)

    def test_move(self, placed_datacenter):
        source = placed_datacenter.move(0, 3)
        assert source == 0
        assert placed_datacenter.host_of(0) == 3

    def test_move_rebuilds_ram_aggregate_once(self, placed_datacenter):
        # The placements left the RAM aggregate dirty, as every started
        # migration after the first in a batch finds it.  fits() pays
        # the one rebuild; relocating must not pay a second.
        arrays = placed_datacenter.arrays
        for vm_id, dest in ((0, 3), (2, 0)):
            before = arrays._ram_rebuilds
            placed_datacenter.move(vm_id, dest)
            assert arrays._ram_rebuilds - before == 1

    def test_move_matches_remove_then_place(self, small_datacenter):
        reference = Datacenter(
            [make_pm(i) for i in range(4)], [make_vm(j) for j in range(6)]
        )
        for dc in (small_datacenter, reference):
            for vm_id, pm_id in {0: 0, 1: 0, 2: 1, 3: 1, 4: 2}.items():
                dc.place(vm_id, pm_id)
            dc.pm(3).sleep()
        assert small_datacenter.move(0, 3) == 0
        reference.remove(0)
        reference.place(0, 3)
        for dc in (small_datacenter, reference):
            assert not dc.pm(3).asleep
        assert list(small_datacenter.placement().items()) == list(
            reference.placement().items()
        )
        for pm_id in range(4):
            assert small_datacenter.vms_on(pm_id) == reference.vms_on(pm_id)
            assert small_datacenter.ram_free_mb(pm_id) == reference.ram_free_mb(
                pm_id
            )
        assert (
            small_datacenter.arrays.host_of.tolist()
            == reference.arrays.host_of.tolist()
        )
        assert (
            small_datacenter.arrays.pm_vm_count.tolist()
            == reference.arrays.pm_vm_count.tolist()
        )

    def test_move_to_same_host_is_noop(self, placed_datacenter):
        assert placed_datacenter.move(0, 0) == 0
        assert placed_datacenter.host_of(0) == 0

    def test_move_respects_ram(self, small_datacenter):
        for vm_id in range(4):
            small_datacenter.place(vm_id, 0)
        small_datacenter.place(4, 1)
        with pytest.raises(CapacityError):
            small_datacenter.move(4, 0)

    def test_unknown_ids_rejected(self, small_datacenter):
        with pytest.raises(UnknownEntityError):
            small_datacenter.pm(99)
        with pytest.raises(UnknownEntityError):
            small_datacenter.vm(99)

    def test_placement_map_is_copy(self, placed_datacenter):
        mapping = placed_datacenter.placement()
        mapping[0] = 3
        assert placed_datacenter.host_of(0) == 0


class TestCapacityAccounting:
    def test_ram_accounting(self, placed_datacenter):
        assert placed_datacenter.ram_used_mb(0) == pytest.approx(2048.0)
        assert placed_datacenter.ram_free_mb(0) == pytest.approx(2048.0)

    def test_demanded_utilization(self, placed_datacenter):
        placed_datacenter.vm(0).set_demand(0.5)
        placed_datacenter.vm(1).set_demand(0.5)
        # Two VMs at 500 MIPS each on a 4000-MIPS host -> 25 %.
        assert placed_datacenter.demanded_utilization(0) == pytest.approx(0.25)

    def test_demand_can_exceed_capacity(self, small_datacenter):
        for vm_id in range(4):
            small_datacenter.place(vm_id, 0)
            small_datacenter.vm(vm_id).set_demand(1.0)
        # 4 x 1000 demanded on 4000-MIPS host = exactly 1.0; overload needs more.
        assert small_datacenter.demanded_utilization(0) == pytest.approx(1.0)

    def test_active_hosts(self, placed_datacenter):
        assert placed_datacenter.num_active_hosts() == 4
        placed_datacenter.remove(5)
        assert placed_datacenter.num_active_hosts() == 3

    def test_fits_current_host(self, placed_datacenter):
        assert placed_datacenter.fits(0, 0)


class TestCpuSharing:
    def test_full_delivery_under_capacity(self, placed_datacenter):
        placed_datacenter.vm(0).set_demand(0.3)
        placed_datacenter.share_cpu()
        assert placed_datacenter.vm(0).delivered_utilization == pytest.approx(0.3)

    def test_proportional_scaling_when_oversubscribed(self, small_datacenter):
        # 3 VMs of 2000 MIPS demanding 100 % on a 4000-MIPS host.
        vms = [make_vm(j, mips=2000.0, ram_mb=512.0) for j in range(3)]
        dc = Datacenter([make_pm(0)], vms)
        for vm_id in range(3):
            dc.place(vm_id, 0)
            dc.vm(vm_id).set_demand(1.0)
        dc.share_cpu()
        for vm_id in range(3):
            # 6000 demanded on 4000 capacity -> scale 2/3.
            assert dc.vm(vm_id).delivered_utilization == pytest.approx(2 / 3)
        assert dc.delivered_utilization(0) == pytest.approx(1.0)

    def test_unplaced_vm_gets_nothing(self, small_datacenter):
        small_datacenter.vm(0).set_demand(0.9)
        small_datacenter.share_cpu()
        assert small_datacenter.vm(0).delivered_utilization == 0.0

    def test_migration_overhead_applied(self, placed_datacenter):
        placed_datacenter.vm(0).set_demand(0.5)
        placed_datacenter.share_cpu()
        placed_datacenter.apply_migration_overhead([0], 0.10)
        assert placed_datacenter.vm(0).delivered_utilization == pytest.approx(0.45)


class TestOverloadAndSleep:
    def test_overload_detection(self, placed_datacenter):
        placed_datacenter.vm(4).set_demand(1.0)  # 1000 of 4000 = 25 %
        assert not placed_datacenter.is_overloaded(2, beta=0.30)
        assert placed_datacenter.is_overloaded(2, beta=0.20)
        assert placed_datacenter.overloaded_pm_ids(beta=0.20) == [2]

    def test_sleep_idle_hosts(self, placed_datacenter):
        placed_datacenter.remove(5)
        slept = placed_datacenter.sleep_idle_hosts()
        assert slept == [3]
        assert placed_datacenter.pm(3).asleep

    def test_sleep_skips_occupied(self, placed_datacenter):
        assert placed_datacenter.sleep_idle_hosts() == []
