"""Power-aware best-fit-decreasing placement (PABFD).

Given VMs to place, PABFD sorts them by CPU demand (decreasing) and puts
each on the host whose power draw increases the least, among hosts with
enough free RAM whose post-placement utilization stays under the safety
threshold.  This is the placement stage shared by every MMT variant.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.cloudsim.datacenter import Datacenter


def power_increase(
    datacenter: Datacenter,
    pm_id: int,
    extra_mips: float,
    pending_mips: float = 0.0,
) -> float:
    """Watts added to a host by ``extra_mips`` more demand.

    ``pending_mips`` accounts for demand already promised to the host by
    earlier placements within the same planning round.
    """
    pm = datacenter.pm(pm_id)
    before = min(
        1.0, (datacenter.demanded_mips(pm_id) + pending_mips) / pm.mips
    )
    after = min(
        1.0,
        (datacenter.demanded_mips(pm_id) + pending_mips + extra_mips)
        / pm.mips,
    )
    wake_cost = pm.power_model.power(0.0) if pm.asleep else 0.0
    return (
        pm.power_model.power(after) - pm.power_model.power(before) + wake_cost
    )


def power_aware_best_fit(
    datacenter: Datacenter,
    vm_ids: Iterable[int],
    threshold: float,
    excluded_hosts: Sequence[int] = (),
) -> Dict[int, int]:
    """Plan destinations for ``vm_ids`` (PABFD).

    Returns a partial ``vm_id -> pm_id`` map: VMs for which no feasible
    host exists are simply absent (they stay where they are).  The plan
    respects RAM capacity and keeps every destination's demanded
    utilization at or below ``threshold``, accounting for VMs placed
    earlier in the same plan.
    """
    arrays = getattr(datacenter, "arrays", None)
    groups = arrays.power_groups(datacenter.pms) if arrays is not None else None
    if groups is None:
        # Reference object-model backend (no struct-of-arrays store), or
        # a power model without ``power_batch``: the per-PM scan.
        return _power_aware_best_fit_scalar(
            datacenter, vm_ids, threshold, excluded_hosts
        )
    plan: Dict[int, int] = {}
    num_pms = arrays.num_pms
    # Planning never mutates placement, so the per-PM vectors are loop
    # invariants; only the pending-commitment vectors evolve.  The float
    # arithmetic mirrors ``power_increase`` and the scalar scan operand
    # for operand (``(demand + pending) + vm_demand``, ``free − pending``,
    # ``(P(after) − P(before)) + wake``), and ``power_batch`` equals
    # ``power`` bit for bit, so the planned map is bit-identical to the
    # scalar version's.
    ram_free = arrays.pm_ram_free_mb()
    pm_demand = arrays.pm_demand_mips()
    pm_mips = arrays.pm_mips
    budget = threshold * pm_mips
    allowed = np.ones(num_pms, dtype=bool)
    allowed[list(excluded_hosts)] = False
    # Waking a sleeping host adds its idle draw, P(0).
    wake = np.zeros(num_pms, dtype=np.float64)
    for model, pm_ids in groups:
        wake[pm_ids] = model.power(0.0)
    wake[~arrays.pm_asleep] = 0.0
    pending_mips = np.zeros(num_pms, dtype=np.float64)
    pending_ram = np.zeros(num_pms, dtype=np.float64)
    increase = np.empty(num_pms, dtype=np.float64)
    ordered = sorted(
        vm_ids, key=lambda vm_id: -datacenter.vm(vm_id).demanded_mips
    )
    for vm_id in ordered:
        vm = datacenter.vm(vm_id)
        demand = vm.demanded_mips
        source = datacenter.host_of(vm_id)
        load = pm_demand + pending_mips
        feasible = (
            allowed
            & (vm.ram_mb <= ram_free - pending_ram)
            & (load + demand <= budget)
        )
        if source is not None:
            feasible[source] = False
        if not feasible.any():
            continue
        # Score every feasible host at once: one ``power_batch`` per
        # power model evaluates P(after) and P(before) together.
        # Infeasible hosts score +inf, so ``np.argmin`` returns the first
        # feasible minimiser — the lowest host id among ties, exactly as
        # the scan's strict ``<``.
        increase.fill(np.inf)
        for model, pm_ids in groups:
            candidates = pm_ids[feasible[pm_ids]]
            count = candidates.size
            base = load[candidates]
            mips = pm_mips[candidates]
            watts = model.power_batch(
                np.minimum(
                    1.0,
                    np.concatenate(((base + demand) / mips, base / mips)),
                )
            )
            increase[candidates] = (
                watts[:count] - watts[count:]
            ) + wake[candidates]
        best_pm = int(np.argmin(increase))
        plan[vm_id] = best_pm
        pending_mips[best_pm] += demand
        pending_ram[best_pm] += vm.ram_mb
    return plan


def _power_aware_best_fit_scalar(
    datacenter,
    vm_ids: Iterable[int],
    threshold: float,
    excluded_hosts: Sequence[int] = (),
) -> Dict[int, int]:
    """Per-PM PABFD scan: the oracle for :func:`power_aware_best_fit`.

    It also serves backends without ``DatacenterArrays`` and fleets
    with a power model that lacks ``power_batch``.
    """
    excluded = set(excluded_hosts)
    plan: Dict[int, int] = {}
    pending_mips: Dict[int, float] = {}
    pending_ram: Dict[int, float] = {}
    ordered = sorted(
        vm_ids, key=lambda vm_id: -datacenter.vm(vm_id).demanded_mips
    )
    for vm_id in ordered:
        vm = datacenter.vm(vm_id)
        source = datacenter.host_of(vm_id)
        best_pm: Optional[int] = None
        best_increase = float("inf")
        for pm in datacenter.pms:
            pm_id = pm.pm_id
            if pm_id in excluded or pm_id == source:
                continue
            free_ram = datacenter.ram_free_mb(pm_id) - pending_ram.get(
                pm_id, 0.0
            )
            if vm.ram_mb > free_ram:
                continue
            demand_after = (
                datacenter.demanded_mips(pm_id)
                + pending_mips.get(pm_id, 0.0)
                + vm.demanded_mips
            )
            if demand_after > threshold * pm.mips:
                continue
            increase = power_increase(
                datacenter, pm_id, vm.demanded_mips, pending_mips.get(pm_id, 0.0)
            )
            if increase < best_increase:
                best_increase = increase
                best_pm = pm_id
        if best_pm is not None:
            plan[vm_id] = best_pm
            pending_mips[best_pm] = (
                pending_mips.get(best_pm, 0.0) + vm.demanded_mips
            )
            pending_ram[best_pm] = pending_ram.get(best_pm, 0.0) + vm.ram_mb
    return plan


def hosts_by_utilization(datacenter: Datacenter) -> List[int]:
    """Active hosts ordered by demanded utilization, least loaded first.

    One masked stable argsort — ties keep ascending host-id order, the
    same as the historical stable ``sorted`` over ``active_pm_ids()``.
    """
    arrays = getattr(datacenter, "arrays", None)
    if arrays is None:
        return sorted(
            datacenter.active_pm_ids(),
            key=lambda pm_id: datacenter.demanded_utilization(pm_id),
        )
    active = np.flatnonzero(arrays.active_pm_mask())
    util = arrays.pm_demand_utilization()
    return active[np.argsort(util[active], kind="stable")].tolist()
