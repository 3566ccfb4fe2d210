"""Differential test: the accountant's ring-buffer billing windows against
standalone deque records.

Random sequences of batched ``observe_step`` calls, single
``record_step`` appends, ``reset_vm_window`` and serialize → restore
round trips drive an :class:`SlaAccountant`.  A dict of standalone
:class:`VmSlaRecord` objects (the deque oracle) receives the entries the
Section 3.3 rules say each step appends.  After every operation, every
tracked VM must show the oracle's window entries, a bit-equal windowed
downtime fraction and a nonzero-downtime count equal to a recount, and
the cost model's batched path must bill bit-equal to its per-record
branch.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.cloudsim.datacenter import Datacenter
from repro.cloudsim.sla import SlaAccountant, VmSlaRecord
from repro.config import CostConfig
from repro.costs.sla_cost import SlaCostModel
from repro.engine.serialize import _sla_from_dict, _sla_to_dict

from tests.conftest import make_pm, make_vm

INTERVAL = 300.0
BETA = 0.4
NUM_PMS = 3
NUM_VMS = 6

#: Downtimes that mix exact zeros with positive values on both sides of
#: the violation thresholds for every window width drawn below.
downtimes = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=INTERVAL, allow_nan=False),
)

observe_ops = st.tuples(
    st.just("observe"),
    st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=NUM_VMS, max_size=NUM_VMS),
    st.dictionaries(st.integers(0, NUM_VMS - 1), downtimes, max_size=3),
)
#: Requested seconds for single appends: arbitrary floats, so that a
#: window summed in the wrong order shows in the fraction's last bits.
requests = st.one_of(
    st.sampled_from([INTERVAL, 0.0]),
    st.floats(min_value=1e-3, max_value=2 * INTERVAL, allow_nan=False),
)
record_ops = st.tuples(
    st.just("record"), st.integers(0, NUM_VMS - 1), downtimes, requests
)
reset_ops = st.tuples(st.just("reset"), st.integers(0, NUM_VMS + 2))
round_trip_ops = st.tuples(st.just("round_trip"))
operations = st.lists(
    st.one_of(observe_ops, record_ops, record_ops, reset_ops, round_trip_ops),
    min_size=1,
    max_size=80,
)


class PerRecordSlaCost(SlaCostModel):
    """Same tiers; overriding ``payback_rate`` forces the per-record branch."""

    def payback_rate(self, downtime_fraction: float) -> float:
        return super().payback_rate(downtime_fraction)


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def build_datacenter() -> Datacenter:
    dc = Datacenter(
        [make_pm(i) for i in range(NUM_PMS)],
        [make_vm(j) for j in range(NUM_VMS)],
    )
    # VM 5 stays unplaced: it takes part in a step only through
    # migration downtime.
    for vm_id, pm_id in {0: 0, 1: 0, 2: 1, 3: 1, 4: 2}.items():
        dc.place(vm_id, pm_id)
    dc.vm(3).set_active(False)
    return dc


def expected_entries(
    dc: Datacenter, migration: Dict[int, float]
) -> Dict[int, Tuple[float, float]]:
    """Section 3.3's per-VM ``(downtime, requested)`` for one step."""
    downtime: Dict[int, float] = {}
    requested: Dict[int, float] = {}
    for vm_id in range(NUM_VMS):
        host = dc.host_of(vm_id)
        if host is None or not dc.vm(vm_id).is_active:
            continue
        requested[vm_id] = INTERVAL
        downtime[vm_id] = INTERVAL if dc.is_overloaded(host, BETA) else 0.0
    for vm_id, seconds in migration.items():
        downtime[vm_id] = downtime.get(vm_id, 0.0) + seconds
        requested.setdefault(vm_id, INTERVAL)
    return {
        vm_id: (min(downtime[vm_id], req), req)
        for vm_id, req in requested.items()
    }


def check_against_oracle(
    acc: SlaAccountant, oracle: Dict[int, VmSlaRecord]
) -> None:
    assert sorted(acc.vms) == sorted(oracle)
    for vm_id, record in acc.vms.items():
        expected = oracle[vm_id]
        entries = record.window_entries()
        assert [(bits(d), bits(r)) for d, r in entries] == [
            (bits(d), bits(r)) for d, r in expected.window_entries()
        ]
        assert bits(record.downtime_fraction) == bits(expected.downtime_fraction)
        assert bits(acc.downtime_fraction(vm_id)) == bits(
            expected.downtime_fraction
        )
        recount = sum(1 for downtime, _ in entries if downtime != 0.0)
        assert int(acc._win_nnz[vm_id]) == recount
    batched = SlaCostModel(CostConfig()).step_cost(acc, INTERVAL)
    per_record = PerRecordSlaCost(CostConfig()).step_cost(acc, INTERVAL)
    assert bits(batched) == bits(per_record)


@settings(max_examples=200, deadline=None)
@given(window_steps=st.integers(1, 30), ops=operations)
def test_ring_buffer_matches_deque_records(
    window_steps: int, ops: List[tuple]
) -> None:
    dc = build_datacenter()
    acc = SlaAccountant(
        beta=BETA,
        window_seconds=window_steps * INTERVAL,
        interval_seconds=INTERVAL,
    )
    assert acc.window_steps == window_steps
    oracle: Dict[int, VmSlaRecord] = {}

    def oracle_record(vm_id: int) -> VmSlaRecord:
        return oracle.setdefault(vm_id, VmSlaRecord(window_steps=window_steps))

    for op in ops:
        kind = op[0]
        if kind == "observe":
            _, demands, migration = op
            for vm_id, demand in enumerate(demands):
                dc.vm(vm_id).set_demand(demand)
            entries = expected_entries(dc, migration)
            acc.observe_step(dc, INTERVAL, migration_downtime=migration)
            for vm_id, (downtime, requested) in entries.items():
                oracle_record(vm_id).record_step(downtime, requested)
        elif kind == "record":
            _, vm_id, downtime, requested = op
            acc.vm_record(vm_id).record_step(downtime, requested)
            oracle_record(vm_id).record_step(downtime, requested)
        elif kind == "reset":
            vm_id = op[1]
            acc.reset_vm_window(vm_id)
            if vm_id in oracle:
                oracle[vm_id] = VmSlaRecord(window_steps=window_steps)
        else:
            acc = _sla_from_dict(json.loads(json.dumps(_sla_to_dict(acc))))
        check_against_oracle(acc, oracle)


def test_full_window_evicts_nonzero_entry_from_count() -> None:
    acc = SlaAccountant(window_seconds=2 * INTERVAL, interval_seconds=INTERVAL)
    record = acc.vm_record(0)
    record.record_step(5.0, INTERVAL)
    record.record_step(0.0, INTERVAL)
    assert int(acc._win_nnz[0]) == 1
    record.record_step(0.0, INTERVAL)
    assert int(acc._win_nnz[0]) == 0
    assert record.window_entries() == [(0.0, INTERVAL), (0.0, INTERVAL)]
    vm_ids, fractions = acc.nonzero_downtime_fractions()
    assert vm_ids.tolist() == [] and fractions.tolist() == []


def test_wrapped_window_sums_oldest_first() -> None:
    # Read oldest first, the window sums to exactly 1.0; read from any
    # later slot, the two tiny terms meet first and round the total up.
    acc = SlaAccountant(window_seconds=3 * INTERVAL, interval_seconds=INTERVAL)
    oracle = VmSlaRecord(window_steps=3)
    for downtime in (7.0, 1.0, 1e-16, 1e-16):
        acc.vm_record(0).record_step(downtime, 1.0)
        oracle.record_step(downtime, 1.0)
    assert oracle.downtime_fraction == 1.0 / 3.0
    assert bits(acc.vm_record(0).downtime_fraction) == bits(1.0 / 3.0)
    vm_ids, fractions = acc.nonzero_downtime_fractions()
    assert vm_ids.tolist() == [0]
    assert bits(float(fractions[0])) == bits(1.0 / 3.0)
