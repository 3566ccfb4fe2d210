"""SLA accounting (Section 3.3).

Tracks, per host, the active time ``T_a`` and overload time ``T_o`` (Eq. 4)
and, per VM, the requested-service time ``T_r`` and the downtime from both
live migration (Eq. 5) and overloaded hosts — the paper counts the whole
overloading time of a host against every VM operating on it.

Violation tiers are evaluated on the downtime percentage over a trailing
*billing window* (default one day).  Real SLAs (Amazon/Google/Azure) are
settled per billing period; a cumulative-from-genesis percentage would let
one bad minute at boot dominate a month of good service.  Cumulative
counters are still kept for reporting.

Vectorized accounting
---------------------
Since the struct-of-arrays rewrite the accountant keeps its counters in
dense NumPy vectors indexed by entity id — cumulative seconds in
``float64[cap]`` vectors, billing windows in flat ``float64[cap * W]``
buffers holding one ring of ``W`` slots per VM (row ``r``'s slot ``p``
is element ``r * W + p``).  Each row counts its appends since its last
reset; append ``c`` writes slot ``c mod W``, so a row fills slots
``0..W-1`` in order and, once full, each append overwrites the oldest
entry — the per-record deque's append/evict without shifting the row.
The oldest entry (the head) sits at slot ``max(c - W, 0) mod W``.
Slots a row has not filled hold +0.0.
:class:`HostSlaRecord` and :class:`VmSlaRecord` obtained from an
accountant are *bound views* over those arrays, so the public
per-record API is unchanged; records constructed directly
(``VmSlaRecord(window_steps=2)``) stay standalone scalar/deque objects.

Each row also keeps an exact count of its nonzero downtime entries,
updated on every append, eviction, reset and restore.  A row whose count
is zero has a windowed downtime fraction of exactly 0.0, so
:meth:`SlaAccountant.nonzero_downtime_fractions` evaluates only the rows
with downtime in their window — typically a few dozen of a thousand.

``observe_step`` takes a batched path when the datacenter exposes a
:class:`~repro.cloudsim.soa.DatacenterArrays` mirror: one masked
vector update per counter instead of a Python loop per VM.  Both paths
apply exactly one ``+= interval`` per entity per step and windowed sums
are strict left-to-right accumulations over the row read oldest first
(``np.cumsum``), so every query is bit-identical between the two.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Default billing window: two hours of 5-minute intervals.  Short enough
#: that one overload blip is billed proportionately (not for a whole day),
#: long enough that sustained churn or chronic overload keeps paying.
DEFAULT_WINDOW_SECONDS = 7200.0

#: Initial per-entity capacity of a standalone accountant's arrays; grown
#: geometrically as larger ids are seen.
_MIN_CAPACITY = 16


class HostSlaRecord:
    """Per-host SLA counters.

    Standalone instances hold plain scalars; records handed out by an
    :class:`SlaAccountant` are views over the accountant's arrays.
    """

    __slots__ = ("_owner", "_row", "_active_s", "_overload_s")

    def __init__(
        self, active_seconds: float = 0.0, overload_seconds: float = 0.0
    ) -> None:
        self._owner: Optional["SlaAccountant"] = None
        self._row = -1
        self._active_s = active_seconds
        self._overload_s = overload_seconds

    @classmethod
    def _bound(cls, owner: "SlaAccountant", row: int) -> "HostSlaRecord":
        record = cls()
        record._owner = owner
        record._row = row
        return record

    def __repr__(self) -> str:
        return (
            f"HostSlaRecord(active_seconds={self.active_seconds}, "
            f"overload_seconds={self.overload_seconds})"
        )

    @property
    def active_seconds(self) -> float:
        if self._owner is None:
            return self._active_s
        return float(self._owner._host_active_s[self._row])

    @active_seconds.setter
    def active_seconds(self, value: float) -> None:
        if self._owner is None:
            self._active_s = value
        else:
            self._owner._host_active_s[self._row] = value

    @property
    def overload_seconds(self) -> float:
        if self._owner is None:
            return self._overload_s
        return float(self._owner._host_overload_s[self._row])

    @overload_seconds.setter
    def overload_seconds(self, value: float) -> None:
        if self._owner is None:
            self._overload_s = value
        else:
            self._owner._host_overload_s[self._row] = value

    @property
    def overload_fraction(self) -> float:
        """``O_i(t) = T_o / T_a`` (Eq. 4); 0 when never active."""
        if self.active_seconds <= 0.0:
            return 0.0
        return self.overload_seconds / self.active_seconds


class VmSlaRecord:
    """Per-VM SLA counters: cumulative plus a trailing billing window.

    Standalone instances keep the window in a deque of
    ``(downtime, requested)`` pairs; accountant-bound instances view one
    ring of the accountant's window buffers, which hold the same entries
    and read them back in the same chronological order.
    """

    __slots__ = (
        "_owner",
        "_row",
        "_window_steps",
        "_requested_s",
        "_mig_down_s",
        "_over_down_s",
        "_win",
    )

    def __init__(
        self,
        window_steps: int = 288,
        requested_seconds: float = 0.0,
        migration_downtime_seconds: float = 0.0,
        overload_downtime_seconds: float = 0.0,
    ) -> None:
        self._owner: Optional["SlaAccountant"] = None
        self._row = -1
        self._window_steps = window_steps
        self._requested_s = requested_seconds
        self._mig_down_s = migration_downtime_seconds
        self._over_down_s = overload_downtime_seconds
        self._win: Deque[Tuple[float, float]] = deque()

    @classmethod
    def _bound(cls, owner: "SlaAccountant", row: int) -> "VmSlaRecord":
        record = cls(window_steps=owner.window_steps)
        record._owner = owner
        record._row = row
        return record

    def __repr__(self) -> str:
        return (
            f"VmSlaRecord(window_steps={self.window_steps}, "
            f"requested_seconds={self.requested_seconds}, "
            f"migration_downtime_seconds={self.migration_downtime_seconds}, "
            f"overload_downtime_seconds={self.overload_downtime_seconds})"
        )

    # ------------------------------------------------------------------
    # Counter fields (array-backed when bound)
    # ------------------------------------------------------------------
    @property
    def window_steps(self) -> int:
        if self._owner is None:
            return self._window_steps
        return self._owner.window_steps

    @property
    def requested_seconds(self) -> float:
        if self._owner is None:
            return self._requested_s
        return float(self._owner._vm_requested_s[self._row])

    @requested_seconds.setter
    def requested_seconds(self, value: float) -> None:
        if self._owner is None:
            self._requested_s = value
        else:
            self._owner._vm_requested_s[self._row] = value

    @property
    def migration_downtime_seconds(self) -> float:
        if self._owner is None:
            return self._mig_down_s
        return float(self._owner._vm_mig_down_s[self._row])

    @migration_downtime_seconds.setter
    def migration_downtime_seconds(self, value: float) -> None:
        if self._owner is None:
            self._mig_down_s = value
        else:
            self._owner._vm_mig_down_s[self._row] = value

    @property
    def overload_downtime_seconds(self) -> float:
        if self._owner is None:
            return self._over_down_s
        return float(self._owner._vm_over_down_s[self._row])

    @overload_downtime_seconds.setter
    def overload_downtime_seconds(self, value: float) -> None:
        if self._owner is None:
            self._over_down_s = value
        else:
            self._owner._vm_over_down_s[self._row] = value

    # ------------------------------------------------------------------
    # Billing window
    # ------------------------------------------------------------------
    @property
    def _window(self) -> Deque[Tuple[float, float]]:
        """The window as a deque of ``(downtime, requested)`` pairs.

        For bound records this is a chronological *snapshot* of the
        accountant's window row (kept for introspection and the
        serializer round-trip tests); mutate via ``record_step``.
        """
        if self._owner is None:
            return self._win
        return deque(self.window_entries())

    def window_entries(self) -> List[Tuple[float, float]]:
        """Chronological ``(downtime, requested)`` entries, oldest first."""
        if self._owner is None:
            return [(float(d), float(r)) for d, r in self._win]
        owner = self._owner
        slots = owner._chronological_slots(self._row)
        return [
            (float(owner._win_down[k]), float(owner._win_req[k]))
            for k in slots
        ]

    def record_step(self, downtime: float, requested: float) -> None:
        """Append one interval's (downtime, requested) to the window."""
        if self._owner is None:
            self._win.append((downtime, requested))
            while len(self._win) > self._window_steps:
                self._win.popleft()
        else:
            self._owner._record_window_single(self._row, downtime, requested)

    @property
    def total_downtime_seconds(self) -> float:
        return self.migration_downtime_seconds + self.overload_downtime_seconds

    @property
    def cumulative_downtime_fraction(self) -> float:
        """Downtime over the VM's whole lifetime."""
        if self.requested_seconds <= 0.0:
            return 0.0
        return self.total_downtime_seconds / self.requested_seconds

    @property
    def downtime_fraction(self) -> float:
        """Downtime fraction over the trailing billing window.

        This is the quantity the violation tiers of Section 3.3 are keyed
        on; it recovers once service is restored.
        """
        if self._owner is not None:
            if self._owner._win_nnz[self._row] == 0:
                return 0.0
            return float(self._owner._window_fraction_rows(
                np.array([self._row], dtype=np.int64)
            )[0])
        # Explicit left-to-right totals, the order the accountant's
        # cumsum follows: from Python 3.12 ``sum()`` of floats is
        # compensated and may differ in the last bits.
        requested = 0.0
        downtime = 0.0
        for entry_downtime, entry_requested in self._win:
            requested += entry_requested
            downtime += entry_downtime
        if requested <= 0.0:
            return 0.0
        return downtime / requested


class SlaAccountant:
    """Accumulates overload and downtime statistics step by step.

    Args:
        beta: host overload threshold (fraction of capacity).
        window_seconds: billing-window length for the violation tiers.
        interval_seconds: observation interval (defines window length in
            steps; defaults to 300 s).
        bandwidth_threshold: when set, a host whose *network* demand
            exceeds this fraction is overloaded too (multi-resource
            mode, see ``DatacenterConfig.bandwidth_aware``).

    Attributes:
        hosts: per-host records, keyed by PM id, in first-seen order.
        vms: per-VM records, keyed by VM id, in first-seen order.  Both
            only ever grow: a record, once tracked, is never dropped.
    """

    def __init__(
        self,
        beta: float = 0.70,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        interval_seconds: float = 300.0,
        bandwidth_threshold: Optional[float] = None,
    ) -> None:
        if not 0 < beta <= 1:
            raise ConfigurationError("beta must be in (0, 1]")
        if window_seconds <= 0 or interval_seconds <= 0:
            raise ConfigurationError("window and interval must be > 0")
        self.beta = beta
        self.window_seconds = window_seconds
        self.interval_seconds = interval_seconds
        self.bandwidth_threshold = bandwidth_threshold
        self.hosts: Dict[int, HostSlaRecord] = {}
        self.vms: Dict[int, VmSlaRecord] = {}
        # Array-backed counters (rows indexed by entity id, grown on
        # demand so a standalone accountant works without a datacenter).
        self._host_active_s = np.zeros(0, dtype=np.float64)
        self._host_overload_s = np.zeros(0, dtype=np.float64)
        self._vm_requested_s = np.zeros(0, dtype=np.float64)
        self._vm_mig_down_s = np.zeros(0, dtype=np.float64)
        self._vm_over_down_s = np.zeros(0, dtype=np.float64)
        # Billing windows: one ring of ``_width`` slots per VM row, flat
        # (row r, slot p at r * _width + p), with per-row appends since
        # the last reset and count of nonzero downtime entries held.
        self._width = self.window_steps
        self._win_down = np.zeros(0, dtype=np.float64)
        self._win_req = np.zeros(0, dtype=np.float64)
        self._win_appends = np.zeros(0, dtype=np.int64)
        self._win_nnz = np.zeros(0, dtype=np.int64)
        # VM ids in first-seen order (the ``vms`` dict order), so batched
        # queries can walk the fleet in that order without the dict.
        self._vm_order = np.zeros(0, dtype=np.int64)
        # Mirrors of dict membership, so the batched path can find the
        # not-yet-tracked entities without a per-id dict probe.
        self._host_seen = np.zeros(0, dtype=bool)
        self._vm_seen = np.zeros(0, dtype=bool)
        # Scratch buffers for the batched observe path.
        self._buf_down = np.zeros(0, dtype=np.float64)
        self._buf_in_step = np.zeros(0, dtype=bool)

    @property
    def window_steps(self) -> int:
        return max(1, int(round(self.window_seconds / self.interval_seconds)))

    # ------------------------------------------------------------------
    # Capacity management
    # ------------------------------------------------------------------
    @staticmethod
    def _grow_1d(array: np.ndarray, capacity: int) -> np.ndarray:
        grown = np.zeros(capacity, dtype=array.dtype)
        grown[: array.shape[0]] = array
        return grown

    def _ensure_host_capacity(self, size: int) -> None:
        if size <= self._host_active_s.shape[0]:
            return
        capacity = max(size, _MIN_CAPACITY, 2 * self._host_active_s.shape[0])
        self._host_active_s = self._grow_1d(self._host_active_s, capacity)
        self._host_overload_s = self._grow_1d(self._host_overload_s, capacity)
        self._host_seen = self._grow_1d(self._host_seen, capacity)

    def _ensure_vm_capacity(self, size: int) -> None:
        if size <= self._vm_requested_s.shape[0]:
            return
        capacity = max(size, _MIN_CAPACITY, 2 * self._vm_requested_s.shape[0])
        self._vm_requested_s = self._grow_1d(self._vm_requested_s, capacity)
        self._vm_mig_down_s = self._grow_1d(self._vm_mig_down_s, capacity)
        self._vm_over_down_s = self._grow_1d(self._vm_over_down_s, capacity)
        self._win_appends = self._grow_1d(self._win_appends, capacity)
        self._win_nnz = self._grow_1d(self._win_nnz, capacity)
        self._vm_order = self._grow_1d(self._vm_order, capacity)
        self._vm_seen = self._grow_1d(self._vm_seen, capacity)
        width = self._width
        self._win_down = self._grow_1d(self._win_down, capacity * width)
        self._win_req = self._grow_1d(self._win_req, capacity * width)
        self._buf_down = np.zeros(capacity, dtype=np.float64)
        self._buf_in_step = np.zeros(capacity, dtype=bool)

    # ------------------------------------------------------------------
    # Record access
    # ------------------------------------------------------------------
    def host_record(self, pm_id: int) -> HostSlaRecord:
        record = self.hosts.get(pm_id)
        if record is None:
            self._ensure_host_capacity(pm_id + 1)
            record = HostSlaRecord._bound(self, pm_id)
            self.hosts[pm_id] = record
            self._host_seen[pm_id] = True
        return record

    def vm_record(self, vm_id: int) -> VmSlaRecord:
        record = self.vms.get(vm_id)
        if record is None:
            self._ensure_vm_capacity(vm_id + 1)
            record = self._track_vm(vm_id)
        return record

    def _track_vm(self, vm_id: int) -> VmSlaRecord:
        """Start tracking a VM id (capacity already ensured)."""
        record = VmSlaRecord._bound(self, vm_id)
        self._vm_order[len(self.vms)] = vm_id
        self.vms[vm_id] = record
        self._vm_seen[vm_id] = True
        return record

    def restore_host_record(
        self, pm_id: int, active_seconds: float, overload_seconds: float
    ) -> HostSlaRecord:
        """Recreate a host record from serialized counters."""
        record = self.host_record(pm_id)
        record.active_seconds = active_seconds
        record.overload_seconds = overload_seconds
        return record

    def restore_vm_record(
        self,
        vm_id: int,
        requested_seconds: float,
        migration_downtime_seconds: float,
        overload_downtime_seconds: float,
        window: Iterable[Tuple[float, float]],
    ) -> VmSlaRecord:
        """Recreate a VM record (counters plus billing window)."""
        record = self.vm_record(vm_id)
        record.requested_seconds = requested_seconds
        record.migration_downtime_seconds = migration_downtime_seconds
        record.overload_downtime_seconds = overload_downtime_seconds
        self.reset_vm_window(vm_id)
        for downtime, requested in window:
            self._record_window_single(vm_id, downtime, requested)
        return record

    def reset_vm_window(self, vm_id: int) -> None:
        """Clear a VM id's billing window (service mode: occupant left).

        When a churning VM departs, its slot id may later be reused by a
        new arrival; without this, the departed occupant's frozen window
        would keep billing SLA paybacks against an empty slot.  The
        cumulative counters are kept — they aggregate over everything
        the slot ever served.  A never-seen id is a no-op.
        """
        if vm_id < self._win_appends.shape[0]:
            width = self._width
            start = vm_id * width
            self._win_down[start : start + width] = 0.0
            self._win_req[start : start + width] = 0.0
            self._win_appends[vm_id] = 0
            self._win_nnz[vm_id] = 0

    # ------------------------------------------------------------------
    # Window maintenance
    # ------------------------------------------------------------------
    def _chronological_slots(self, row: int) -> List[int]:
        """Flat slot indices of a row's entries, oldest first."""
        width = self._width
        appends = int(self._win_appends[row])
        head = max(appends - width, 0) % width
        return [
            row * width + (head + k) % width
            for k in range(min(appends, width))
        ]

    def _record_window_single(
        self, row: int, downtime: float, requested: float
    ) -> None:
        """Append one entry to a single VM's window (scalar path)."""
        width = self._width
        slot = row * width + int(self._win_appends[row]) % width
        # The overwritten slot holds the evicted entry when the row is
        # full and +0.0 otherwise, so one difference of nonzero flags
        # (a float's truth value) keeps the count exact.
        self._win_nnz[row] += int(bool(downtime)) - int(
            bool(self._win_down[slot])
        )
        self._win_down[slot] = downtime
        self._win_req[slot] = requested
        self._win_appends[row] += 1

    def _record_window_batch(
        self, rows: np.ndarray, downtime: np.ndarray, requested: float
    ) -> None:
        """Append one entry to many VMs' windows in one vector pass.

        ``rows`` must be distinct (each VM appends once per step); every
        entry requests the same ``requested`` seconds.
        """
        width = self._width
        appends = self._win_appends[rows]
        slots = rows * width + appends % width
        self._win_nnz[rows] += downtime.astype(bool).astype(np.int64) - (
            self._win_down[slots].astype(bool)
        )
        self._win_down[slots] = downtime
        self._win_req[slots] = requested
        self._win_appends[rows] = appends + 1

    def _window_fraction_rows(self, rows: np.ndarray) -> np.ndarray:
        """Windowed downtime fractions for the given rows.

        Each row is read oldest first and summed left to right
        (``np.cumsum``), matching the deque implementation bit for bit;
        unfilled slots hold +0.0, which never perturbs a left-to-right
        sum of non-negative terms.
        """
        if rows.size == 0:
            return np.zeros(0, dtype=np.float64)
        width = self._width
        heads = np.maximum(self._win_appends[rows] - width, 0) % width
        slots = rows[:, None] * width + (
            (heads[:, None] + np.arange(width, dtype=np.int64)) % width
        )
        requested = np.cumsum(self._win_req[slots], axis=1)[:, -1]
        downtime = np.cumsum(self._win_down[slots], axis=1)[:, -1]
        fractions = np.zeros(rows.shape[0], dtype=np.float64)
        served = requested > 0.0
        fractions[served] = downtime[served] / requested[served]
        return fractions

    # ------------------------------------------------------------------
    # Per-step observation
    # ------------------------------------------------------------------
    def observe_step(
        self,
        datacenter,
        interval_seconds: float,
        migration_downtime: Mapping[int, float] = (),
    ) -> None:
        """Record one observation interval.

        * every host serving VMs accrues active time, and overload time
          when its demanded utilization exceeds ``beta``;
        * every active VM accrues requested time;
        * VMs on overloaded hosts accrue the full interval as overload
          downtime (Section 3.3 counts the host's whole overloading time
          against each VM on it);
        * per-VM migration downtime (from the migration engine) is added
          as reported.
        """
        if interval_seconds <= 0:
            raise ConfigurationError("interval must be > 0")
        arrays = getattr(datacenter, "arrays", None)
        if arrays is not None:
            self._observe_step_vectorized(
                datacenter, arrays, interval_seconds, migration_downtime
            )
        else:
            self._observe_step_objects(
                datacenter, interval_seconds, migration_downtime
            )

    def _observe_step_vectorized(
        self, datacenter, arrays, interval_seconds: float,
        migration_downtime: Mapping[int, float],
    ) -> None:
        migration = dict(migration_downtime)
        self._ensure_host_capacity(datacenter.num_pms)
        # Sized for every id this step touches, so the scratch buffers
        # are not reallocated while they are being filled.
        self._ensure_vm_capacity(
            max(datacenter.num_vms, max(migration, default=-1) + 1)
        )
        interval = interval_seconds

        active_ids = np.flatnonzero(arrays.active_pm_mask())
        new_hosts = active_ids[~self._host_seen[active_ids]]
        for pm_id in new_hosts:
            pm_key = int(pm_id)
            self.hosts[pm_key] = HostSlaRecord._bound(self, pm_key)
            self._host_seen[pm_key] = True
        self._host_active_s[active_ids] += interval
        overloaded_mask = arrays.overloaded_pm_mask(
            self.beta, self.bandwidth_threshold
        )
        self._host_overload_s[np.flatnonzero(overloaded_mask)] += interval

        placed = arrays.host_of >= 0
        eligible = placed & arrays.vm_active
        eligible_ids = np.flatnonzero(eligible)
        self._vm_requested_s[eligible_ids] += interval
        on_overloaded = np.zeros_like(eligible)
        on_overloaded[eligible_ids] = overloaded_mask[
            arrays.host_of[eligible_ids]
        ]
        overloaded_vm_ids = np.flatnonzero(on_overloaded)
        self._vm_over_down_s[overloaded_vm_ids] += interval

        # New VM records in the same first-seen order as the object
        # path: host id ascending, VM id ascending within a host.
        new_ids = eligible_ids[~self._vm_seen[eligible_ids]]
        if new_ids.size:
            order = np.lexsort((new_ids, arrays.host_of[new_ids]))
            for vm_id in new_ids[order]:
                self._track_vm(int(vm_id))

        down = self._buf_down
        in_step = self._buf_in_step
        down.fill(0.0)
        in_step.fill(False)
        down[overloaded_vm_ids] = interval
        in_step[eligible_ids] = True
        for vm_id, seconds in migration.items():
            self.vm_record(vm_id).migration_downtime_seconds += seconds
            down[vm_id] += seconds
            in_step[vm_id] = True

        # Every participant requests the full interval: hosted VMs
        # accrue it, and a migration-only VM is billed for it too.
        participants = np.flatnonzero(in_step)
        if participants.size:
            self._record_window_batch(
                participants,
                np.minimum(down[participants], interval),
                interval,
            )

    def _observe_step_objects(
        self, datacenter, interval_seconds: float,
        migration_downtime: Mapping[int, float],
    ) -> None:
        """Object-model path for datacenters without an array mirror.

        Hosted VMs are visited in ascending id order — the canonical
        accumulation order shared with the vectorized path.
        """
        mig: Dict[int, float] = dict(migration_downtime)
        step_downtime: Dict[int, float] = {}
        step_requested: Dict[int, float] = {}
        for pm_id in datacenter.active_pm_ids():
            record = self.host_record(pm_id)
            record.active_seconds += interval_seconds
            overloaded = datacenter.is_overloaded(pm_id, self.beta) or (
                self.bandwidth_threshold is not None
                and datacenter.is_bandwidth_overloaded(
                    pm_id, self.bandwidth_threshold
                )
            )
            if overloaded:
                record.overload_seconds += interval_seconds
            for vm_id in sorted(datacenter.vms_on(pm_id)):
                vm = datacenter.vm(vm_id)
                if not vm.is_active:
                    continue
                vm_rec = self.vm_record(vm_id)
                vm_rec.requested_seconds += interval_seconds
                step_requested[vm_id] = interval_seconds
                if overloaded:
                    vm_rec.overload_downtime_seconds += interval_seconds
                    step_downtime[vm_id] = (
                        step_downtime.get(vm_id, 0.0) + interval_seconds
                    )
        for vm_id, seconds in mig.items():
            self.vm_record(vm_id).migration_downtime_seconds += seconds
            step_downtime[vm_id] = step_downtime.get(vm_id, 0.0) + seconds
            step_requested.setdefault(vm_id, interval_seconds)
        for vm_id, requested in step_requested.items():
            downtime = min(step_downtime.get(vm_id, 0.0), requested)
            self.vm_record(vm_id).record_step(downtime, requested)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def downtime_fraction(self, vm_id: int) -> float:
        """Windowed downtime fraction for a VM (0 if never seen)."""
        record = self.vms.get(vm_id)
        return record.downtime_fraction if record else 0.0

    def nonzero_downtime_fractions(self) -> Tuple[np.ndarray, np.ndarray]:
        """Batched ``(vm_ids, fractions)`` over the tracked VMs that have
        downtime in their billing window.

        Every other tracked VM's windowed fraction is exactly 0.0.  Ids
        come back in first-seen order (the ``vms`` dict order), so a cost
        model summing per-VM terms over this vector accumulates in the
        order the per-record loop would, minus its zero terms.
        """
        order = self._vm_order[: len(self.vms)]
        vm_ids = order[self._win_nnz[order] > 0]
        return vm_ids, self._window_fraction_rows(vm_ids)

    def overall_sla_violation(self) -> float:
        """Mean lifetime downtime fraction across VMs — a QoS summary."""
        if not self.vms:
            return 0.0
        # Left to right: from Python 3.12 ``sum()`` of floats is
        # compensated and may differ in the last bits.
        total = 0.0
        for record in self.vms.values():  # meghlint: ignore[MEGH009] -- cold path: end-of-run summary
            total += record.cumulative_downtime_fraction
        return total / len(self.vms)
