"""The benchmark's workloads: inputs made from a seed, and one run each.

Every workload builds its inputs (trace, fleet, initial placement,
scheduler) from ``--seed`` alone; the program receives only those
generated inputs.

* ``planetlab-megh-week`` — the paper's headline run: synthetic
  PlanetLab, 800 PMs x 1,052 VMs (d = 841,600), Megh, the full
  2,016-step week.  decide() cost falls as the learner settles, so only
  the whole week gives the real per-step cost.  Never retires a slot,
  never calls PABFD, never checkpoints.
* ``planetlab-thr-mmt`` — the same fleet and trace under the THR-MMT
  baseline for ``THR_STEPS`` steps.  Nearly all of its time is in
  power-aware best-fit (PABFD); Megh's core is never called.
* ``service-churn`` — the event-driven service loop on 200 PMs and 300
  reusable VM slots, about 7 Poisson arrivals per step and a mean
  lifetime of 32 steps, checkpointing every ``CHECKPOINT_EVERY`` steps.
  It drives the learner's write paths: slot retirement, admission,
  per-VM demand-trace creation and checkpoint IO.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.baselines.mmt import scheduler as mmt_scheduler_module
from repro.baselines.mmt.scheduler import MMTScheduler
from repro.cloudsim import simulation as simulation_module
from repro.cloudsim.metrics import MetricsCollector
from repro.cloudsim.migration import MigrationEngine
from repro.cloudsim.monitor import UtilizationMonitor
from repro.cloudsim.sla import SlaAccountant
from repro.cloudsim.validation import check_invariants
from repro.core.agent import MeghScheduler
from repro.core.basis import VmSlotPool
from repro.core.checkpoint import load_service
from repro.costs.energy import EnergyCostModel
from repro.costs.sla_cost import SlaCostModel
from repro.harness.builders import build_planetlab_simulation
from repro.service import loop as service_loop_module
from repro.service.builders import build_churn_service
from repro.service.churn import CREATE

from speed import Mark, durations
from tracer import LayerTracer

#: The paper's PlanetLab scale (Section 6) and its 7-day horizon.
PLANETLAB_PMS = 800
PLANETLAB_VMS = 1052
WEEK_STEPS = 2016

#: THR-MMT horizon.  At today's ~1.6 s per step a run takes ~20 s; once
#: PABFD reaches the ROADMAP target of 50 ms per step a run still takes
#: ~0.6 s, and the fixed-time loop in run.py repeats it to fill
#: ``--seconds``, so the measurement stays long enough to be steady.
THR_STEPS = 12

#: Large enough that retirement (whose cost grows with the PM count)
#: is a visible share of the run, short enough to repeat.
CHURN_PARAMS = dict(
    num_pms=200,
    capacity=300,
    num_steps=504,
    arrival_rate=7.0,
    mean_lifetime_steps=32.0,
    initial_vms=150,
)
CHECKPOINT_EVERY = 72

#: Windows of the per-window learner metrics: 336 steps each on the
#: week, where decide() cost falls as the learner settles.
WINDOWS = 6


@dataclass
class Setup:
    """One workload's built inputs, ready to run once."""

    workload: str
    simulation: Any  # Simulation or ServiceSimulation
    scheduler: Any
    steps: int

    @property
    def is_service(self) -> bool:
        return self.workload == "service-churn"

    @property
    def megh(self) -> Optional[MeghScheduler]:
        return (
            self.scheduler
            if isinstance(self.scheduler, MeghScheduler)
            else None
        )


def build(workload: str, seed: int) -> Setup:
    """Trace generation, fleet and placement, scheduler construction."""
    if workload == "service-churn":
        service = build_churn_service(seed=seed, **CHURN_PARAMS)
        agent = MeghScheduler.from_simulation(
            service, seed=seed, contracts=False
        )
        return Setup(workload, service, agent, CHURN_PARAMS["num_steps"])
    simulation = build_planetlab_simulation(
        num_pms=PLANETLAB_PMS,
        num_vms=PLANETLAB_VMS,
        num_steps=WEEK_STEPS,
        seed=seed,
    )
    if workload == "planetlab-megh-week":
        scheduler: Any = MeghScheduler.from_simulation(
            simulation, seed=seed, contracts=False
        )
        return Setup(workload, simulation, scheduler, WEEK_STEPS)
    scheduler = MMTScheduler("THR", utilization_threshold=0.7)
    return Setup(workload, simulation, scheduler, THR_STEPS)


@dataclass
class RunResult:
    """What one run of a workload produced and how long it took."""

    #: Step boundaries: run start, each later decide() entry, run end.
    step_marks: List[Mark]
    #: Probe-free host seconds of each decision (one per step).
    decide_s: List[float]
    events: int
    #: Migrations requested plus arrivals, and how many of them the
    #: engine rejected or a full slot pool refused.
    requested: int
    refused: int
    fingerprint: Dict[str, Any]
    #: Library-side counters read after the run (no tracing needed).
    library: Dict[str, float] = field(default_factory=dict)
    #: ``(step, B nonzeros)`` after every Megh decision.
    nnz_samples: List[tuple] = field(default_factory=list)

    @property
    def run_s(self) -> float:
        """Probe-free host seconds of the whole run."""
        return float(durations(self.step_marks).sum())


def run(
    setup: Setup,
    workdir: str,
    mark: Callable[[], Mark],
    tracer: Optional[LayerTracer] = None,
) -> RunResult:
    """Run ``setup`` once, timing each decision; trace if asked.

    ``mark`` is the clock, :meth:`speed.SpeedGauge.mark`, so that probe
    time can be taken out of every interval.
    """
    scheduler = setup.scheduler
    samples: List[float] = []
    entries: List[Mark] = []
    decide = scheduler.decide

    def timed_decide(observation):
        started = mark()
        migrations = decide(observation)
        ended = mark()
        samples.append(
            (ended.clock - started.clock) - (ended.probe_s - started.probe_s)
        )
        entries.append(started)
        return migrations

    scheduler.decide = timed_decide
    if tracer is not None:
        _attach(tracer, setup)
    checkpoint = os.path.join(workdir, "checkpoint.npz")
    kernel_before = _kernel_stats(setup)
    started = mark()
    try:
        if setup.is_service:
            result = setup.simulation.run(
                scheduler,
                validate_every_step=False,
                checkpoint_every=CHECKPOINT_EVERY,
                checkpoint_path=checkpoint,
            )
        else:
            result = setup.simulation.run(
                scheduler, num_steps=setup.steps, validate_every_step=False
            )
        finished = mark()
    finally:
        if tracer is not None:
            tracer.detach()
        del scheduler.decide
    check_invariants(setup.simulation.datacenter)
    # One decision per step: consecutive decide() entries bound a step.
    step_marks = [started, *entries[1:], finished]
    return _summarize(setup, result, step_marks, samples, kernel_before)


def load_last_checkpoint(workdir: str) -> float:
    """Seconds to restore the service from the run's last checkpoint."""
    path = os.path.join(workdir, "checkpoint.npz")
    started = time.perf_counter()
    load_service(path, contracts=False)
    return time.perf_counter() - started


def _kernel_stats(setup: Setup) -> Dict[str, Any]:
    agent = setup.megh
    return agent.lstd.B.kernel_stats() if agent is not None else {}


def _summarize(
    setup: Setup,
    result,
    step_marks: List[Mark],
    samples: List[float],
    kernel_before: Dict[str, Any],
) -> RunResult:
    steps = result.metrics.steps
    started = sum(step.num_migrations_started for step in steps)
    rejected = sum(step.num_migrations_rejected for step in steps)
    agent = setup.megh
    churn_events = arrivals = pool_rejections = admissions = 0
    if setup.is_service:
        service = setup.simulation
        churn_events = service.churn_events_applied
        arrivals = sum(
            1
            for event in service.churn.events[:churn_events]
            if event.kind == CREATE
        )
        # Every admitted VM is either still live or was retired once.
        admissions = agent.lstd.retirements_applied + service.num_live_vms
        pool_rejections = arrivals - admissions
    payload = result.to_dict()
    for record in payload["steps"]:
        record.pop("scheduler_seconds", None)
    fingerprint = {
        "total_cost_usd": result.total_cost_usd,
        "migrations": result.total_migrations,
        "b_nnz": agent.lstd.q_table_nonzeros if agent is not None else 0,
        "churn_events": churn_events,
        "result_sha256": hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest(),
    }
    library: Dict[str, float] = {
        "cloudsim.migrations_started": started,
        "cloudsim.migrations_rejected": rejected,
        "service.admissions": admissions,
        "service.pool_rejections": pool_rejections,
    }
    library.update(_learner_counters(agent, kernel_before))
    nnz_samples = list(agent.qtable.samples) if agent is not None else []
    return RunResult(
        step_marks=step_marks,
        decide_s=samples,
        events=churn_events + started,
        requested=started + rejected + arrivals,
        refused=rejected + pool_rejections,
        fingerprint=fingerprint,
        library=library,
        nnz_samples=nnz_samples,
    )


def _learner_counters(agent, kernel_before) -> Dict[str, float]:
    """Kernel and theta-cache counters; zeros when Megh did not run."""
    if agent is None:
        return dict.fromkeys(
            (
                "core.kern.flush_s",
                "core.kern.enqueue_s",
                "core.kern.applied",
                "core.kern.skipped",
                "core.kern.useful_ratio",
                "core.kern.c_backend",
                "core.theta_cache_hit_ratio",
            ),
            0,
        )
    after = agent.lstd.B.kernel_stats()
    applied = after["applied"] - kernel_before["applied"]
    skipped = after["skipped"] - kernel_before["skipped"]
    hits = agent.lstd.theta_cache_hits
    lookups = hits + agent.lstd.theta_cache_misses
    return {
        "core.kern.flush_s": after["flush_seconds"]
        - kernel_before["flush_seconds"],
        "core.kern.enqueue_s": after["enqueue_seconds"]
        - kernel_before["enqueue_seconds"],
        "core.kern.applied": applied,
        "core.kern.skipped": skipped,
        "core.kern.useful_ratio": (
            applied / (applied + skipped) if applied + skipped else 0.0
        ),
        "core.kern.c_backend": 1 if after["kernel"] == "c" else 0,
        "core.theta_cache_hit_ratio": hits / lookups if lookups else 0.0,
    }


def window_metrics(
    decide_s: np.ndarray, nnz_samples: List[tuple]
) -> Dict[str, float]:
    """decide() p50 and B nonzeros at the end of each of ``WINDOWS`` windows.

    ``nnz_samples`` is empty when Megh did not run; the metrics are 0.
    """
    metrics: Dict[str, float] = {}
    bounds = np.array_split(np.arange(len(decide_s)), WINDOWS)
    for number, window in enumerate(bounds, start=1):
        p50 = nnz = 0.0
        if window.size and nnz_samples:
            p50 = float(np.median(decide_s[window])) * 1e3
            nnz = nnz_samples[int(window[-1])][1]
        metrics[f"core.decide_ms_p50.w{number}"] = p50
        metrics[f"core.b_nnz.w{number}"] = nnz
    return metrics


def _attach(tracer: LayerTracer, setup: Setup) -> None:
    """Wrap the calls into every layer this workload reaches."""
    sim = setup.simulation
    datacenter = sim.datacenter
    wrap = tracer.wrap
    counters = tracer.counters

    def count(key: str, amount) -> None:
        counters[key] += amount

    # repro.cloudsim — the simulator's per-step stages.
    wrap(UtilizationMonitor, "observe", "cloudsim.monitor")
    for name in ("start", "advance", "cancel"):
        wrap(MigrationEngine, name, "cloudsim.migration")
    wrap(datacenter, "share_cpu", "cloudsim.share_cpu")
    wrap(SlaAccountant, "observe_step", "cloudsim.sla")
    for name in ("num_active_hosts", "sleep_idle_hosts", "overloaded_pm_ids"):
        wrap(datacenter, name, "cloudsim.metrics")
    wrap(sim, "_mean_active_host_utilization", "cloudsim.metrics")
    wrap(MetricsCollector, "record", "cloudsim.metrics")
    # repro.costs — the two halves of the Eq. 6 step cost.
    wrap(EnergyCostModel, "step_cost", "costs.energy")
    wrap(SlaCostModel, "step_cost", "costs.sla")

    # repro.mdp — the state observation and the Observation handed to
    # the scheduler; the per-step StepMetrics record is the simulator's.
    loop_module = service_loop_module if setup.is_service else simulation_module
    wrap(loop_module, "observe_state", "mdp.observe_state")
    wrap(loop_module, "Observation", "mdp.observe_state")
    wrap(loop_module, "StepMetrics", "cloudsim.metrics")

    if setup.is_service:
        wrap(sim, "_apply_demand", "cloudsim.workload")
        # repro.service — churn application, admission and placement.
        wrap(sim, "_apply_churn", "service.loop_self")
        wrap(
            sim,
            "_place_pending",
            "service.loop_self",
            lambda args, kwargs, _: (
                count("service.occupied_slot_steps", args[0].pool.num_live),
                count("service.slot_steps", args[0].pool.capacity),
            ),
        )
        wrap(
            VmSlotPool,
            "allocate",
            "service.loop_self",
            lambda args, kwargs, slot: count(
                "service.admissions" if slot is not None
                else "service.pool_rejections",
                1,
            ),
        )
        wrap(sim, "_demand_trace", "service.demand_trace")
        # repro.core.checkpoint — runtime snapshot plus the NPZ write.
        wrap(
            sim,
            "_write_checkpoint",
            "checkpoint.save",
            lambda args, kwargs, _: counters.__setitem__(
                "checkpoint.bytes", os.path.getsize(args[0])
            ),
        )
    else:
        wrap(sim, "_apply_workload", "cloudsim.workload")
        wrap(sim.workload, "step_slice", "cloudsim.workload")

    scheduler = setup.scheduler
    agent = setup.megh
    if agent is not None:
        # repro.core — Megh's decide() phases and slot retirement.
        wrap(agent, "decide", "core.decide")
        wrap(
            agent.candidate_index,
            "plan",
            "core.plan",
            lambda args, kwargs, plan: count(
                "core.candidate_actions", plan.num_actions
            ),
        )
        wrap(
            agent.lstd,
            "q_values",
            "core.q_values",
            lambda args, kwargs, q: count("core.q_scored", len(q)),
        )
        wrap(agent.lstd, "update", "core.update")
        wrap(agent.policy, "select", "core.select")
        wrap(agent, "retire_vm", "core.retire")
    else:
        # repro.baselines — THR-MMT's detection, selection and PABFD.
        wrap(scheduler, "decide", "baselines.decide")
        wrap(mmt_scheduler_module, "power_aware_best_fit", "baselines.pabfd")
        wrap(scheduler.detector, "is_overloaded", "baselines.detect")
        wrap(scheduler.detector, "threshold", "baselines.detect")
        wrap(scheduler.selection, "select", "baselines.vm_select")
