"""End-to-end benchmark of the Megh reproduction, one workload per call.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload planetlab-megh-week --seed 1 \\
        --seconds 10 --trace 0

With ``--trace 0`` the workload is run untraced, repeatedly with the same
seed, until ``--seconds`` of run time are measured (at least twice), and
the end-to-end metrics are printed.  With ``--trace 1`` the same
untraced runs are followed by one traced run, and the per-layer split
is printed.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every run records a fingerprint of its result (Eq. 6 cost, migrations,
final B nonzeros, churn events applied and a digest of the full
per-step result).  The command fails if two runs of one seed, or the
traced and untraced runs, disagree, or if the final datacenter breaks
an invariant.  See ``perfbench/README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

WORKLOADS = ("planetlab-megh-week", "planetlab-thr-mmt", "service-churn")

#: Set-ups timed per call, at least (extra ones are built and dropped).
MIN_SETUPS = 3
#: No further run starts once this much wall time has passed, which
#: keeps one call well inside three minutes.
RUN_BUDGET_S = 100.0

#: Thread pools pinned to one thread: the benchmark measures a single
#: worker thread.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

class FingerprintMismatch(Exception):
    """Two runs that must produce identical results did not."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def pinned_environment() -> Dict[str, str]:
    """The environment every measurement runs in."""
    env = dict(os.environ)
    # The test suite turns the numerical contracts on; the benchmark
    # measures the production path.
    env["REPRO_CONTRACTS"] = "0"
    # The compiled kernel, and the compiler's temporary files, stay
    # inside the checkout.
    env["REPRO_KERNEL_CACHE"] = str(WORKDIR / "kernel-cache")
    env["TMPDIR"] = str(WORKDIR / "tmp")
    # A fixed string-hash seed keeps dict and set layouts, and so their
    # cost, the same from call to call.
    env["PYTHONHASHSEED"] = "0"
    for name in THREAD_VARIABLES:
        env[name] = "1"
    return env


def environment_fingerprint(kernel_backend: str) -> Dict[str, Any]:
    """Machine, toolchain, source and runtime settings of this record."""
    import numpy as np

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gcc": _first_line(["gcc", "--version"]),
        "commit": _first_line(["git", "-C", str(ROOT), "rev-parse", "HEAD"]),
        "source_sha256": _source_digest(),
        "kernel_backend": kernel_backend,
        "repro_env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_")
        },
        "thread_pools": {name: os.environ[name] for name in THREAD_VARIABLES},
        "python_hash_seed": os.environ["PYTHONHASHSEED"],
    }


def _first_line(command: List[str]) -> str:
    try:
        completed = subprocess.run(
            command, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return completed.stdout.splitlines()[0].strip()


def _source_digest() -> str:
    """Digest of the library and benchmark sources (commit-free trees)."""
    digest = hashlib.sha256()
    for directory in (SOURCE / "repro", Path(__file__).resolve().parent):
        for path in sorted(directory.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
            digest.update(path.read_bytes())
    return digest.hexdigest()


def warm_up(workdir: str) -> str:
    """Compile/load the kernel and touch every code path before timing.

    Returns the kernel backend the library selected.
    """
    from repro.baselines.mmt.scheduler import MMTScheduler
    from repro.core.agent import MeghScheduler
    from repro.core.checkpoint import load_service
    from repro.harness.builders import build_planetlab_simulation
    from repro.service.builders import build_churn_service

    simulation = build_planetlab_simulation(
        num_pms=20, num_vms=30, num_steps=12, seed=0
    )
    agent = MeghScheduler.from_simulation(simulation, contracts=False)
    simulation.run(agent, validate_every_step=False)
    simulation.reset()
    simulation.run(MMTScheduler("THR"), num_steps=4, validate_every_step=False)
    service = build_churn_service(seed=0, num_steps=24)
    service_agent = MeghScheduler.from_simulation(service, contracts=False)
    path = os.path.join(workdir, "warm.npz")
    service.run(
        service_agent,
        validate_every_step=False,
        checkpoint_every=8,
        checkpoint_path=path,
    )
    load_service(path, contracts=False)
    return str(agent.lstd.B.kernel_stats()["kernel"])


def check_fingerprints(runs, what: str) -> None:
    first = runs[0].fingerprint
    for other in runs[1:]:
        if other.fingerprint != first:
            raise FingerprintMismatch(
                f"{what}: {json.dumps(first, sort_keys=True)} != "
                f"{json.dumps(other.fingerprint, sort_keys=True)}"
            )


def pairs(items):
    """Consecutive, disjoint pairs."""
    return [items[index : index + 2] for index in range(0, len(items) - 1, 2)]


def timing(first, second, events: int) -> Dict[str, float]:
    """Throughput and decide() latency of one pair of runs.

    ``first`` and ``second`` are ``(step seconds, decide seconds)``.
    Two runs of one seed do identical work step for step, so each step
    and each decision keeps the faster of its two timings, which filters
    what interference the speed correction leaves; always pairing runs
    keeps this filter's own bias the same however many runs fit into
    ``--seconds``.
    """
    import numpy as np

    step_s = np.minimum(first[0], second[0])
    decide_s = np.minimum(first[1], second[1])
    run_s = float(step_s.sum())
    return {
        "steps_per_s": step_s.size / run_s,
        "decide_ms_p50": float(np.percentile(decide_s, 50)) * 1e3,
        "decide_ms_p99": float(np.percentile(decide_s, 99)) * 1e3,
        "events_per_s": events / run_s,
    }


def measure(args: argparse.Namespace, workdir: str) -> Dict[str, Any]:
    """Run the workload as asked; return the record to print."""
    # Imports and warm-up are one-off costs, reported apart from setup_s.
    clock = time.perf_counter()
    import numpy as np
    import workloads
    from speed import SpeedGauge, durations
    from tracer import LayerTracer

    backend = warm_up(workdir)
    warmup_s = time.perf_counter() - clock
    setup_marks = []
    runs = []
    with SpeedGauge() as gauge:
        started = time.perf_counter()
        while len(runs) < 2 or len(runs) % 2 or (
            sum(r.run_s for r in runs) < args.seconds
            and time.perf_counter() - started < RUN_BUDGET_S
        ):
            before = gauge.mark()
            setup = workloads.build(args.workload, args.seed)
            setup_marks.append([before, gauge.mark()])
            runs.append(workloads.run(setup, workdir, gauge.mark))
            if len(runs) == 1:
                # Later runs may only add allocator slack, and their
                # number depends on the program's speed.
                peak_rss_mb = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                )
            del setup
            gc.collect()
        while not args.trace and len(setup_marks) < MIN_SETUPS:
            before = gauge.mark()
            workloads.build(args.workload, args.seed)
            setup_marks.append([before, gauge.mark()])
            gc.collect()
        if args.trace:
            tracer = LayerTracer()
            traced_setup = workloads.build(args.workload, args.seed)
            traced = workloads.run(traced_setup, workdir, gauge.mark, tracer)
    check_fingerprints(runs, "repeat of one seed")
    corrected = []
    for run in runs:
        factors = gauge.factors(run.step_marks)
        corrected.append(
            (
                durations(run.step_marks) * factors,
                np.asarray(run.decide_s) * factors,
            )
        )
    setups = [
        float(durations(marks)[0] * gauge.factors(marks)[0])
        for marks in setup_marks
    ]
    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "runs": len(runs),
        "run_s": [r.run_s for r in runs],
        "run_s_corrected": [float(steps.sum()) for steps, _ in corrected],
        "setup_s": setups,
        "probe_ms": [
            f(gauge.probes) * 1e3 for f in (min, statistics.median)
        ]
        if gauge.probes
        else [],
        "warmup_s": warmup_s,
        "fingerprint": runs[0].fingerprint,
        "environment": environment_fingerprint(backend),
        # One operation is one simulated interval; a run that raised or
        # failed a check never gets here and reports every one failed.
        "attempted": sum(len(r.decide_s) for r in runs),
        "failed": 0,
        "failed_frac": runs[0].refused / max(runs[0].requested, 1),
    }
    if args.trace:
        check_fingerprints([runs[0], traced], "traced vs untraced run")
        traced_s = float(
            (durations(traced.step_marks) * gauge.factors(traced.step_marks)).sum()
        )
        overhead = traced_s / statistics.median(
            float(steps.sum()) for steps, _ in corrected
        ) - 1.0
        windows = workloads.window_metrics(
            corrected[0][1], runs[0].nnz_samples
        )
        record["metrics"] = traced_metrics(
            tracer, traced, windows, overhead, traced_setup.is_service, workdir
        )
        return record
    per_pair = [timing(*pair, runs[0].events) for pair in pairs(corrected)]
    values = {
        name: statistics.median(pair[name] for pair in per_pair)
        for name in per_pair[0]
    }
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = peak_rss_mb
    values["total_cost_usd"] = runs[0].fingerprint["total_cost_usd"]
    record["metrics"] = declared_metrics("end_to_end", values)
    return record


def traced_metrics(
    tracer, traced, windows, overhead: float, is_service: bool, workdir: str
) -> Dict[str, Dict]:
    """The per-layer split of the traced run.

    ``windows`` holds the per-window metrics of the first untraced run
    and ``overhead`` the traced run's corrected time over the untraced
    median, minus 1.
    """
    import workloads

    values: Dict[str, float] = dict(traced.library)
    values["checkpoint.load_s"] = 0.0
    counters = tracer.counters
    if is_service:
        for key in ("service.admissions", "service.pool_rejections"):
            if counters[key] != values[key]:
                raise FingerprintMismatch(
                    f"{key}: traced count {counters[key]} != "
                    f"derived {values[key]}"
                )
        values["checkpoint.load_s"] = workloads.load_last_checkpoint(workdir)
    self_s, total_s, calls = tracer.self_s, tracer.total_s, tracer.calls
    for layer in LAYERS:
        values[f"{layer}_s"] = self_s[layer]
    values["core.decide_s"] = total_s["core.decide"]
    values["core.decide_other_s"] = self_s["core.decide"]
    values["baselines.decide_other_s"] = self_s["baselines.decide"]
    values["service.loop_self_s"] = self_s["service.loop_self"]
    for key in ("core.candidate_actions", "core.q_scored"):
        values[key] = counters[key]
    values["core.updates"] = calls["core.update"]
    values["core.selects"] = calls["core.select"]
    values["core.retirements"] = calls["core.retire"]
    values["baselines.pabfd_calls"] = calls["baselines.pabfd"]
    values["checkpoint.saves"] = calls["checkpoint.save"]
    values["checkpoint.bytes"] = counters["checkpoint.bytes"]
    slot_steps = counters["service.slot_steps"]
    values["service.pool_occupancy_mean"] = (
        counters["service.occupied_slot_steps"] / slot_steps
        if slot_steps
        else 0.0
    )
    values.update(windows)
    # Spans also enclose the probes that fired inside them, so compare
    # them with the wall time including probes.
    wall_s = traced.step_marks[-1].clock - traced.step_marks[0].clock
    attributed = tracer.attributed_s
    values["trace.other_s"] = wall_s - attributed
    values["trace.attributed_frac"] = attributed / wall_s
    values["trace.overhead_frac"] = overhead
    return declared_metrics("per_layer", values)


#: Layers whose self time is reported as ``<layer>_s``.
LAYERS = (
    "core.plan",
    "core.q_values",
    "core.update",
    "core.select",
    "core.retire",
    "baselines.pabfd",
    "baselines.detect",
    "baselines.vm_select",
    "cloudsim.workload",
    "cloudsim.monitor",
    "cloudsim.migration",
    "cloudsim.share_cpu",
    "cloudsim.sla",
    "cloudsim.metrics",
    "mdp.observe_state",
    "costs.energy",
    "costs.sla",
    "service.demand_trace",
    "checkpoint.save",
)


def declared_metrics(kind: str, values: Dict[str, float]) -> Dict[str, Dict]:
    """The metrics ``BENCHMARK.json`` declares under ``kind``, in order.

    A declared metric the run did not compute is an error, not a zero.
    """
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)[kind]
    return {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }


def print_record(record: Dict[str, Any]) -> None:
    """Human-readable lines; the JSON result line follows them."""
    print(
        f"perfbench {record['workload']} seed={record['seed']} "
        f"trace={record['trace']} runs={record['runs']} "
        f"warmup_s={record['warmup_s']:.3f} "
        f"failed_frac={record['failed_frac']:.6f}"
    )
    for key in ("run_s", "run_s_corrected", "setup_s", "probe_ms"):
        print(key + " " + " ".join(f"{value:.4f}" for value in record[key]))
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    for name, metric in record["metrics"].items():
        print(f"  {name:<32} {metric['value']:>16.6g} {metric['unit']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {SOURCE}", file=sys.stderr)
        return 2
    env = pinned_environment()
    if any(os.environ.get(key) != value for key, value in env.items()):
        # Settings read at interpreter start-up: restart this process
        # (same pid, no child) with them in place.
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path.insert(0, str(SOURCE))
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        print(
            f"perfbench: imported repro from {repro.__file__}, "
            f"not from {SOURCE}",
            file=sys.stderr,
        )
        return 2
    (WORKDIR / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = WORKDIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record = measure(args, str(workdir))
    except Exception:  # noqa: BLE001 -- any failed run or check fails the call
        traceback.print_exc()
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        print(json.dumps(result))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_record(record)
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
