"""One workload process of the srpt benchmark; started by run.py.

Generates the workload's inputs, then either runs whole rounds of tasks
with the clock running only inside tasks (untraced), or runs round 0 three
times, untraced, traced and untraced, to report per-layer metrics (traced).
Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import srpt  # noqa: E402
from spans import Tracer, instrumented, per_layer_metric_units  # noqa: E402
from workloads import Outcome, Workload  # noqa: E402

MAX_TASK_WALL_S = 150.0
MIN_TASKS = 100   # so that at least ten latencies lie beyond the 90th percentile

# The calibration kernel defines the unit of the timing metrics: never
# change it, nor NOMINAL_CALIBRATION_S, or old and new results stop comparing.
NOMINAL_CALIBRATION_S = 0.003
CALIBRATION_NEIGHBOURS = 3   # kernel runs on each side of a task used to scale it
_CAL_RNG = np.random.default_rng(20081008)
_CAL_A4 = _CAL_RNG.standard_normal((4, 4)) + 1j * _CAL_RNG.standard_normal((4, 4))
_CAL_A64 = _CAL_RNG.standard_normal((64, 64)) + 1j * _CAL_RNG.standard_normal((64, 64))
_CAL_H64 = _CAL_A64 + _CAL_A64.conj().T
_CAL_B128 = _CAL_RNG.standard_normal((128, 128)) + 1j * _CAL_RNG.standard_normal((128, 128))


def calibration_s() -> float:
    """Time of a fixed kernel shaped like the package's work: small complex
    numpy operations, Python-level loops, a 64x64 eigvalsh and product, and
    a 128x128 complex product.

    On a shared virtual machine the speed of the CPU can move by 20-50 %
    within seconds for identical work (seen on a 2-vCPU KVM guest).  The
    kernel is timed next to every task, so that each task's latency can be
    expressed at a fixed machine speed.
    """
    start = time.perf_counter()
    acc = 0.0
    for _ in range(40):
        m = _CAL_A4 @ _CAL_A4 + np.kron(_CAL_A4[:2, :2], _CAL_A4[2:, 2:])
        acc += float(np.einsum("ij,ji->", m, _CAL_A4).real)
        t = m.reshape(2, 2, 2, 2).swapaxes(0, 2).reshape(4, 4)
        acc += float(np.max(np.abs(t - t.conj().T)))
        acc += sum(k * 0.5 for k in range(40))
    acc += float(np.linalg.eigvalsh(_CAL_H64)[0])
    acc += float(np.abs(_CAL_H64 @ _CAL_H64).sum())
    acc += float(np.abs(_CAL_B128 @ _CAL_B128).sum())
    return time.perf_counter() - start


def normalized(latencies, calibrations) -> list[float]:
    """Latencies at nominal machine speed.

    calibrations[i] and calibrations[i + 1] are the kernel times just before
    and just after task i; each task is scaled by the median kernel time of
    its CALIBRATION_NEIGHBOURS neighbours on each side.
    """
    k = CALIBRATION_NEIGHBOURS
    return [
        latency * NOMINAL_CALIBRATION_S
        / statistics.median(calibrations[max(0, i + 1 - k): i + 1 + k])
        for i, latency in enumerate(latencies)
    ]


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_task(workload, task, tracer=None):
    """(latency in seconds, Outcome); the clock runs only around execute().

    With a tracer, the spans of the call are folded into its totals; calls
    made while checking the output are dropped.
    """
    start = time.perf_counter()
    try:
        output = workload.execute(task)
        error = None
    except Exception:  # a failed task is counted, and the run goes on
        error = traceback.format_exc()
    end = time.perf_counter()
    if tracer is not None:
        tracer.fold_task(start, end)
    if error is None:
        try:
            outcome = workload.check(task, output)
        except Exception:
            error = traceback.format_exc()
    if tracer is not None:
        tracer.spans.clear()
    if error is not None:
        sys.stderr.write(f"task {task.label} {task.args!r} raised:\n{error}")
        outcome = Outcome(False, "error")
    return end - start, outcome


def run_round(workload, tasks, tracer=None, calibrations=None):
    """Run and check one round: (latencies, outcomes, failed task count).

    With a `calibrations` list, the calibration kernel runs after each task
    and its times are appended.
    """
    latencies, results = [], []
    for task in tasks:
        latency, outcome = run_task(workload, task, tracer)
        if calibrations is not None:
            calibrations.append(calibration_s())
        latencies.append(latency)
        results.append((task, outcome))
    failed = workload.round_failures(results)
    for task in failed:
        sys.stderr.write(f"task {task.label} {task.args!r} missed its reference\n")
    return latencies, [outcome for _, outcome in results], len(failed)


def timed_run(workload, seconds: float) -> dict:
    """Whole rounds until the time inside tasks reaches `seconds` and at
    least MIN_TASKS tasks have run."""
    latencies, failed, rounds = [], 0, 0
    wall_start = time.monotonic()
    gc.collect()
    calibrations = [calibration_s()]
    while ((sum(latencies) < seconds or len(latencies) < MIN_TASKS)
           and time.monotonic() - wall_start < MAX_TASK_WALL_S):
        tasks = workload.rounds[rounds % len(workload.rounds)]
        more, _, missed = run_round(workload, tasks, calibrations=calibrations)
        latencies += more
        failed += missed
        rounds += 1
    return {"latencies": latencies, "calibrations": calibrations, "failed": failed,
            "rounds": rounds, "round_size": len(workload.rounds[0])}


def traced_run(workload) -> dict:
    tasks = workload.rounds[0]
    _, warm, failed_a = run_round(workload, tasks)
    tracer = Tracer()
    with instrumented(tracer, srpt):
        traced, traced_outcomes, failed_b = run_round(workload, tasks, tracer)
    plain, plain_outcomes, failed_c = run_round(workload, tasks)
    traced_s, plain_s = sum(traced), sum(plain)

    mismatched = sum(a.text != b.text or b.text != c.text
                     for a, b, c in zip(warm, traced_outcomes, plain_outcomes))
    if mismatched:
        sys.stderr.write(f"{mismatched} task outputs differ between traced and untraced runs\n")

    values = {}
    for layer, total in tracer.totals.items():
        values[f"{layer}.calls"] = total["calls"]
        values[f"{layer}.self_s"] = total["self_s"]
        values[f"{layer}.errors"] = total["errors"]
    values["hilbert.partial_transpose_matrix.bytes_computed"] = (
        tracer.totals["hilbert.partial_transpose_matrix"]["bytes"])
    values["hilbert.json.bytes"] = tracer.totals["hilbert.json"]["bytes"]
    scans = tracer.totals["search.scan"]["calls"]
    prescan = scans * getattr(srpt.search, "PRESCAN_POINTS", 0)
    values["search.evals_per_scan"] = tracer.scan_evaluations / scans if scans else 0.0
    values["search.prescan_share"] = (prescan / tracer.scan_evaluations
                                      if tracer.scan_evaluations else 0.0)
    values["search.nm_evals_per_restart"] = (tracer.nm_evaluations / tracer.nm_restarts
                                             if tracer.nm_restarts else 0.0)
    values["search.threshold_err_over_tol.max"] = max(o.err_over_tol for o in plain_outcomes)
    values["trace.overhead_ratio"] = traced_s / plain_s
    values["trace.unspanned_s"] = tracer.unspanned_s

    units = per_layer_metric_units()
    attempted = 3 * len(workload.rounds[0])
    failed = failed_a + failed_b + failed_c + mismatched
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "detail": {"round_size": len(workload.rounds[0]), "untraced_s": plain_s,
                   "traced_s": traced_s, "outputs_mismatched": mismatched},
    }


def latency_metrics(latencies) -> dict:
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return {
        "tasks_per_s": len(latencies) / sum(latencies),
        "task_s.p50": statistics.median(latencies),
        "task_s.p90": p90,
        "beyond_p90": sum(x > p90 for x in latencies),
    }


def summarize(run: dict) -> dict:
    latencies = run["latencies"]
    scaled = latency_metrics(normalized(latencies, run["calibrations"]))
    wall = latency_metrics(latencies)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = {"tasks_per_s": "1/s", "task_s.p50": "s", "task_s.p90": "s"}
    metrics = {name: {"value": scaled[name], "unit": unit} for name, unit in units.items()}
    metrics["peak_rss_mb"] = {"value": rss_mib, "unit": "MiB"}
    return {
        "correct": run["failed"] == 0,
        "attempted": len(latencies),
        "failed": run["failed"],
        "metrics": metrics,
        "detail": {"timed_wall_s": sum(latencies), "rounds": run["rounds"],
                   "round_size": run["round_size"], "beyond_p90": scaled["beyond_p90"],
                   "wall": {name: wall[name] for name in units}},
    }


def setup_calibration_s() -> float:
    """Median calibration time right after set-up, to scale the set-up time."""
    return statistics.median(calibration_s() for _ in range(25))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() of the parent just before it started this process")
    args = parser.parse_args(argv)
    spawned_at = time.monotonic() if args.spawned_at is None else args.spawned_at

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        workload = Workload(args.workload, args.seed, workdir)
        setup_wall_s = time.monotonic() - spawned_at
        if args.trace:
            result = traced_run(workload)
            result["env"] = environment()
        else:
            setup = {"wall_s": setup_wall_s,
                     "s": setup_wall_s * NOMINAL_CALIBRATION_S / setup_calibration_s()}
            if args.setup_only:
                result = {"setup": setup}
            else:
                run = timed_run(workload, args.seconds)
                result = summarize(run)
                result["setup"] = setup
                result["env"] = {**environment(), "calibration_s_quartiles":
                                 statistics.quantiles(run["calibrations"], n=4)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
