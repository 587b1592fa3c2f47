#!/usr/bin/env python3
"""Benchmark of the srpt package: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload mixed-scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload in turn

Run from the root of a checkout; the package is imported from its `src/`.
Each workload runs in its own process (worker.py).  With --trace 0 the last
line of output is a JSON object with the end-to-end metrics; with --trace 1
it carries the per-layer metrics of a separate traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mixed-scan", "pure-eval", "witness-search", "json-check")
SETUPS = 7            # set-ups measured per run; setup_s is their median
DEADLINE_S = 170.0    # the whole run, all child processes included
BLAS_THREADS = 1      # pinned on every commit, so runs compare like with like


class BenchmarkError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Start worker.py, wait for it and return the JSON of its last output line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a workload process")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at", repr(spawned_at)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"workload process exceeded the {DEADLINE_S:.0f} s deadline") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    if trace:
        result = run_worker([*common, "--trace", "1"], deadline)
        result["env"] = {**result["env"], **host_environment()}
        return result
    setups = [run_worker([*common, "--setup-only"], deadline)["setup"]
              for _ in range(SETUPS - 1)]
    result = run_worker([*common, "--seconds", str(seconds), "--trace", "0"], deadline)
    setups.append(result.pop("setup"))
    result["metrics"]["setup_s"] = {"value": statistics.median(s["s"] for s in setups),
                                    "unit": "s"}
    result["detail"]["setups"] = len(setups)
    result["detail"]["wall"]["setup_s"] = statistics.median(s["wall_s"] for s in setups)
    result["env"] = {**result["env"], **host_environment()}
    return result


def host_environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def print_summary(workload: str, seed: int, result: dict) -> None:
    detail = result["detail"]
    out = sys.stdout
    attempted, failed = result["attempted"], result["failed"]
    out.write(f"{workload} seed={seed}: {attempted} tasks attempted, {failed} failed\n")
    if "wall" in detail:
        n = attempted
        out.write(f"  ({detail['rounds']} rounds of {detail['round_size']} tasks, "
                  f"{detail['timed_wall_s']:.3f} s of wall time inside tasks; times at nominal "
                  "machine speed, wall-clock values in brackets)\n")
        samples = {
            "tasks_per_s": f"{n} tasks",
            "task_s.p50": f"{n} samples",
            "task_s.p90": f"{n} samples, {detail['beyond_p90']} beyond",
            "setup_s": f"median of {detail['setups']} set-ups",
            "peak_rss_mb": "1 process",
        }
        for name, metric in result["metrics"].items():
            wall = f"[{detail['wall'][name]:.6g}]" if name in detail["wall"] else ""
            out.write(f"  {name:<14} {metric['value']:<12.6g} {wall:<14} {metric['unit']:<4} "
                      f"({samples[name]})\n")
        out.write(f"  {'failed_ratio':<14} {failed / attempted:<12.6g} {'':<14} {'1':<4} "
                  f"({failed} of {attempted} tasks)\n")
    else:
        for name, metric in result["metrics"].items():
            out.write(f"  {name:<52} {metric['value']:<14.6g} {metric['unit']}\n")
    out.write("env " + json.dumps(result["env"], sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "srpt" / "__init__.py").is_file():
        sys.stderr.write(f"error: no srpt package under {ROOT / 'src'}; "
                         "run from the root of an srpt checkout\n")
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            print_summary(name, args.seed, results[name])
    except BenchmarkError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3

    def contract(result):
        return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}

    final = (contract(results[names[0]]) if len(names) == 1
             else {name: contract(result) for name, result in results.items()})
    sys.stdout.write(json.dumps(final) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
