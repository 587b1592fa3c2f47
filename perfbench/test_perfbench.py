"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import srpt  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


@pytest.fixture
def workdir():
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=scratch)
    yield path
    shutil.rmtree(path)
    try:
        scratch.rmdir()
    except OSError:
        pass


def _snapshot(workload: Workload) -> tuple:
    """Tasks, in-memory objects and files of a workload, with its directory elided."""
    def text(value):
        return repr(value).replace(workload.workdir, "<dir>")

    tasks = [[text(task) for task in tasks] for tasks in workload.rounds]
    objects = {text(key): np.asarray(obj.matrix).tobytes() for key, obj in workload.objects.items()}
    files = {p.name: p.read_bytes() for p in sorted(Path(workload.workdir).iterdir())}
    return tasks, objects, files


@pytest.mark.parametrize("name", WORKLOADS)
def test_generation_is_deterministic_per_seed(name, workdir):
    first = Path(workdir) / "first"
    second = Path(workdir) / "second"
    other = Path(workdir) / "other"
    for path in (first, second, other):
        path.mkdir()
    same = _snapshot(Workload(name, 7, str(first)))
    assert same == _snapshot(Workload(name, 7, str(second)))
    assert same != _snapshot(Workload(name, 8, str(other)))


@pytest.mark.parametrize("name", WORKLOADS)
def test_rounds_keep_the_same_task_sizes_across_seeds(name, workdir):
    labels = [sorted(task.label for task in Workload(name, seed, workdir).rounds[0])
              for seed in (1, 2)]
    assert labels[0] == labels[1]
    assert len(labels[0]) % 10 == 5


def _span(start, end, parent):
    return ["layer", start, end, parent, False, 0, None, None]


def test_self_times_on_synthetic_tree():
    tree = [
        _span(0.0, 10.0, -1),   # 0: root
        _span(1.0, 4.0, 0),     # 1: child of root, overlaps 2
        _span(3.0, 6.0, 0),     # 2: child of root
        _span(8.0, 12.0, 0),    # 3: child running past the root's end
        _span(2.0, 3.0, 1),     # 4: grandchild
    ]
    # root: 10 - |[1,6] u [8,10]| = 10 - 7
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])
    assert spans.covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert spans.covered([], 0.0, 1.0) == 0.0


def test_tracer_self_times_add_up_to_the_traced_time():
    tracer = spans.Tracer()

    def leaf(n):
        return sum(range(n))

    traced_leaf = tracer.wrap("criteria.srpt_evaluate", leaf)

    def outer(n):
        return [traced_leaf(n) for _ in range(3)]

    traced_outer = tracer.wrap("search.scan", outer)
    traced_outer(20000)
    root = tracer.spans[0]
    elapsed = root[spans.END] - root[spans.START]
    tracer.fold_task(root[spans.START], root[spans.END])
    totals = tracer.totals
    assert totals["search.scan"]["calls"] == 1
    assert totals["criteria.srpt_evaluate"]["calls"] == 3
    assert (totals["search.scan"]["self_s"] + totals["criteria.srpt_evaluate"]["self_s"]
            == pytest.approx(elapsed))
    assert tracer.unspanned_s == pytest.approx(0.0, abs=1e-12)
    assert tracer.spans == []


def test_latencies_are_scaled_by_neighbouring_calibrations():
    nominal = worker.NOMINAL_CALIBRATION_S
    # the machine runs at half speed for the last two tasks
    calibrations = [nominal] * 5 + [2 * nominal] * 20
    latencies = [1.0] * 24
    scaled = worker.normalized(latencies, calibrations)
    assert scaled[0] == pytest.approx(1.0)
    assert scaled[-1] == pytest.approx(0.5)
    assert worker.normalized([1.0], [nominal, nominal]) == [pytest.approx(1.0)]


def test_instrumentation_is_removed_on_exit():
    original = srpt.criteria.srpt_evaluate
    post_init = srpt.hilbert.DensityMatrix.__post_init__
    with spans.instrumented(spans.Tracer(), srpt):
        assert srpt.search.srpt_evaluate is not original
        assert srpt.search.srpt_evaluate is srpt.criteria.srpt_evaluate
    assert srpt.criteria.srpt_evaluate is original
    assert srpt.search.srpt_evaluate is original
    assert srpt.srpt_evaluate is original
    assert srpt.hilbert.DensityMatrix.__post_init__ is post_init


# A cheap task of every kind, by label prefix.
SMALL = {
    "mixed-scan": ("ghzN-scan:n=5", "werner_phi_threshold"),
    "pure-eval": ("cat:truncation=16", "osc3d:n=2", "osc2d:n=2", "multiphoton",
                  "prop1-demo", "duan-cat"),
    "witness-search": ("prop2:separable", "prop1:d=4"),
    "json-check": ("check:werner n=3", "check:separable", "check:pure",
                   "witness:werner-multipartite n=3", "witness:prop1"),
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_task_outputs_identical_with_tracing_on_and_off(name, workdir):
    workload = Workload(name, 3, workdir)
    chosen = {}
    for task in workload.rounds[0]:
        for prefix in SMALL[name]:
            if task.label.startswith(prefix):
                chosen.setdefault(prefix, task)
    assert set(chosen) == set(SMALL[name])

    def outputs():
        results = [workload.check(task, workload.execute(task)) for task in chosen.values()]
        assert all(outcome.ok for outcome in results)
        return [outcome.text for outcome in results]

    plain = outputs()
    tracer = spans.Tracer()
    with spans.instrumented(tracer, srpt):
        traced = outputs()
    assert traced == plain
    assert tracer.spans


def test_traced_run_reports_every_per_layer_metric(workdir):
    result = worker.traced_run(Workload("mixed-scan", 1, workdir))
    assert result["correct"] and result["failed"] == 0
    assert result["detail"]["outputs_mismatched"] == 0
    assert set(result["metrics"]) == set(spans.per_layer_metric_units())
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["search.scan.calls"] == 2 * 3 + 12
    assert values["search.evals_per_scan"] > 21
    assert values["criteria.srpt_evaluate.calls"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.per_layer_metric_units()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == {"tasks_per_s": "1/s", "task_s.p50": "s", "task_s.p90": "s",
                          "setup_s": "s", "peak_rss_mb": "MiB"}
