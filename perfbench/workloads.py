"""Seeded inputs, task execution and reference checks for the srpt benchmark.

Each workload is a fixed multiset of tasks, called a round.  The seed picks
every parameter, state and file inside a round and the order of its tasks,
but not the kinds and sizes of the tasks, so that different seeds measure
the same amount of work.  Rounds hold 15 or 25 tasks: with a whole number of
rounds the median and the 90th percentile then fall in the middle of one
task size rather than on the step between two.

Tasks call the package only through module attributes (`cli.main`,
`search.maximize_violation`, ...), so the traced run's re-bound wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from srpt import cli, criteria, hilbert, search, states, witnesses

WORKLOADS = ("mixed-scan", "pure-eval", "witness-search", "json-check")

# Distinct rounds generated per seed; the timed loop cycles through them.
# json-check keeps fewer because every round writes its own state files.
ROUNDS = {"mixed-scan": 16, "pure-eval": 16, "witness-search": 16, "json-check": 4}

# Single-restart prop2 searches per state.  One Nelder-Mead restart misses
# the violation of an entangled state in 2-3 % of restarts, so an entangled
# state counts as detected when any of its restarts violates, as it would
# inside one maximize_violation call with this many restarts.
PROP2_RESTARTS = 4


@dataclass(frozen=True)
class Task:
    """One call into the package.

    action   "cli" (args is the argv of `srpt`), "werner_phi" (args is
             (a, b, phi)) or "maximize" (args is (state key, family,
             restarts, seed))
    check    name of the reference the output is compared with
    key      what the reference needs: an expected verdict, a file set or
             a witness descriptor
    """

    label: str
    action: str
    args: tuple
    check: str
    key: object = None


@dataclass
class Outcome:
    """Checked result of one task; `detected` is set for witness searches."""

    ok: bool
    text: str
    err_over_tol: float = 0.0
    detected: bool | None = None


class Workload:
    """Every input of one workload for one seed, generated before timing."""

    def __init__(self, name: str, seed: int, workdir: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.workdir = workdir
        self.objects: dict = {}
        self._references: dict = {}
        rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        make_round = {
            "mixed-scan": self._mixed_scan,
            "pure-eval": self._pure_eval,
            "witness-search": self._witness_search,
            "json-check": self._json_check,
        }[name]
        self.rounds: list[list[Task]] = []
        for r in range(ROUNDS[name]):
            tasks = make_round(rng, r)
            self.rounds.append([tasks[i] for i in rng.permutation(len(tasks))])

    # --- generation ---------------------------------------------------------

    def _mixed_scan(self, rng, r):
        tasks = [Task(f"ghzN-scan:n={n}", "cli", ("run", "ghzN-scan", "--param", f"n={n}"),
                      "ghz", n) for n in (5, 6, 7)]
        for _ in range(12):
            # real amplitudes: see README, the closed formula's phase convention
            while True:
                theta, phi = (float(v) for v in rng.uniform(0.0, 2.0 * math.pi, 2))
                a, b = math.cos(theta), math.sin(theta)
                if abs(a * b * math.cos(phi)) >= 0.15:
                    break
            tasks.append(Task("werner_phi_threshold", "werner_phi", (a, b, phi), "werner"))
        return tasks

    def _pure_eval(self, rng, r):
        def amp():
            return repr(float(rng.uniform(0.5, 1.2)))

        tasks = []
        for t in (16, 18, 20, 22, 24):
            tasks.append(Task(f"cat:truncation={t}", "cli",
                              ("run", "cat", "--param", f"truncation={t}",
                               "--param", f"alpha={amp()}", "--param", f"beta={amp()}"), "case"))
        for n in range(2, 6):
            tasks.append(Task(f"osc3d:n={n}", "cli", ("run", "osc3d", "--param", f"n={n}"), "case"))
        for n in range(2, 13):
            tasks.append(Task(f"osc2d:n={n}", "cli", ("run", "osc2d", "--param", f"n={n}"), "case"))
        for _ in range(2):
            coeffs = [repr(float(v)) for v in rng.uniform(-1.0, 1.0, 3)]
            tasks.append(Task("multiphoton", "cli",
                              ("run", "multiphoton", "--param", f"alpha={coeffs[0]}",
                               "--param", f"beta={coeffs[1]}", "--param", f"gamma={coeffs[2]}"),
                              "case"))
            c0, c1 = (repr(float(v)) for v in rng.uniform(0.1, 1.0, 2))
            tasks.append(Task("prop1-demo", "cli",
                              ("run", "prop1-demo", "--param", f"c0={c0}", "--param", f"c1={c1}"),
                              "case"))
        tasks.append(Task("duan-cat:truncation=20", "cli",
                          ("run", "duan-cat", "--param", "truncation=20", "--param", "points=3",
                           "--param", f"alpha={amp()}", "--param", f"beta={amp()}"), "case"))
        return tasks

    def _witness_search(self, rng, r):
        def seed():
            return int(rng.integers(2**31))

        candidates = []
        for _ in range(2):
            rho = hilbert.density_from_pure(states.random_pure((2, 2), seed()))
            candidates.append(("pure", rho, True))
        for _ in range(2):
            psi = states.schmidt_state((1.0, float(rng.uniform(0.6, 1.0))), (2, 2))
            candidates.append(("werner", states.werner(psi, float(rng.uniform(0.8, 1.0))), True))
        candidates.append(("separable", states.random_separable((2, 2), int(rng.integers(2, 5)),
                                                                 seed()), False))
        tasks = []
        for i, (kind, rho, entangled) in enumerate(candidates):
            key = f"r{r}-prop2-{i}"
            self.objects[key] = rho
            tasks.extend(Task(f"prop2:{kind}", "maximize", (key, "prop2", 1, seed()),
                              "violation", entangled) for _ in range(PROP2_RESTARTS))
        for d in range(4, 9):
            key = f"r{r}-prop1-{d}"
            self.objects[key] = hilbert.density_from_pure(states.random_pure((d, d), seed()))
            tasks.append(Task(f"prop1:d={d}", "maximize", (key, "prop1", 0, None),
                              "violation", True))
        return tasks

    def _json_check(self, rng, r):
        tasks = []
        for n in range(3, 8):
            pair = self._witness_files(f"werner-multipartite-{n}",
                                       witnesses.werner_multipartite_pair(n))
            rho = states.werner(states.ghz(n), float(rng.uniform(0.05, 0.95)))
            state = self._write(f"r{r}-werner-{n}.json", _matrix_doc(rho.space.dims, rho.matrix))
            self.objects[state] = rho
            tasks.append(Task(f"check:werner n={n}", "cli", ("check", state, *pair), "check",
                              (state, *pair)))
        prop1 = self._witness_files(
            "prop1-3x3", witnesses.prop1_pair(hilbert.HilbertSpace((3, 3)), 0, 1))
        for i in range(2):
            rho = states.random_separable((3, 3), 3, int(rng.integers(2**31)))
            state = self._write(f"r{r}-separable-{i}.json", _matrix_doc(rho.space.dims, rho.matrix))
            self.objects[state] = rho
            tasks.append(Task("check:separable", "cli", ("check", state, *prop1), "check",
                              (state, *prop1)))
            psi = states.random_pure((3, 3), int(rng.integers(2**31)))
            state = self._write(f"r{r}-pure-{i}.json", {
                "dims": list(psi.space.dims), "amplitudes": _pairs(psi.amplitudes)})
            self.objects[state] = hilbert.density_from_pure(psi)
            tasks.append(Task("check:pure", "cli", ("check", state, *prop1), "check",
                              (state, *prop1)))
        for n in range(3, 8):
            tasks.append(Task(f"witness:werner-multipartite n={n}", "cli",
                              ("witness", f"werner-multipartite:{n}"), "witness", ("werner", n)))
        i0, i1 = sorted(int(v) for v in rng.choice(4, 2, replace=False))
        tasks.append(Task("witness:prop1", "cli", ("witness", f"prop1:{i0},{i1}", "--dims", "4,4"),
                          "witness", ("prop1", 4, i0, i1)))
        return tasks

    def _write(self, filename: str, doc: dict) -> str:
        path = os.path.join(self.workdir, filename)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def _witness_files(self, stem: str, pair) -> tuple[str, str]:
        paths = []
        for label, obs in zip("AB", pair):
            path = os.path.join(self.workdir, f"{stem}-{label}.json")
            if path not in self.objects:
                self._write(os.path.basename(path), _matrix_doc(obs.space.dims, obs.matrix))
                self.objects[path] = obs
            paths.append(path)
        return tuple(paths)

    # --- execution and checking --------------------------------------------

    def execute(self, task: Task):
        """Run one task; this call is what the benchmark times."""
        if task.action == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(task.args))
            return code, out.getvalue(), err.getvalue()
        if task.action == "werner_phi":
            return search.werner_phi_threshold(*task.args)
        key, family, restarts, seed = task.args
        return search.maximize_violation(self.objects[key], family, restarts=restarts, seed=seed)

    def check(self, task: Task, output) -> Outcome:
        """Compare a task's output with its reference, outside the timed region."""
        return getattr(self, f"_check_{task.check}")(task, output)

    def _check_case(self, task, output):
        code, out, err = output
        return Outcome(code == 0 and json.loads(out)["passed"] is True, _cli_text(output))

    def _check_ghz(self, task, output):
        code, out, err = output
        if code != 0:
            return Outcome(False, _cli_text(output))
        report = json.loads(out)
        n, tol = task.key, report["parameters"]["tol"]
        errors = [
            abs(report["results"]["srpt_scan"]["x_critical"] - 1.0 / (1.0 + 2.0 ** (n - 2))),
            abs(report["results"]["ppt_scan"]["x_critical"] - 1.0 / (1.0 + 2.0 ** (n - 1))),
        ]
        return Outcome(max(errors) <= 1e-6, _cli_text(output), max(errors) / tol)

    def _check_werner(self, task, audit):
        text = json.dumps(audit.to_dict(), sort_keys=True)
        err = abs(audit.result.x_critical - audit.squared_formula) / audit.result.tolerance
        return Outcome(bool(audit.squared_agrees), text, err)

    def _check_violation(self, task, result):
        # soundness per task; detection per state, in round_failures
        report = result.best_report
        text = json.dumps({"params": np.asarray(result.best_params).tolist(),
                           "report": report.to_dict(), "restarts": result.restarts_used},
                          sort_keys=True)
        return Outcome(task.key or not report.violated, text, detected=bool(report.violated))

    def _check_check(self, task, output):
        code, out, err = output
        if code != 0:
            return Outcome(False, _cli_text(output))
        got = json.loads(out)["report"]
        if task.key not in self._references:
            rho, a, b = (self.objects[path] for path in task.key)
            self._references[task.key] = criteria.srpt_evaluate(rho, a, b, 0)
        want = self._references[task.key]
        scale = max(1.0, abs(want.lhs), abs(want.rhs))
        ok = (got["violated"] == want.violated
              and abs(got["slack"] - want.slack) <= 1e-9 * scale)
        return Outcome(ok, _cli_text(output))

    def _check_witness(self, task, output):
        code, out, err = output
        if code != 0:
            return Outcome(False, _cli_text(output))
        if task.key not in self._references:
            if task.key[0] == "werner":
                pair = witnesses.werner_multipartite_pair(task.key[1])
            else:
                _, d, i0, i1 = task.key
                pair = witnesses.prop1_pair(hilbert.HilbertSpace((d, d)), i0, i1)
            self._references[task.key] = [obs.matrix for obs in pair]
        doc = json.loads(out)
        got = [_complex_matrix(doc[label]["matrix"]) for label in "AB"]
        ok = all(g.shape == w.shape and float(np.max(np.abs(g - w))) <= 1e-12
                 for g, w in zip(got, self._references[task.key]))
        return Outcome(ok, _cli_text(output))

    def round_failures(self, results) -> list:
        """Tasks of one round that failed: those whose outcome is not ok, and
        every search of an entangled state that none of its searches detected."""
        detected = {}
        for task, outcome in results:
            if task.check == "violation" and task.key:
                key = task.args[0]
                detected[key] = detected.get(key, False) or bool(outcome.detected)
        return [task for task, outcome in results
                if not outcome.ok or detected.get(task.args[0]) is False]


def _cli_text(output) -> str:
    code, out, err = output
    return f"exit {code}\n{out}\n{err}"


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


def _matrix_doc(dims, matrix) -> dict:
    """The package's JSON operator format, with shortest round-trip floats."""
    return {"dims": list(dims), "matrix": [_pairs(row) for row in matrix]}


def _complex_matrix(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]
