"""Reproduction harness: every headline number is a named, scriptable case.

Commands:
  srpt run <case> [--param k=v]... [--out path] [--format json|csv]
  srpt check <state.json> <A.json> <B.json> [--subsystem k] [--unchecked]
  srpt witness <descriptor> [--dims d1,d2,...] [--out path]
  srpt list-cases

Exit codes: 0 pass, 1 usage/input error, 2 expected-value mismatch,
3 inadmissible observable in `check`.

Each case's expected values carry a provenance tag so that a mismatch
prints what was computed, what was expected, and where the expectation
comes from.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .criteria import VIOLATION_TOL, CompiledWitness, duan_criterion, srpt_evaluate
from .hilbert import (
    HilbertSpace,
    Observable,
    PAULI_X,
    PAULI_Y,
    density_from_json,
    dumps_canonical,
    format_float,
    observable_from_json,
    observable_to_json,
)
from .search import (
    NoCrossingError,
    ppt_threshold_scan,
    threshold_scan,
    werner_phi_threshold,
)
from .states import (
    cat_state,
    ghz,
    multiphoton_state,
    oscillator2d_eigenstates,
    oscillator3d_eigenstates,
    schmidt_state,
)
from .witnesses import (
    Prop2Params,
    cat_quadratures,
    multiphoton_pair,
    oscillator2d_pair,
    oscillator3d_pair,
    prop1_pair,
    prop2_observable,
    prop3_triple,
    werner_bipartite_pair,
    werner_multipartite_pair,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _check(name, value, expected, provenance, tol=None) -> dict:
    """One check record: a flag compared exactly when tol is None, else a number within tol."""
    if tol is None:
        value, expected = bool(value), bool(expected)
        ok = value == expected
    else:
        value, expected = float(value), float(expected)
        ok = abs(value - expected) <= tol
    return {
        "name": name,
        "value": value,
        "expected": expected,
        "tol": 0.0 if tol is None else tol,
        "provenance": provenance,
        "ok": ok,
    }


def _threshold_case(psi, a, b, tol, srpt_expected, srpt_note, ppt_expected, ppt_note) -> dict:
    """SRPT and PPT bisection scans of the Werner family of psi against their
    theoretical thresholds."""
    srpt_res = threshold_scan(psi, a, b, tol=tol)
    ppt_res = ppt_threshold_scan(psi, tol=tol)
    checks = [
        _check("srpt_threshold", srpt_res.x_critical, srpt_expected, srpt_note, tol=1e-6),
        _check("ppt_threshold", ppt_res.x_critical, ppt_expected, ppt_note, tol=1e-6),
    ]
    return {
        "results": {"srpt_scan": srpt_res.to_dict(), "ppt_scan": ppt_res.to_dict()},
        "checks": checks,
    }


def _run_werner_bell(p: dict) -> dict:
    bell = schmidt_state((1.0, 1.0), (2, 2))
    srpt_expected = 2.0 / (1.0 + math.sqrt(1.0 + 8.0 * math.cos(p["phi"]) ** 2))
    srpt_note = ("theory: detected when x > 1/2" if srpt_expected == 0.5
                 else "theory: detected when x > 2/(1+sqrt(1+8cos^2 phi))")
    return _threshold_case(bell, *werner_bipartite_pair(p["phi"]), p["tol"],
                           srpt_expected, srpt_note,
                           1.0 / 3.0, "theory: entangled iff x > 1/3")


def _run_ghzn_scan(p: dict) -> dict:
    n = p["n"]
    return _threshold_case(ghz(n), *werner_multipartite_pair(n), p["tol"],
                           1.0 / (1.0 + 2.0 ** (n - 2)), "theory: violated if x > 1/(1+2^(N-2))",
                           1.0 / (1.0 + 2.0 ** (n - 1)), "theory: PPT limit x > 1/(1+2^(N-1))")


def _run_cat(p: dict) -> dict:
    alpha, beta, truncation = p["alpha"], p["beta"], p["truncation"]
    a1, a2, b1, b2 = -beta, beta, alpha, -alpha
    psi = cat_state(alpha, beta, truncation)
    a, b = cat_quadratures(a1, a2, b1, b2, truncation)
    report = srpt_evaluate(psi, a, b)

    norm_sq = 2.0 + 2.0 * math.exp(-2.0 * alpha**2 - 2.0 * beta**2)
    var_a = a1**2 + b1**2 + 8.0 * (a1 * alpha + b1 * beta) ** 2 / norm_sq
    var_b = a2**2 + b2**2 - 4.0 * (a2 * alpha - b2 * beta) ** 2 / (
        1.0 + math.exp(2.0 * alpha**2 + 2.0 * beta**2)
    )
    comm = (a1 * a2 + b1 * b2) ** 2
    checks = [
        _check("lhs", report.lhs, var_a * var_b,
               "theory: closed-form transposed variances", tol=1e-6),
        _check("comm_term", report.comm_term, comm,
               "theory: comm term (a1 a2 + b1 b2)^2", tol=1e-6),
        _check("anticomm_term", report.anticomm_term, 0.0,
               "theory: anticommutator term is zero", tol=1e-6),
        _check("violated", report.violated, True, "theory: violation for nonzero amplitudes"),
    ]
    return {"results": {"report": report.to_dict()}, "checks": checks}


def _run_duan_cat(p: dict) -> dict:
    psi = cat_state(p["alpha"], p["beta"], p["truncation"])
    grid = np.linspace(0.25, 4.0, p["points"])
    records = [r.to_dict() for r in duan_criterion(psi, grid)]
    any_violation = any(r["violated"] for r in records)
    checks = [
        _check("any_violation", any_violation, False,
               "theory: the cat state never violates the Duan criterion"),
    ]
    return {"results": {"scan": records}, "checks": checks}


def _run_osc2d(p: dict) -> dict:
    n = p["n"]
    witness = CompiledWitness(*oscillator2d_pair(n), 0)
    witness.check_admissibility()
    records = []
    checks = []
    for state in oscillator2d_eigenstates(n):
        report = witness.report(state.vector)
        expected = abs(state.coeffs[0]) ** 2 * abs(state.coeffs[n]) ** 2
        m = state.quantum_numbers[0]
        records.append({"M": m, **report.to_dict()})
        checks.append(_check(f"rhs[M={m}]", report.rhs, expected,
                             "theory: |c_0 c_n|^2", tol=1e-10))
        checks.append(_check(f"violated[M={m}]", report.violated, True,
                             "theory: entangled for n > 0"))
    return {"results": {"eigenstates": records}, "checks": checks}


def _run_osc3d(p: dict) -> dict:
    n = p["n"]
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    eigenstates = oscillator3d_eigenstates(n)
    # the designated pair depends on m only through its flip span: |m|, or 2
    # for m = 0 (at n = 1 the m = 0 state is separable and takes span 1)
    spans = [abs(s.quantum_numbers[1]) or min(n, 2) for s in eigenstates]
    witnesses = {span: CompiledWitness(*oscillator3d_pair(n, span), 0)
                 for span in sorted(set(spans))}
    for witness in witnesses.values():
        witness.check_admissibility()
    records = []
    checks = []
    for state, step in zip(eigenstates, spans):
        report = witnesses[step].report(state.vector)
        l, m = state.quantum_numbers
        entangled = n > 1 or (n == 1 and m != 0)
        records.append({"l": l, "m": m, **report.to_dict()})
        checks.append(_check(f"violated[l={l},m={m}]", report.violated, entangled,
                             "theory: entangled for (0,1,+-1) or n > 1"))
        if entangled:
            expected = abs(state.coeffs[step, 0]) ** 2 * abs(state.coeffs[step, step]) ** 2
            checks.append(_check(f"rhs[l={l},m={m}]", report.rhs, expected,
                                 "theory: |c_m0 c_mm|^2", tol=1e-10))
    return {"results": {"eigenstates": records}, "checks": checks}


def _run_multiphoton(p: dict) -> dict:
    alpha, beta, gamma = p["alpha"], p["beta"], p["gamma"]
    psi = multiphoton_state(alpha, beta, gamma)
    witness = CompiledWitness(*multiphoton_pair(), 0)
    witness.check_admissibility()
    report = witness.report(psi)

    norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2 + abs(gamma) ** 2)
    re_ag = ((np.conj(alpha) * gamma) / norm**2).real

    anti = witness.anticommutator  # {A,B}^G
    plus = np.zeros(9, dtype=complex)
    minus = np.zeros(9, dtype=complex)
    plus[2] = plus[6] = INV_SQRT2
    minus[2], minus[6] = INV_SQRT2, -INV_SQRT2
    target = np.outer(plus, plus.conj()) - np.outer(minus, minus.conj())
    projector_dev = float(np.max(np.abs(anti - target)))

    checks = [
        _check("lhs", report.lhs, 0.0, "theory: projector variance vanishes", tol=1e-12),
        _check("anticomm_term", report.anticomm_term, re_ag**2,
               "theory: inequality 0 >= |Re(alpha* gamma)|", tol=1e-10),
        _check("projector_difference_dev", projector_dev, 0.0,
               "theory: {A,B}^G = |psi+><psi+| - |psi-><psi-|", tol=1e-12),
    ]
    return {"results": {"report": report.to_dict()}, "checks": checks}


def _run_prop1_demo(p: dict) -> dict:
    c0, c1 = p["c0"], p["c1"]
    psi = schmidt_state((c0, c1), (2, 2))
    a, b = prop1_pair(HilbertSpace((2, 2)), 0, 1)
    report = srpt_evaluate(psi, a, b)
    norm_sq = c0 * c0 + c1 * c1
    expected_rhs = (c0 * c1 / norm_sq) ** 2
    checks = [
        _check("lhs", report.lhs, 0.0, "theory: transposed projector variance is 0", tol=1e-12),
        _check("rhs", report.rhs, expected_rhs, "theory: rhs = |c0|^2 |c1|^2", tol=1e-10),
        _check("violated", report.violated, expected_rhs > VIOLATION_TOL,
               "theory: violated for nonzero c0, c1"),
    ]
    return {"results": {"report": report.to_dict()}, "checks": checks}


def _run_bad_observable_demo(p: dict) -> dict:
    space = HilbertSpace((2, 2))
    zero = schmidt_state((1.0, 0.0), (2, 2))
    a = Observable(space, np.kron(PAULI_X, PAULI_X))
    b = Observable(space, np.kron(PAULI_X, PAULI_Y) + np.kron(PAULI_Y, PAULI_X))
    witness = CompiledWitness(a, b, 0)
    adm_a, adm_b = witness.admissibility()
    report = witness.report(zero)
    checks = [
        _check("violated_despite_separable", report.violated, True,
               "theory: the inequality is violated with unsuitable observables"),
        _check("b_inadmissible", adm_b.residual > 0.1, True, "theory: (B^G)^2 != (B^2)^G"),
        _check("a_admissible", adm_a.admissible, True,
               "theory: A obeys the admissibility condition"),
    ]
    return {
        "results": {
            "report": report.to_dict(),
            "admissibility_a": adm_a.to_dict(),
            "admissibility_b": adm_b.to_dict(),
            "note": "intentional misuse: evaluated with check_admissibility off",
        },
        "checks": checks,
    }


def _run_werner_audit(p: dict) -> dict:
    a, b, phi = p["a"], p["b"], p["phi"]
    audit = werner_phi_threshold(a, b, phi, tol=p["tol"])
    r = math.cos(phi) * a * b / (a * a + b * b)  # Re(e^{-i phi} a* b), normalised
    expected = 2.0 / (1.0 + math.sqrt(1.0 + 32.0 * r * r))
    bell = expected == 0.5
    checks = [
        _check("x_critical", audit.result.x_critical, expected,
               "theory: Bell-state threshold x > 1/2" if bell
               else "theory: detected when x > 2/(1+sqrt(1+32r^2))", tol=1e-6),
        _check("linear_formula_agrees", audit.linear_agrees, False,
               "derived: the linear radicand 1+32r gives ~0.390, not 1/2" if bell
               else "derived: the linear radicand 1+32r does not reproduce the scan"),
        _check("squared_formula_agrees", audit.squared_agrees, True,
               "derived: the squared radicand 1+32r^2 reproduces the scan"),
    ]
    return {"results": {"audit": audit.to_dict()}, "checks": checks}


@dataclass(frozen=True)
class ReproCase:
    id: str
    description: str
    defaults: dict
    runner: Callable[[dict], dict]


CASES: dict[str, ReproCase] = {
    c.id: c
    for c in (
        ReproCase("werner-bell",
                  "Bipartite Werner thresholds for the Bell state (SRPT 1/2, PPT 1/3)",
                  {"phi": 0.0, "tol": 1e-6}, _run_werner_bell),
        ReproCase("ghzN-scan",
                  "Multipartite GHZ Werner thresholds (SRPT 1/(1+2^(N-2)), PPT 1/(1+2^(N-1)))",
                  {"n": 3, "tol": 1e-6}, _run_ghzn_scan),
        ReproCase("cat",
                  "Two-mode cat state: SRPT violation and closed-form variances",
                  {"alpha": 1.0, "beta": 1.0, "truncation": 32}, _run_cat),
        ReproCase("duan-cat",
                  "Duan criterion scan on the cat state (never violated)",
                  {"alpha": 1.0, "beta": 1.0, "truncation": 32, "points": 31}, _run_duan_cat),
        ReproCase("osc2d",
                  "2D oscillator angular-momentum eigenstates vs the projector/flip pair",
                  {"n": 2}, _run_osc2d),
        ReproCase("osc3d",
                  "3D oscillator eigenstates vs their designated witness pairs",
                  {"n": 2}, _run_osc3d),
        ReproCase("multiphoton",
                  "Two-photon polarization state: two-projector detection",
                  {"alpha": INV_SQRT2, "beta": 0.0, "gamma": INV_SQRT2}, _run_multiphoton),
        ReproCase("prop1-demo",
                  "Projector/flip pair on a two-level Schmidt state",
                  {"c0": INV_SQRT2, "c1": INV_SQRT2}, _run_prop1_demo),
        ReproCase("bad-observable-demo",
                  "Why admissibility matters: fake violation on a separable state",
                  {}, _run_bad_observable_demo),
        ReproCase("werner-audit",
                  "Numeric Werner threshold vs the two readings of the closed formula",
                  {"a": INV_SQRT2, "b": INV_SQRT2, "phi": 0.0, "tol": 1e-6}, _run_werner_audit),
    )
}


# parameters that must be positive as well as finite
_POSITIVE_PARAMS = ("tol",)


def _coerce_params(case: ReproCase, overrides: list[str]) -> dict:
    params = dict(case.defaults)
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"malformed parameter {item!r}, expected key=value")
        key, raw = item.split("=", 1)
        if key not in params:
            raise ValueError(f"unknown parameter {key!r} for case {case.id!r} "
                             f"(known: {sorted(params)})")
        value = int(raw) if isinstance(params[key], int) else float(raw)
        positive = key in _POSITIVE_PARAMS
        if not (math.isfinite(value) and (value > 0 or not positive)):
            raise ValueError(f"{key} must be a finite {'positive ' if positive else ''}number, "
                             f"got {raw!r}")
        params[key] = value
    return params


def _report_to_csv(report: dict) -> str:
    lines = ["name,value,expected,tol,provenance,ok"]
    for c in report["checks"]:
        value = format_float(c["value"]) if isinstance(c["value"], float) else str(c["value"]).lower()
        expected = (format_float(c["expected"]) if isinstance(c["expected"], float)
                    else str(c["expected"]).lower())
        provenance = '"' + c["provenance"].replace('"', '""') + '"'
        lines.append(
            f'{c["name"]},{value},{expected},{format_float(c["tol"])},'
            f'{provenance},{str(c["ok"]).lower()}'
        )
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run_case(case_id: str, overrides: list[str], out_path: str | None, fmt: str) -> int:
    if case_id not in CASES:
        sys.stderr.write(f"unknown case {case_id!r}; run `srpt list-cases`\n")
        return 1
    case = CASES[case_id]
    try:
        params = _coerce_params(case, overrides)
        body = case.runner(params)
    except (ValueError, NoCrossingError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    passed = all(c["ok"] for c in body["checks"])
    report = {"case": case.id, "parameters": params, **body, "passed": passed}
    _emit(_report_to_csv(report) if fmt == "csv" else dumps_canonical(report) + "\n", out_path)
    if not passed:
        for c in body["checks"]:
            if not c["ok"]:
                sys.stderr.write(
                    f"MISMATCH {c['name']}: computed {c['value']} vs expected "
                    f"{c['expected']} (tol {c['tol']}) [{c['provenance']}]\n"
                )
        return 2
    return 0


def check_files(state_path: str, a_path: str, b_path: str, subsystem: int,
                unchecked: bool, out_path: str | None) -> int:
    try:
        with open(state_path) as fh:
            state = density_from_json(fh.read())
        with open(a_path) as fh:
            a = observable_from_json(fh.read())
        with open(b_path) as fh:
            b = observable_from_json(fh.read())
        witness = CompiledWitness(a, b, subsystem)
        adm_a, adm_b = witness.admissibility()
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    doc = {
        "subsystem": subsystem,
        "admissibility_a": adm_a.to_dict(),
        "admissibility_b": adm_b.to_dict(),
    }
    if not (adm_a.admissible and adm_b.admissible) and not unchecked:
        doc["refused"] = "inadmissible observable; rerun with --unchecked to evaluate anyway"
        _emit(dumps_canonical(doc) + "\n", out_path)
        for label, adm in (("A", adm_a), ("B", adm_b)):
            if not adm.admissible:
                sys.stderr.write(f"observable {label} inadmissible: residual {adm.residual}\n")
        return 3
    try:
        report = witness.report(state)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    doc["report"] = report.to_dict()
    _emit(dumps_canonical(doc) + "\n", out_path)
    return 0


@dataclass(frozen=True)
class WitnessSpec:
    """A named `srpt witness` constructor: argument names and types in order,
    and whether the HilbertSpace from --dims is passed first."""

    build: Callable[..., tuple[Observable, ...]]
    params: tuple[tuple[str, type], ...]
    needs_dims: bool = False

    def usage(self, name: str) -> str:
        args = ",".join(arg for arg, _ in self.params)
        return (f"{name}:{args}" if args else name) + (" --dims d1,d2" if self.needs_dims else "")


def _prop2_single(*values: float) -> tuple[Observable]:
    return (prop2_observable(Prop2Params.from_array(values)),)


WITNESSES: dict[str, WitnessSpec] = {
    "prop1": WitnessSpec(prop1_pair, (("i0", int), ("i1", int)), needs_dims=True),
    "prop2": WitnessSpec(_prop2_single, tuple((f"{v}{i}", float) for v in "abcd"
                                              for i in (1, 2, 3)) + (("eta", float),)),
    "prop3": WitnessSpec(prop3_triple, (("which", int),)),
    "osc2d": WitnessSpec(oscillator2d_pair, (("n", int),)),
    "osc3d": WitnessSpec(oscillator3d_pair, (("n", int), ("m", int))),
    "multiphoton": WitnessSpec(multiphoton_pair, ()),
    "cat-quadratures": WitnessSpec(cat_quadratures, (("a1", float), ("a2", float), ("b1", float),
                                                     ("b2", float), ("truncation", int))),
    "werner-bipartite": WitnessSpec(werner_bipartite_pair, (("phi", float),)),
    "werner-multipartite": WitnessSpec(werner_multipartite_pair, (("n", int),)),
}


def _parse_witness_descriptor(descriptor: str, dims: tuple[int, ...] | None):
    name, _, argtext = descriptor.partition(":")
    args = [s for s in argtext.split(",") if s]
    spec = WITNESSES.get(name)
    if spec is None:
        raise ValueError(f"unknown witness descriptor {name!r} (known: {', '.join(WITNESSES)})")
    if len(args) != len(spec.params):
        raise ValueError(f"{name} takes {len(spec.params)} arguments, got {len(args)}")
    values = [kind(raw) for (_, kind), raw in zip(spec.params, args)]
    if spec.needs_dims:
        if dims is None:
            raise ValueError(f"{name} needs --dims, e.g. --dims 2,2")
        values.insert(0, HilbertSpace(dims))
    return spec.build(*values)


def emit_witness(descriptor: str, dims_text: str | None, out_path: str | None) -> int:
    try:
        dims = tuple(int(d) for d in dims_text.split(",")) if dims_text else None
        observables = _parse_witness_descriptor(descriptor, dims)
    except (ValueError, TypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if len(observables) == 1:
        text = observable_to_json(observables[0]) + "\n"
    else:
        a, b = observables
        text = f'{{"A":{observable_to_json(a)},"B":{observable_to_json(b)}}}\n'
    _emit(text, out_path)
    return 0


def list_cases() -> int:
    width = max(len(cid) for cid in CASES)
    for cid in CASES:
        sys.stdout.write(f"{cid.ljust(width)}  {CASES[cid].description}\n")
    return 0


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2 (2 means value mismatch here)
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="srpt",
                     description="Entanglement detection via partially transposed "
                                 "uncertainty relations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a registered reproduction case")
    p_run.add_argument("case")
    p_run.add_argument("--param", action="append", default=[], metavar="K=V")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=("json", "csv"), default="json")

    p_check = sub.add_parser("check", help="evaluate the SRPT inequality on JSON inputs")
    p_check.add_argument("state")
    p_check.add_argument("obs_a")
    p_check.add_argument("obs_b")
    p_check.add_argument("--subsystem", type=int, default=0)
    p_check.add_argument("--unchecked", action="store_true")
    p_check.add_argument("--out", default=None)

    p_wit = sub.add_parser("witness", help="emit a named witness as JSON",
                           formatter_class=argparse.RawDescriptionHelpFormatter,
                           epilog="descriptors:\n" + "\n".join(
                               f"  {spec.usage(name)}" for name, spec in WITNESSES.items()))
    p_wit.add_argument("descriptor", help="name[:arg,...], one of the descriptors below")
    p_wit.add_argument("--dims", default=None, help="comma-separated subsystem dimensions")
    p_wit.add_argument("--out", default=None)

    sub.add_parser("list-cases", help="list registered case ids")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return run_case(args.case, args.param, args.out, args.format)
    if args.command == "check":
        return check_files(args.state, args.obs_a, args.obs_b, args.subsystem,
                           args.unchecked, args.out)
    if args.command == "witness":
        return emit_witness(args.descriptor, args.dims, args.out)
    if args.command == "list-cases":
        return list_cases()
    return 1


if __name__ == "__main__":
    sys.exit(main())
