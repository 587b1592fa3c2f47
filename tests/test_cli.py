import json
import re
from pathlib import Path

import numpy as np
import pytest

from srpt import criteria, hilbert
from srpt.cli import CASES, WITNESSES, main
from srpt.criteria import srpt_evaluate
from srpt.hilbert import (
    density_from_pure,
    observable_from_json,
    observable_to_json,
    state_to_json,
)
from srpt.states import random_pure, schmidt_state
from srpt.witnesses import prop1_pair, werner_bipartite_pair
from srpt.hilbert import HilbertSpace, Observable, PAULI_X, PAULI_Y

from helpers import assert_same_report

KNOWN_CASES = {
    "werner-bell", "ghzN-scan", "cat", "duan-cat", "osc2d", "osc3d",
    "multiphoton", "prop1-demo", "bad-observable-demo", "werner-audit",
}


def test_registry_has_exactly_the_documented_cases():
    assert set(CASES) == KNOWN_CASES


def test_list_cases(capsys):
    assert main(["list-cases"]) == 0
    out = capsys.readouterr().out
    for case_id in KNOWN_CASES:
        assert case_id in out


def test_run_werner_bell_passes(capsys):
    assert main(["run", "werner-bell"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert abs(doc["results"]["srpt_scan"]["x_critical"] - 0.5) <= 1e-6
    assert abs(doc["results"]["ppt_scan"]["x_critical"] - 1 / 3) <= 1e-6
    assert all(c["ok"] for c in doc["checks"])


@pytest.mark.parametrize("phi, expected", [(0.7, 0.5911480), (1.2, 0.8223919)])
def test_run_werner_bell_threshold_follows_phi(phi, expected, capsys):
    assert main(["run", "werner-bell", "--param", f"phi={phi}"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["results"]["srpt_scan"]["x_critical"] - expected) <= 1e-6
    assert abs(doc["checks"][0]["expected"] - expected) <= 1e-6


@pytest.mark.parametrize("params, linear_defined", [
    (["phi=0.5"], True), (["phi=2"], False), (["phi=3"], False), (["a=0.8", "b=0.6"], True),
])
def test_run_werner_audit_passes_off_the_bell_point(params, linear_defined, capsys):
    argv = ["run", "werner-audit"] + [arg for p in params for arg in ("--param", p)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert '"passed":true' in out
    doc = json.loads(out)
    audit = doc["results"]["audit"]
    # 1 + 32 r < 0 leaves the linear reading undefined, written as null
    assert (audit["linear_formula"] is not None) == linear_defined
    assert audit["linear_agrees"] is False
    assert doc["checks"][0]["expected"] == pytest.approx(audit["squared_formula"], abs=1e-12)


def test_run_unknown_case_exits_1(capsys):
    assert main(["run", "unknown-case"]) == 1
    assert "list-cases" in capsys.readouterr().err


def test_run_malformed_param_exits_1(capsys):
    assert main(["run", "werner-bell", "--param", "phi"]) == 1
    assert main(["run", "werner-bell", "--param", "nope=1"]) == 1


def test_run_coarse_tolerance_mismatch_exits_2(capsys):
    # a deliberately coarse bisection cannot hit the 1e-6 expectation
    assert main(["run", "werner-bell", "--param", "tol=0.05"]) == 2
    captured = capsys.readouterr()
    assert "MISMATCH" in captured.err
    doc = json.loads(captured.out)
    assert doc["passed"] is False


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_run_rejects_a_tolerance_that_is_not_finite_and_positive(tol, capsys):
    assert main(["run", "werner-bell", "--param", f"tol={tol}"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: tol must be a finite positive number")
    assert captured.out == ""


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("case, key", [("cat", "alpha"), ("multiphoton", "alpha"),
                                       ("prop1-demo", "c0"), ("werner-bell", "phi")])
def test_run_rejects_a_parameter_that_is_not_finite(case, key, value, capsys):
    assert main(["run", case, "--param", f"{key}={value}"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {key} must be a finite number")
    assert captured.out == ""


@pytest.mark.parametrize("alpha", ["14", "25", "1e160"])
def test_run_cat_refuses_an_amplitude_the_truncation_cannot_hold(alpha, capsys):
    assert main(["run", "cat", "--param", f"alpha={alpha}"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: truncation 32 insufficient for amplitude")
    assert captured.out == ""


def _counting(counts, key, fn):
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return counted


@pytest.mark.parametrize("argv, compiled, residuals", [
    (["cat", "--param", "truncation=16"], 1, 2),
    (["osc2d", "--param", "n=6"], 1, 2),
    (["osc3d", "--param", "n=1"], 1, 2),
    (["osc3d", "--param", "n=2"], 2, 4),
    (["osc3d", "--param", "n=4"], 4, 8),
])
def test_pure_cases_validate_no_density_matrix_and_compile_once_per_witness(
        argv, compiled, residuals, monkeypatch, capsys):
    counts = {"density": 0, "compiled": 0, "residuals": 0}
    for holder, name, key in ((hilbert.DensityMatrix, "__post_init__", "density"),
                              (criteria.CompiledWitness, "__init__", "compiled"),
                              (criteria, "_residual", "residuals")):
        monkeypatch.setattr(holder, name, _counting(counts, key, getattr(holder, name)))
    assert main(["run", *argv]) == 0
    assert counts == {"density": 0, "compiled": compiled, "residuals": residuals}


def test_run_bad_observable_demo(capsys):
    assert main(["run", "bad-observable-demo"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["report"]["violated"] is True
    assert doc["results"]["admissibility_b"]["residual"] > 0.1


def test_run_osc2d_with_param(capsys):
    assert main(["run", "osc2d", "--param", "n=1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["results"]["eigenstates"]) == 2


def test_run_csv_format(capsys):
    assert main(["run", "prop1-demo", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "name,value,expected,tol,provenance,ok"
    assert all(line.endswith("true") for line in lines[1:])


def test_run_output_is_byte_stable(tmp_path):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    assert main(["run", "multiphoton", "--out", str(path_a)]) == 0
    assert main(["run", "multiphoton", "--out", str(path_b)]) == 0
    assert path_a.read_bytes() == path_b.read_bytes()


def test_run_duan_cat_rejects_an_empty_scan(capsys):
    assert main(["run", "duan-cat", "--param", "points=0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


# --- check subcommand -----------------------------------------------------------


@pytest.fixture
def io_files(tmp_path):
    bell = schmidt_state((1.0, 1.0), (2, 2))
    a, b = prop1_pair(HilbertSpace((2, 2)), 0, 1)
    state_path = tmp_path / "bell.json"
    a_path = tmp_path / "a.json"
    b_path = tmp_path / "b.json"
    state_path.write_text(state_to_json(bell))
    a_path.write_text(observable_to_json(a))
    b_path.write_text(observable_to_json(b))
    return state_path, a_path, b_path, tmp_path


def test_check_bell_detects(io_files, capsys):
    state_path, a_path, b_path, _ = io_files
    assert main(["check", str(state_path), str(a_path), str(b_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["violated"] is True
    assert doc["admissibility_a"]["admissible"] is True


def test_check_product_state_not_violated(io_files, capsys):
    _, a_path, b_path, tmp_path = io_files
    product = tmp_path / "product.json"
    product.write_text(state_to_json(schmidt_state((1.0, 0.0), (2, 2))))
    assert main(["check", str(product), str(a_path), str(b_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["violated"] is False


def test_check_inadmissible_exits_3_unless_unchecked(io_files, capsys):
    state_path, a_path, _, tmp_path = io_files
    bad = Observable(HilbertSpace((2, 2)),
                     np.kron(PAULI_X, PAULI_Y) + np.kron(PAULI_Y, PAULI_X))
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(observable_to_json(bad))

    assert main(["check", str(state_path), str(a_path), str(bad_path)]) == 3
    captured = capsys.readouterr()
    assert "residual" in captured.err
    doc = json.loads(captured.out)
    assert "report" not in doc

    # the canonical misuse: with --unchecked the separable |00> "violates"
    product_path = tmp_path / "product.json"
    product_path.write_text(state_to_json(schmidt_state((1.0, 0.0), (2, 2))))
    xx_path = tmp_path / "xx.json"
    xx_path.write_text(observable_to_json(
        Observable(HilbertSpace((2, 2)), np.kron(PAULI_X, PAULI_X))))
    assert main(["check", str(product_path), str(xx_path), str(bad_path)]) == 3
    capsys.readouterr()
    assert main(["check", str(product_path), str(xx_path), str(bad_path),
                 "--unchecked"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["violated"] is True


def test_check_refuses_a_rescaled_inadmissible_observable(tmp_path, capsys):
    # the absolute residual of 1e-6 (XY + YX) is 8e-12; the relative one is 1
    space = HilbertSpace((2, 2))
    files = {
        "zero.json": state_to_json(schmidt_state((1.0, 0.0), (2, 2))),
        "a.json": observable_to_json(Observable(space, 1e6 * np.kron(PAULI_X, PAULI_X))),
        "b.json": observable_to_json(Observable(
            space, 1e-6 * (np.kron(PAULI_X, PAULI_Y) + np.kron(PAULI_Y, PAULI_X)))),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(["check", *(str(tmp_path / name) for name in files)]) == 3
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert "report" not in doc
    assert doc["admissibility_a"]["admissible"] is True
    assert doc["admissibility_b"]["residual"] == pytest.approx(1.0)
    assert "observable B inadmissible" in captured.err


def test_check_rejects_garbage_input(io_files, capsys):
    _, a_path, b_path, tmp_path = io_files
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert main(["check", str(garbage), str(a_path), str(b_path)]) == 1
    garbage.write_text('{"dims": [2, 2], "amplitudes": {"re": 1}}')
    assert main(["check", str(garbage), str(a_path), str(b_path)]) == 1
    product = '[[1, 0], [0, 0], [0, 0], [0, 0]]'
    for dims in ('[2.7, 2]', '"22"'):
        capsys.readouterr()
        garbage.write_text(f'{{"dims": {dims}, "amplitudes": {product}}}')
        assert main(["check", str(garbage), str(a_path), str(b_path)]) == 1
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("text", [
    '{"dims": [2, 2], "amplitudes": [[NaN, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}',
    '{"dims": [2, 2], "matrix": [[[0.5, 0], [NaN, 0], [0, 0], [0, 0]], '
    '[[NaN, 0], [0.5, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0], [0, 0]], '
    '[[0, 0], [0, 0], [0, 0], [0, 0]]]}',
    '{"dims": [2, 2], "amplitudes": [[1.0, Infinity], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
], ids=["amplitudes", "density", "imag-inf"])
def test_check_rejects_non_finite_state(io_files, capsys, text):
    _, a_path, b_path, tmp_path = io_files
    state_path = tmp_path / "nan.json"
    state_path.write_text(text)
    assert main(["check", str(state_path), str(a_path), str(b_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


HUGE = "9" * 400


@pytest.mark.parametrize("which,text", [
    (0, f'{{"dims": [2, 2], "amplitudes": [[{HUGE}, 0], [0, 0], [0, 0], [0, 0]]}}'),
    (0, '{"dims": [2, 2], "amplitudes": [["1", "0"], [0, 0], [0, 0], [0, 0]]}'),
    (1, '{"dims": [2, 2], "matrix": [[[0, 0], [0, 0], [0, 0], [%s, 0]], '
        '[[0, 0], [0, 0], [1, 0], [0, 0]], [[0, 0], [1, 0], [0, 0], [0, 0]], '
        '[[1, 0], [0, 0], [0, 0], [0, 0]]]}' % HUGE),
    (2, '{"dims": [2, 2], "matrix": [[[0, 0], [0, 0], [0, 0], [null, 0]], '
        '[[0, 0], [0, 0], [1, 0], [0, 0]], [[0, 0], [1, 0], [0, 0], [0, 0]], '
        '[[1, 0], [0, 0], [0, 0], [0, 0]]]}'),
], ids=["state-huge", "state-strings", "a-huge", "b-null"])
def test_check_rejects_entries_that_are_not_floats(io_files, capsys, which, text):
    paths = list(io_files[:3])
    paths[which] = io_files[3] / "bad.json"
    paths[which].write_text(text)
    assert main(["check", *map(str, paths)]) == 1
    assert capsys.readouterr().err.startswith("error: complex entries")


@pytest.mark.parametrize("which,text", [
    (0, '{"dims": [2, 2], "amplitudes": [[true, false], [false, false], [false, false], '
        '[false, false]]}'),
    (1, '{"dims": [2, 2], "matrix": [[[0, 0], [0, 0], [0, 0], [true, 0]], '
        '[[0, 0], [0, 0], [1, 0], [0, 0]], [[0, 0], [1, 0], [0, 0], [0, 0]], '
        '[[1, 0], [0, 0], [0, 0], [0, 0]]]}'),
    (2, '{"dims": [2, 2], "matrix": [[[0, 0], [0, 0], [0, 0], [1, %d]], '
        '[[0, 0], [0, 0], [1, 0], [0, 0]], [[0, 0], [1, 0], [0, 0], [0, 0]], '
        '[[false, 0], [0, 0], [0, 0], [0, 0]]]}' % 2 ** 70),
], ids=["state-all-booleans", "a-mixed", "b-next-to-big-int"])
def test_check_rejects_booleans(io_files, capsys, which, text):
    paths = list(io_files[:3])
    paths[which] = io_files[3] / "bad.json"
    paths[which].write_text(text)
    assert main(["check", *map(str, paths)]) == 1
    assert capsys.readouterr().err.startswith("error: complex entries")


def test_check_dimension_mismatch_exits_1(io_files, capsys):
    state_path, a_path, _, tmp_path = io_files
    small = Observable(HilbertSpace((2,)), PAULI_X)
    small_path = tmp_path / "small.json"
    small_path.write_text(observable_to_json(small))
    assert main(["check", str(state_path), str(a_path), str(small_path)]) == 1


def test_check_picks_the_state_format_by_key(io_files, capsys):
    _, a_path, b_path, tmp_path = io_files
    bell = density_from_pure(schmidt_state((1.0, 1.0), (2, 2)))
    doc = {"dims": [2, 2],
           "matrix": [[[z.real, z.imag] for z in row] for row in bell.matrix]}
    outputs = []
    for name, extra in (("plain.json", {}), ("comment.json", {"comment": "amplitudes"})):
        path = tmp_path / name
        path.write_text(json.dumps({**doc, **extra}))
        assert main(["check", str(path), str(a_path), str(b_path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["report"]["violated"] is True


def _as_read(*observables):
    """The observables as `srpt check` reads them: each as its dense matrix."""
    return [observable_from_json(observable_to_json(m)) for m in observables]


def test_check_evaluates_an_amplitudes_file_without_a_density_matrix(
        tmp_path, monkeypatch, capsys):
    psi = random_pure((3, 3), 8)
    a, b = prop1_pair(psi.space, 0, 1)
    # the CLI reads a and b as dense matrices: the same arithmetic as this
    # evaluation, and up to rounding that on the projector of psi
    want = srpt_evaluate(psi, *_as_read(a, b)).to_dict()
    near = srpt_evaluate(density_from_pure(psi), a, b).to_dict()
    paths = [tmp_path / name for name in ("state.json", "a.json", "b.json")]
    for path, text in zip(paths, (state_to_json(psi), observable_to_json(a),
                                  observable_to_json(b))):
        path.write_text(text)
    counts = {"density": 0}
    monkeypatch.setattr(hilbert.DensityMatrix, "__post_init__",
                        _counting(counts, "density", hilbert.DensityMatrix.__post_init__))
    assert main(["check", *map(str, paths)]) == 0
    assert counts["density"] == 0
    got = json.loads(capsys.readouterr().out)["report"]
    assert got == want
    assert_same_report(got, near)


def test_check_out_of_range_subsystem_exits_1(io_files, capsys):
    state_path, a_path, b_path, _ = io_files
    assert main(["check", str(state_path), str(a_path), str(b_path), "--subsystem", "2"]) == 1
    assert capsys.readouterr().err == "error: subsystem index 2 out of range for dims (2, 2)\n"


def test_check_subsystem_1_matches_srpt_evaluate(tmp_path, capsys):
    psi = random_pure((2, 3), 5)
    a, b = prop1_pair(psi.space, 0, 1)
    paths = [tmp_path / name for name in ("state.json", "a.json", "b.json")]
    for path, text in zip(paths, (state_to_json(psi), observable_to_json(a),
                                  observable_to_json(b))):
        path.write_text(text)
    assert main(["check", *map(str, paths), "--subsystem", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["subsystem"] == 1
    assert doc["report"] == srpt_evaluate(psi, *_as_read(a, b), 1).to_dict()


# --- witness subcommand -----------------------------------------------------------


def test_witness_prop1_pair(capsys):
    assert main(["witness", "prop1:0,1", "--dims", "2,2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["A"]["dims"] == [2, 2]
    assert doc["B"]["matrix"][0][3] == [1.0, 0.0]  # sigma_x x sigma_x corner


def test_witness_pair_is_its_two_observables_without_negative_zeros(capsys):
    a, b = werner_bipartite_pair(0.7)
    assert np.signbit(a.matrix.real[a.matrix.real == 0]).any()  # the writer must drop these
    assert main(["witness", "werner-bipartite:0.7"]) == 0
    out = capsys.readouterr().out
    assert out == '{"A":' + observable_to_json(a) + ',"B":' + observable_to_json(b) + "}\n"
    assert re.search(r"[\[,]-0[,\]]", out) is None


def test_witness_multiphoton_round_trips_into_check(tmp_path, capsys):
    from srpt.states import multiphoton_state

    out = tmp_path / "pair.json"
    assert main(["witness", "multiphoton", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    a_path = tmp_path / "a.json"
    b_path = tmp_path / "b.json"
    a_path.write_text(json.dumps(doc["A"]))
    b_path.write_text(json.dumps(doc["B"]))
    state_path = tmp_path / "state.json"
    state_path.write_text(state_to_json(multiphoton_state(1.0, 0.0, 1.0)))
    assert main(["check", str(state_path), str(a_path), str(b_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["report"]["violated"] is True


def test_witness_rejects_unknown_descriptor(capsys):
    assert main(["witness", "nonsense:1"]) == 1
    assert main(["witness", "prop1:0,1"]) == 1  # missing --dims
    assert main(["witness", "osc2d"]) == 1
    assert main(["witness", "prop3:1,2"]) == 1
    assert main(["witness", "prop1:0,1", "--dims", "2,x"]) == 1
    err = capsys.readouterr().err
    assert "osc2d takes 1 arguments, got 0" in err
    assert "prop3 takes 1 arguments, got 2" in err


def test_witness_help_and_readme_list_every_descriptor(capsys):
    with pytest.raises(SystemExit):
        main(["witness", "--help"])
    help_text = capsys.readouterr().out
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for name, spec in WITNESSES.items():
        assert spec.usage(name) in help_text
        assert spec.usage(name) in readme
