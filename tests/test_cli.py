import json
from pathlib import Path

import numpy as np
import pytest

from srpt.cli import CASES, WITNESSES, main
from srpt.hilbert import observable_to_json, state_to_json
from srpt.states import schmidt_state
from srpt.witnesses import prop1_pair
from srpt.hilbert import HilbertSpace, Observable, PAULI_X, PAULI_Y

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


def test_check_dimension_mismatch_exits_1(io_files, capsys):
    state_path, a_path, _, tmp_path = io_files
    small = Observable(HilbertSpace((2,)), PAULI_X)
    small_path = tmp_path / "small.json"
    small_path.write_text(observable_to_json(small))
    assert main(["check", str(state_path), str(a_path), str(small_path)]) == 1


# --- witness subcommand -----------------------------------------------------------


def test_witness_prop1_pair(capsys):
    assert main(["witness", "prop1:0,1", "--dims", "2,2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["A"]["dims"] == [2, 2]
    assert doc["B"]["matrix"][0][3] == [1.0, 0.0]  # sigma_x x sigma_x corner


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
