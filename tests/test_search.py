import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from srpt import criteria, search
from srpt.criteria import AdmissibilityError, is_admissible, ppt_min_eigenvalue, srpt_evaluate
from srpt.hilbert import (
    PSD_TOL,
    DensityMatrix,
    HilbertSpace,
    TermOperator,
    density_from_pure,
    mix,
)
from srpt.search import (
    NoCrossingError,
    _bisect_crossing,
    maximize_violation,
    ppt_threshold_scan,
    threshold_scan,
    werner_phi_threshold,
)
from srpt.states import ghz, random_pure, random_separable, schmidt_state, werner
from srpt.witnesses import (
    Prop2Params,
    _prop2_tables,
    prop1_pair,
    prop2_observable,
    werner_bipartite_pair,
    werner_multipartite_pair,
)

from helpers import basis_state, horodecki_3x3

BELL = schmidt_state((1.0, 1.0), (2, 2))
TILTED = schmidt_state((0.8, 0.6), (2, 2))
SCHMIDT_23 = schmidt_state((0.8, 0.6), (2, 3))


def bell_family(x):
    return werner(BELL, x)


def dense_srpt_scan(psi, a, b, k=0, tol=1e-6):
    """Reference: bisection on dense evaluations of werner(psi, x) at every point."""
    return _bisect_crossing(
        lambda x: srpt_evaluate(werner(psi, x), a, b, k, check_admissibility=False).violated, tol)


def dense_ppt_scan(psi, k=0, tol=1e-6):
    """Reference: bisection on the dense PPT spectrum of werner(psi, x) at every point."""
    return _bisect_crossing(lambda x: ppt_min_eigenvalue(werner(psi, x), k) < -PSD_TOL, tol)


# --- threshold scans -------------------------------------------------------------


def test_bell_srpt_threshold():
    a, b = werner_bipartite_pair(0.0)
    res = threshold_scan(BELL, a, b)
    assert res.x_critical == pytest.approx(0.5, abs=1e-6)
    assert res.bracket[1] - res.bracket[0] <= res.tolerance
    assert res.evaluations > 21


def test_bell_ppt_threshold():
    res = ppt_threshold_scan(BELL)
    assert res.x_critical == pytest.approx(1 / 3, abs=1e-6)


@pytest.mark.parametrize("n", range(3, 9))
def test_multipartite_thresholds(n):
    a, b = werner_multipartite_pair(n)
    srpt_res = threshold_scan(ghz(n), a, b)
    ppt_res = ppt_threshold_scan(ghz(n))
    assert srpt_res.x_critical == pytest.approx(1 / (1 + 2 ** (n - 2)), abs=1e-6)
    assert ppt_res.x_critical == pytest.approx(1 / (1 + 2 ** (n - 1)), abs=1e-6)


def test_ppt_threshold_for_tilted_schmidt_state():
    res = ppt_threshold_scan(TILTED)
    assert res.x_critical == pytest.approx(1 / (1 + 4 * 0.8 * 0.6), abs=1e-6)


@pytest.mark.parametrize("psi, pair, k", [
    *(pytest.param(ghz(n), werner_multipartite_pair(n), 0, id=f"ghz{n}") for n in range(3, 7)),
    pytest.param(BELL, werner_bipartite_pair(0.0), 0, id="bell"),
    pytest.param(TILTED, werner_bipartite_pair(0.0), 0, id="tilted"),
    *(pytest.param(SCHMIDT_23, prop1_pair(SCHMIDT_23.space, 0, 1), k, id=f"schmidt23-k{k}")
      for k in (0, 1)),
])
def test_scans_match_dense_reference(psi, pair, k):
    assert threshold_scan(psi, *pair, k) == dense_srpt_scan(psi, *pair, k)
    assert ppt_threshold_scan(psi, k) == dense_ppt_scan(psi, k)


@given(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi))
def test_werner_phi_scans_match_dense_reference(theta, phi):
    a, b = math.cos(theta), math.sin(theta)
    assume(abs(a * b * math.cos(phi)) >= 0.15)
    psi = schmidt_state((a, b), (2, 2))
    pair = werner_bipartite_pair(phi)
    assert threshold_scan(psi, *pair) == dense_srpt_scan(psi, *pair)
    assert ppt_threshold_scan(psi) == dense_ppt_scan(psi)


def test_scans_raise_when_the_dense_certification_disagrees(monkeypatch):
    # the certification now evaluates the maximally mixed state, which no test detects
    monkeypatch.setattr(search, "werner", lambda psi, x: werner(psi, 0.0))
    a, b = werner_bipartite_pair(0.0)
    with pytest.raises(ArithmeticError):
        threshold_scan(BELL, a, b)
    with pytest.raises(ArithmeticError):
        ppt_threshold_scan(BELL)


def test_scans_take_a_state_vector():
    a, b = werner_bipartite_pair(0.0)
    with pytest.raises(TypeError):
        threshold_scan(bell_family, a, b)
    with pytest.raises(TypeError):
        ppt_threshold_scan(bell_family)


def test_scan_is_deterministic():
    a, b = werner_bipartite_pair(0.0)
    first = threshold_scan(BELL, a, b)
    second = threshold_scan(BELL, a, b)
    assert first == second


def test_scan_bracket_properties():
    a, b = werner_bipartite_pair(0.0)
    res = threshold_scan(BELL, a, b)
    lo, hi = res.bracket
    assert srpt_evaluate(bell_family(lo), a, b).slack <= 1e-9
    assert srpt_evaluate(bell_family(hi), a, b).slack > 1e-9
    assert srpt_evaluate(bell_family(res.x_critical + 10 * res.tolerance), a, b).slack > 1e-9
    assert srpt_evaluate(bell_family(res.x_critical - 10 * res.tolerance), a, b).slack <= 1e-9


def test_scan_reports_no_crossing():
    product = schmidt_state((1.0, 0.0), (2, 2))
    a, b = werner_bipartite_pair(0.0)
    with pytest.raises(NoCrossingError):
        threshold_scan(product, a, b)


def test_scan_refuses_inadmissible_witness(monkeypatch):
    import srpt.hilbert as h

    def no_bisection(*args):
        raise AssertionError("bisection started before the admissibility check")

    monkeypatch.setattr(search, "_bisect_crossing", no_bisection)
    bad = h.Observable(HilbertSpace((2, 2)),
                       np.kron(h.PAULI_X, h.PAULI_Y) + np.kron(h.PAULI_Y, h.PAULI_X))
    a, _ = werner_bipartite_pair(0.0)
    with pytest.raises(AdmissibilityError):
        threshold_scan(BELL, a, bad)


def test_scan_checks_admissibility_once(monkeypatch):
    """One compile for the bisection, one unchecked srpt_evaluate for the
    dense certification, and one residual pair in all."""
    counts = {"compiled": 0, "residuals": 0, "dense": []}
    compile_pair, residual = criteria.CompiledWitness.__init__, criteria._residual
    evaluate = search.srpt_evaluate

    def counting_compile(self, *args):
        counts["compiled"] += 1
        compile_pair(self, *args)

    def counting_residual(*args):
        counts["residuals"] += 1
        return residual(*args)

    def recording_evaluate(*args, **kwargs):
        counts["dense"].append(kwargs)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(criteria.CompiledWitness, "__init__", counting_compile)
    monkeypatch.setattr(criteria, "_residual", counting_residual)
    monkeypatch.setattr(search, "srpt_evaluate", recording_evaluate)
    threshold_scan(ghz(3), *werner_multipartite_pair(3))
    assert counts == {"compiled": 2, "residuals": 2,
                      "dense": [{"check_admissibility": False}]}


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_bisection_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="finite positive"):
        _bisect_crossing(lambda x: x > 0.5, tol)


def test_scan_below_float_spacing_stops_at_adjacent_floats():
    res = threshold_scan(BELL, *werner_bipartite_pair(0.0), tol=1e-20)
    lo, hi = res.bracket
    assert np.nextafter(lo, 1.0) == hi
    assert abs(res.x_critical - 0.5) <= 1e-6
    assert res.evaluations < search.PRESCAN_POINTS + 64


def test_srpt_threshold_never_below_ppt():
    families = [
        (BELL, werner_bipartite_pair(0.0)),
        (ghz(3), werner_multipartite_pair(3)),
        (TILTED, werner_bipartite_pair(0.0)),
    ]
    for psi, (a, b) in families:
        srpt_res = threshold_scan(psi, a, b)
        ppt_res = ppt_threshold_scan(psi)
        assert srpt_res.x_critical >= ppt_res.x_critical - 1e-6


# --- witness optimization -----------------------------------------------------------


def test_maximize_prop2_finds_bell_violation():
    result = maximize_violation(density_from_pure(BELL), "prop2", restarts=8, seed=5)
    assert result.best_report.slack > 1e-9
    assert result.restarts_used == 8
    assert result.best_params.shape == (26,)


def test_maximize_prop2_product_state_stays_sound():
    rho = density_from_pure(basis_state(HilbertSpace((2, 2)), (0, 0)))
    result = maximize_violation(rho, "prop2", restarts=8, seed=5)
    assert result.best_report.slack <= 1e-9


def test_maximize_prop2_werner_above_threshold():
    result = maximize_violation(werner(BELL, 0.6), "prop2", restarts=8, seed=5)
    assert result.best_report.slack > 1e-9


def test_maximize_prop1_matches_schmidt_oracle():
    psi = schmidt_state((0.8, 0.6), (2, 2))
    result = maximize_violation(density_from_pure(psi), "prop1")
    assert result.best_report.lhs <= 1e-12
    assert result.best_report.rhs == pytest.approx((0.8 * 0.6) ** 2, abs=1e-10)
    assert list(result.best_params) == [0.0, 1.0]


PROP1_STATES = [random_pure(dims, seed) for dims in ((2, 2), (3, 3), (2, 5), (4, 6))
                for seed in (0, 1)] + [schmidt_state((1.0,) * 4, (4, 4))]


@pytest.mark.parametrize("psi", PROP1_STATES, ids=lambda psi: "x".join(map(str, psi.space.dims)))
def test_prop1_search_compiles_one_witness_and_beats_every_level_pair(psi, monkeypatch):
    """Proposition 1: the pair at the two largest Schmidt coefficients has the
    largest slack of all Schmidt-aligned pairs, so one checked evaluation is
    the search."""
    compile_pair = criteria.CompiledWitness.__init__
    counts = {"compiled": 0}

    def counting_compile(self, *args):
        counts["compiled"] += 1
        compile_pair(self, *args)

    rho = density_from_pure(psi)
    monkeypatch.setattr(criteria.CompiledWitness, "__init__", counting_compile)
    result = maximize_violation(rho, "prop1")
    assert counts["compiled"] == 1
    assert list(result.best_params) == [0.0, 1.0]

    levels = min(psi.space.dims)
    reference = max((srpt_evaluate(rho, *search.schmidt_aligned_prop1(psi, i0, i1), 0)
                     for i0 in range(levels) for i1 in range(i0 + 1, levels)),
                    key=lambda report: report.slack)
    assert result.best_report.slack >= (
        reference.slack - 1e-12 * max(reference.lhs, reference.rhs))


def test_maximize_prop1_rejects_mixed_state():
    with pytest.raises(ValueError):
        maximize_violation(werner(BELL, 0.5), "prop1")


@pytest.mark.parametrize("eps, pure_enough", [(1e-10, True), (8e-10, False), (2e-9, False)])
def test_maximize_prop1_requires_purity_within_1e_9(eps, pure_enough):
    """(1 - eps)|psi><psi| + eps|phi><phi| with phi orthogonal to psi has
    tr rho^2 = 1 - 2 eps + 2 eps^2, which must be at least 1 - 1e-9."""
    phi = schmidt_state((1.0, -1.0), (2, 2))
    rho = mix([(1.0 - eps, density_from_pure(TILTED)), (eps, density_from_pure(phi))])
    if pure_enough:
        assert maximize_violation(rho, "prop1").best_report.violated
    else:
        with pytest.raises(ValueError, match="pure state"):
            maximize_violation(rho, "prop1")


def test_schmidt_aligned_prop1_rejects_a_density_matrix():
    with pytest.raises(TypeError, match="expected StateVector, got DensityMatrix"):
        search.schmidt_aligned_prop1(density_from_pure(TILTED), 0, 1)


def _dense_frame_prop1(psi, i0, i1):
    """The prop1 pair conjugated by the d x d frame kron(conj(U), V^T) from
    the SVD of psi: the reference for schmidt_aligned_prop1."""
    u, _, vt = np.linalg.svd(psi.amplitudes.reshape(psi.space.dims))
    frame = np.kron(u.conj(), vt.T)
    return [frame @ m.matrix @ frame.conj().T for m in prop1_pair(psi.space, i0, i1)]


@given(st.sampled_from([(2, 2), (3, 3), (2, 5), (4, 6), (3, 7)]), st.integers(0, 2**31 - 1))
@settings(max_examples=12, deadline=None)
def test_schmidt_aligned_prop1_matches_the_dense_frame(dims, seed):
    """Each observable is one product term whose factors are exactly
    Hermitian, and its matrix is the dense-frame one within 8 eps per entry."""
    psi = random_pure(dims, seed)
    for i0, i1 in itertools.permutations(range(min(dims)), 2):
        for obs, want in zip(search.schmidt_aligned_prop1(psi, i0, i1),
                             _dense_frame_prop1(psi, i0, i1)):
            assert len(obs.terms.coeffs) == 1 and len(obs.terms.factors) == 2
            assert obs.terms.is_exactly_hermitian()
            assert np.abs(obs.matrix - want).max() <= 8 * np.finfo(float).eps


def test_prop1_search_forms_no_matrix_and_runs_no_eigh(monkeypatch):
    rho = density_from_pure(random_pure((16, 16), 3))
    schmidt_aligned = search.schmidt_aligned_prop1
    used = []

    def recording(psi, i0, i1):
        pair = schmidt_aligned(psi, i0, i1)
        used.extend(pair)
        return pair

    def refuse(*args, **kwargs):
        raise AssertionError("a d x d matrix or eigensystem was formed")

    monkeypatch.setattr(search, "schmidt_aligned_prop1", recording)
    monkeypatch.setattr(TermOperator, "matrix", property(refuse))
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert maximize_violation(rho, "prop1").best_report.violated
    assert len(used) == 2
    for obs in used:
        assert len(obs.terms.coeffs) == 1 and len(obs.terms.factors) == 2


def test_maximize_rejects_unknown_family_and_space():
    rho = density_from_pure(basis_state(HilbertSpace((2, 3)), (0, 0)))
    with pytest.raises(ValueError):
        maximize_violation(rho, "prop2")
    with pytest.raises(ValueError):
        maximize_violation(rho, "does-not-exist")


def test_maximize_prop2_best_candidate_is_admissible():
    """best_params are the Prop2Params of the reported pair, with unit-norm
    Pauli tables and eta = 0."""
    rho = density_from_pure(BELL)
    result = maximize_violation(rho, "prop2", restarts=4, seed=11)
    params = result.best_params.reshape(2, 13)
    a, b = (prop2_observable(Prop2Params.from_array(p)) for p in params)
    assert is_admissible(a).admissible
    assert is_admissible(b).admissible
    assert list(params[:, 12]) == [0.0, 0.0]
    assert np.allclose(np.linalg.norm(_prop2_tables(params).reshape(2, 16), axis=1), 1.0,
                       rtol=0, atol=1e-12)
    assert result.best_report == srpt_evaluate(rho, a, b, 0)


@pytest.mark.parametrize("restarts", [0, -1])
def test_maximize_prop2_rejects_fewer_than_one_restart(restarts):
    with pytest.raises(ValueError, match="restarts"):
        maximize_violation(density_from_pure(BELL), "prop2", restarts=restarts, seed=5)


@pytest.mark.parametrize("family", ["prop2", "prop1"])
def test_maximize_rejects_a_state_vector(family):
    with pytest.raises(TypeError, match="expected DensityMatrix, got StateVector"):
        maximize_violation(BELL, family, restarts=2, seed=5)


@pytest.mark.parametrize("family", ["prop2", "prop1"])
@pytest.mark.parametrize("restarts", [True, 2.5, "2", None])
def test_maximize_rejects_restarts_that_are_not_an_int(family, restarts):
    with pytest.raises(TypeError, match="restarts must be an int"):
        maximize_violation(density_from_pure(BELL), family, restarts=restarts, seed=5)


def test_maximize_takes_a_numpy_integer_restart_count():
    result = maximize_violation(density_from_pure(BELL), "prop2", restarts=np.int64(2), seed=5)
    assert result.restarts_used == 2


def _two_qubit_state(kind, seed):
    if kind == "pure":
        return density_from_pure(random_pure((2, 2), seed))
    if kind == "werner":
        return werner(random_pure((2, 2), seed), (seed % 97) / 96)
    return random_separable((2, 2), 1 + seed % 4, seed)


def _prop2_draw(seed, zero_share=0.5):
    """Draw seed of a seeded sweep: (kind, seed, theta), with 26 entries of
    theta uniform in [-6, 6] and about zero_share of them set to 0."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-6.0, 6.0, 26)
    theta[rng.random(26) < zero_share] = 0.0
    return ["pure", "werner", "separable"][seed % 3], seed, theta.tolist()


def _prop2_reports(kind, seed, theta):
    """The report of the compiled forms at a prop2 point theta, the 26
    Prop2Params values of (A, B), the checked path's report and the pair."""
    rho = _two_qubit_state(kind, seed)
    params = np.array(theta).reshape(2, 13)
    got = search._compile_prop2(rho).report(_prop2_tables(params).reshape(2, 16))
    a, b = (prop2_observable(Prop2Params.from_array(p)) for p in params)
    return got, srpt_evaluate(rho, a, b, 0, check_admissibility=False), a, b


def assert_prop2_fields_agree(got, want, a, b, fields):
    """Each field of got equals want's up to rounding: 1e-12 of max(lhs, rhs)
    plus 16 eps ||A||^2 ||B||^2 in spectral norms.  The second term is the
    rounding that a product of variances or a squared expectation of
    observables this large carries where its exact value is 0, and where the
    relative term alone would demand bit-equal sums; seeded sweeps of 40000
    draws show at most 4 eps ||A||^2 ||B||^2."""
    norms = np.linalg.norm(a.matrix, 2) ** 2 * np.linalg.norm(b.matrix, 2) ** 2
    tol = 1e-12 * max(want.lhs, want.rhs) + 16 * np.finfo(float).eps * norms
    for field in fields:
        assert abs(getattr(got, field) - getattr(want, field)) <= tol, (
            field, getattr(got, field), getattr(want, field), tol)


# sweep draws whose exact anticomm_term or lhs is 0 (30, 1045, 1573), whose
# lhs is a variance product that cancels to 2.3e-12 of itself (3304), or whose
# lhs of 1.1e-14 is read as half of it (2535): each failed the relative bound
_EDGE_DRAWS = [_prop2_draw(seed) for seed in (30, 1045, 1573, 3304, 2535)]


def _with_edge_draws(test):
    for draw in _EDGE_DRAWS:
        test = example(*draw)(test)
    return test


@_with_edge_draws
@given(st.sampled_from(["pure", "werner", "separable"]), st.integers(0, 2**31 - 1),
       st.lists(st.floats(-6.0, 6.0), min_size=26, max_size=26))
def test_compiled_prop2_report_matches_srpt_evaluate(kind, seed, theta):
    # entries up to 6 give vector norms up to 10.4 and |eta| up to 6
    assert_prop2_fields_agree(*_prop2_reports(kind, seed, theta), ["slack"])


@_with_edge_draws
@given(st.sampled_from(["pure", "werner", "separable"]), st.integers(0, 2**31 - 1),
       st.lists(st.floats(-6.0, 6.0), min_size=26, max_size=26))
def test_compiled_prop2_fields_match_srpt_evaluate(kind, seed, theta):
    """Every term of the report, not only the slack, agrees with the checked
    path, and the commutator expectation of the quadratic forms is purely
    imaginary, so the real-part guard of _build_report can never fire."""
    seen = []

    def recording_build_report(expectations):
        seen.append(expectations)
        return criteria._build_report(expectations)

    with mock.patch.object(search, "_build_report", recording_build_report):
        reports = _prop2_reports(kind, seed, theta)
    assert_prop2_fields_agree(*reports, ["lhs", "comm_term", "anticomm_term", "rhs"])
    (comm_expect,) = [e[4] for e in seen]
    assert comm_expect.real == 0.0


@pytest.mark.parametrize("field", ["lhs", "comm_term", "anticomm_term", "rhs", "slack"])
def test_prop2_comparison_catches_a_relative_error_of_1e_9_in_one_field(field):
    """A compiled report off by 1e-9 of one field fails the comparison, on
    draws whose every field is far above the bound's rounding term."""

    def skewed_build_report(expectations):
        report = criteria._build_report(expectations)
        return dataclasses.replace(report, **{field: getattr(report, field) * (1 + 1e-9)})

    for seed in (3000, 3001, 3002):
        draw = _prop2_draw(seed, zero_share=0.0)
        assert_prop2_fields_agree(*_prop2_reports(*draw), [field])
        with mock.patch.object(search, "_build_report", skewed_build_report):
            with pytest.raises(AssertionError):
                assert_prop2_fields_agree(*_prop2_reports(*draw), [field])


def test_prop2_search_compiles_one_witness_whatever_the_evaluation_count(monkeypatch):
    """The sweeps are scored by the forms, compiled once per search; the only
    CompiledWitness is the checked evaluation of the best point."""
    compile_pair, compile_forms, sweep = (
        criteria.CompiledWitness.__init__, search._compile_prop2, search._prop2_sweep)
    counts = {"compiled": 0, "forms": 0, "sweeps": 0}

    def counting_compile(self, *args):
        counts["compiled"] += 1
        compile_pair(self, *args)

    def counting_forms(rho):
        counts["forms"] += 1
        return compile_forms(rho)

    def counting_sweep(*args):
        counts["sweeps"] += 1
        return sweep(*args)

    monkeypatch.setattr(criteria.CompiledWitness, "__init__", counting_compile)
    monkeypatch.setattr(search, "_compile_prop2", counting_forms)
    monkeypatch.setattr(search, "_prop2_sweep", counting_sweep)
    rho = werner(BELL, 0.9)
    sweeps = []
    for max_sweeps in (1, 50):
        monkeypatch.setattr(search, "PROP2_MAX_SWEEPS", max_sweeps)
        counts.update(compiled=0, forms=0, sweeps=0)
        maximize_violation(rho, "prop2", restarts=1, seed=5)
        assert (counts["compiled"], counts["forms"]) == (1, 1)
        sweeps.append(counts["sweeps"])
    assert sweeps[0] == 1 < sweeps[1]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_maximize_prop2_detects_bell_werner_at_045(seed):
    result = maximize_violation(werner(BELL, 0.45), "prop2", restarts=8, seed=seed)
    assert result.best_report.violated


@pytest.mark.parametrize("kind", ["pure", "werner", "separable"])
def test_prop2_sweeps_never_lower_the_normalised_slack(kind):
    """Each block is an exact Rayleigh-quotient maximum, so the slack of the
    unit-norm tables, read from the forms' report, never falls from sweep to
    sweep, and each sweep returns it."""
    forms = search._compile_prop2(_two_qubit_state(kind, 11))
    for start in range(3):
        params = np.random.default_rng(start).uniform(-2.0, 2.0, 26).reshape(2, 13)
        previous = -math.inf
        for _ in range(30):
            params, value = search._prop2_sweep(forms, params)
            tables = _prop2_tables(params).reshape(2, 16)
            assert np.allclose(np.linalg.norm(tables, axis=1), 1.0, rtol=0, atol=1e-12)
            slack = forms.report(tables).slack
            assert abs(value - slack) <= 1e-12
            assert slack >= previous - 1e-12
            previous = slack


@given(st.sampled_from(["pure", "werner", "separable"]), st.integers(0, 2**31 - 1),
       st.lists(st.floats(-6.0, 6.0), min_size=26, max_size=26), st.floats(-6.0, 6.0))
@settings(max_examples=30)
def test_prop2_forms_slack_is_unchanged_by_adding_the_identity(kind, seed, theta, eta):
    """A -> A + eta 1 moves neither the report's slack nor the form of either
    observable, whose identity entry is a null direction."""
    forms = search._compile_prop2(_two_qubit_state(kind, seed))
    params = np.array(theta).reshape(2, 13)
    shifted = params.copy()
    shifted[0, 12] += eta
    a, b = (prop2_observable(Prop2Params.from_array(p)) for p in shifted)
    tables, shifted_tables = (_prop2_tables(p).reshape(2, 16) for p in (params, shifted))
    assert_prop2_fields_agree(forms.report(shifted_tables), forms.report(tables), a, b, ["slack"])
    for other in tables:
        q = forms.quadratic(other)
        assert np.max(np.abs(q[0])) <= 16 * np.finfo(float).eps * np.max(np.abs(q))


@pytest.mark.parametrize("x", [0.0, 0.3, 1 / 3])
def test_maximize_prop2_never_violated_at_or_below_the_ppt_threshold(x):
    for seed in range(3):
        result = maximize_violation(werner(BELL, x), "prop2", restarts=8, seed=seed)
        assert not result.best_report.violated


@given(st.integers(1, 4), st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
@settings(max_examples=10)
def test_maximize_prop2_never_violated_on_separable_states(terms, state_seed, seed):
    rho = random_separable((2, 2), terms, state_seed)
    assert not maximize_violation(rho, "prop2", restarts=2, seed=seed).best_report.violated


def _random_mixed(rank, seed):
    """G G^dagger / tr for a 4 x rank complex Gaussian G: a mixed (2, 2) state of that rank."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ g.conj().T
    return DensityMatrix(HilbertSpace((2, 2)), rho / np.trace(rho).real)


@given(st.integers(1, 4), st.integers(0, 2**31 - 1))
@settings(max_examples=15)
def test_prop2_violation_implies_npt(rank, seed):
    """SRPT is contained in NPT: a violated prop2 search certifies a state that
    the PPT test detects too."""
    rho = _random_mixed(rank, seed)
    if maximize_violation(rho, "prop2", restarts=2, seed=seed).best_report.violated:
        assert ppt_min_eigenvalue(rho) < -PSD_TOL


@pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
def test_horodecki_ppt_entangled_state_is_ppt_and_never_violated(a):
    """P. Horodecki, Phys. Lett. A 232, 333 (1997): entangled for 0 < a < 1
    and PPT, so no admissible pair may read it as violated."""
    rho = horodecki_3x3(a)
    assert ppt_min_eigenvalue(rho) >= -PSD_TOL
    for i0, i1 in itertools.permutations(range(3), 2):
        report = srpt_evaluate(rho, *prop1_pair(rho.space, i0, i1), 0)
        assert not report.violated, (i0, i1, report)


def test_importing_the_package_loads_no_scipy():
    code = ("import sys, srpt, srpt.cli, srpt.search; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "hasattr(srpt.search, 'minimize'))")
    src = str(Path(search.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["[]", "False"]


def test_prop2_search_raises_when_the_checked_verdict_disagrees(monkeypatch):
    # the checked evaluation now sees the maximally mixed state, which no pair detects
    evaluate = search.srpt_evaluate
    monkeypatch.setattr(search, "srpt_evaluate",
                        lambda rho, *args: evaluate(werner(BELL, 0.0), *args))
    with pytest.raises(ArithmeticError):
        maximize_violation(density_from_pure(BELL), "prop2", restarts=2, seed=5)


# --- Werner formula audit --------------------------------------------------------------


def test_werner_audit_bell_point():
    audit = werner_phi_threshold(2**-0.5, 2**-0.5, 0.0)
    assert audit.result.x_critical == pytest.approx(0.5, abs=1e-6)
    assert audit.linear_formula == pytest.approx(0.39038820, abs=1e-6)
    assert audit.squared_formula == pytest.approx(0.5, abs=1e-12)
    assert not audit.linear_agrees
    assert audit.squared_agrees


def test_werner_audit_tilted_state():
    audit = werner_phi_threshold(0.8, 0.6, 0.0)
    assert audit.squared_agrees
    assert not audit.linear_agrees
    assert audit.result.x_critical == pytest.approx(audit.squared_formula, abs=1e-4)


@pytest.mark.parametrize("seed", range(5))
def test_werner_audit_complex_amplitudes_match_squared_formula(seed):
    # the witness sigma_x x (cos phi sigma_x + sin phi sigma_y) pairs with
    # r = Re(e^{-i phi} a* b); the opposite phase sign fails on these draws
    rng = np.random.default_rng(2024 + seed)
    amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a, b = amps / np.linalg.norm(amps)
    audit = werner_phi_threshold(a, b, float(rng.uniform(-np.pi, np.pi)))
    assert audit.squared_agrees


def test_werner_audit_product_state_has_no_crossing():
    with pytest.raises(NoCrossingError):
        werner_phi_threshold(1.0, 0.0, 0.0)


def test_werner_audit_rejects_unnormalized():
    with pytest.raises(ValueError):
        werner_phi_threshold(1.0, 1.0, 0.0)
