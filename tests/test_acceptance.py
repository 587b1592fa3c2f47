"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.

Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np

from srpt.criteria import duan_criterion, is_admissible, sr_uncertainty, srpt_evaluate
from srpt.hilbert import (
    PAULI_X,
    PAULI_Y,
    DensityMatrix,
    HilbertSpace,
    Observable,
    anticommutator,
    density_from_pure,
    kron_all,
    partial_transpose_matrix,
)
from srpt.search import ppt_threshold_scan, threshold_scan, werner_phi_threshold
from srpt.states import (
    acin_state,
    cat_state,
    ghz,
    multiphoton_state,
    oscillator2d_eigenstates,
    oscillator3d_eigenstates,
    random_separable,
    schmidt_state,
    werner,
)
from srpt.witnesses import (
    NotRepresentable,
    Prop2Params,
    cat_quadratures,
    multiphoton_pair,
    oscillator2d_pair,
    oscillator3d_pair,
    prop1_pair,
    prop2_check,
    prop2_observable,
    prop3_triple,
    werner_bipartite_pair,
    werner_multipartite_pair,
)


def _verdict(number: int, label: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number:02d}: {label}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def _rand_herm(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def _rand_prop2(rng):
    return Prop2Params(rng.standard_normal(3), rng.standard_normal(3),
                       rng.standard_normal(3), rng.standard_normal(3),
                       float(rng.standard_normal()))


def _embed_two_qubit(mat4: np.ndarray, positions: tuple[int, int]) -> np.ndarray:
    """Lift a two-qubit operator to three qubits, identity on the third."""
    other = ({0, 1, 2} - set(positions)).pop()
    order = [positions[0], positions[1], other]
    perm = [order.index(target) for target in range(3)]
    t = np.kron(mat4, np.eye(2, dtype=complex)).reshape((2,) * 6)
    t = t.transpose(perm + [p + 3 for p in perm])
    return t.reshape(8, 8)


def test_criterion_01_bipartite_werner_thresholds():
    start = time.perf_counter()
    failures = []
    bell = schmidt_state((1.0, 1.0), (2, 2))
    a, b = werner_bipartite_pair(0.0)
    srpt_res = threshold_scan(lambda x: werner(bell, x), a, b, tol=1e-6)
    ppt_res = ppt_threshold_scan(lambda x: werner(bell, x), tol=1e-6)
    if abs(srpt_res.x_critical - 0.5) > 1e-6:
        failures.append(f"srpt threshold {srpt_res.x_critical}")
    if abs(ppt_res.x_critical - 1 / 3) > 1e-6:
        failures.append(f"ppt threshold {ppt_res.x_critical}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _verdict(1, f"Bell Werner thresholds 1/2 and 1/3 ({elapsed:.2f}s)", failures)


def test_criterion_02_multipartite_werner_thresholds():
    start = time.perf_counter()
    failures = []
    for n in (3, 4, 5):
        a, b = werner_multipartite_pair(n)
        srpt_res = threshold_scan(lambda x: werner(ghz(n), x), a, b, tol=1e-6)
        ppt_res = ppt_threshold_scan(lambda x: werner(ghz(n), x), tol=1e-6)
        if abs(srpt_res.x_critical - 1 / (1 + 2 ** (n - 2))) > 1e-6:
            failures.append(f"N={n} srpt {srpt_res.x_critical}")
        if abs(ppt_res.x_critical - 1 / (1 + 2 ** (n - 1))) > 1e-6:
            failures.append(f"N={n} ppt {ppt_res.x_critical}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s, budget 5s")
    _verdict(2, f"GHZ_N Werner thresholds, N=3,4,5 ({elapsed:.2f}s)", failures)


def test_criterion_03_prop1_reproduction():
    failures = []
    rng = np.random.default_rng(101)
    for trial in range(100):
        d1, d2 = rng.integers(2, 5, size=2)
        r = min(d1, d2)
        coeffs = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        psi = schmidt_state(coeffs, (d1, d2))
        coeffs = coeffs / np.linalg.norm(coeffs)
        i0, i1 = sorted(np.argsort(np.abs(coeffs))[-2:])
        a, b = prop1_pair(psi.space, int(i0), int(i1))
        rep = srpt_evaluate(density_from_pure(psi), a, b)
        expected = abs(coeffs[i0]) ** 2 * abs(coeffs[i1]) ** 2
        if rep.lhs > 1e-12:
            failures.append(f"trial {trial}: lhs {rep.lhs}")
        if abs(rep.rhs - expected) > 1e-10:
            failures.append(f"trial {trial}: rhs {rep.rhs} vs {expected}")
    _verdict(3, "projector/flip pair reproduces |c_i0 c_i1|^2 on 100 Schmidt states",
             failures)


def test_criterion_04_separability_soundness():
    failures = []
    rng = np.random.default_rng(202)
    spaces = [(2, 2), (2, 3), (2, 2, 2)]
    for trial in range(1000):
        dims = spaces[trial % 3]
        rho = random_separable(dims, terms=1 + trial % 8, seed=trial)
        if dims == (2, 2) and trial % 2:
            a = prop2_observable(_rand_prop2(rng))
            b = prop2_observable(_rand_prop2(rng))
        else:
            a = Observable(rho.space, kron_all([_rand_herm(rng, d) for d in dims]))
            b = Observable(rho.space, kron_all([_rand_herm(rng, d) for d in dims]))
        rep = srpt_evaluate(rho, a, b)  # admissibility checked inside
        if rep.slack > 1e-9:
            failures.append(f"trial {trial}: slack {rep.slack}")
    _verdict(4, "no false positive on 1000 random separable states", failures)


def test_criterion_05_inadmissible_counterexample():
    failures = []
    space = HilbertSpace((2, 2))
    zero = density_from_pure(schmidt_state((1.0, 0.0), (2, 2)))
    a = Observable(space, np.kron(PAULI_X, PAULI_X))
    b = Observable(space, np.kron(PAULI_X, PAULI_Y) + np.kron(PAULI_Y, PAULI_X))
    rep = srpt_evaluate(zero, a, b, check_admissibility=False)
    if not rep.violated:
        failures.append("unchecked evaluation did not report a violation")
    residual = is_admissible(b).residual
    if residual <= 0.1:
        failures.append(f"residual {residual} not > 0.1")
    _verdict(5, "unchecked misuse violates on |00> and is flagged inadmissible",
             failures)


def test_criterion_06_prop2_equivalence():
    failures = []
    rng = np.random.default_rng(303)
    space = HilbertSpace((2, 2))
    for trial in range(500):
        obs = Observable(space, _rand_herm(rng, 4))
        admissible = is_admissible(obs, adm_tol=1e-10).admissible
        try:
            prop2_check(obs)
            representable = True
        except NotRepresentable:
            representable = False
        if admissible != representable:
            failures.append(f"hermitian trial {trial}: {admissible} vs {representable}")
    for trial in range(500):
        residual = is_admissible(prop2_observable(_rand_prop2(rng))).residual
        if residual > 1e-12:
            failures.append(f"params trial {trial}: residual {residual}")
    _verdict(6, "admissibility = representability on 1000 two-qubit draws", failures)


def test_criterion_07_prop3_reproduction():
    failures = []
    rng = np.random.default_rng(404)
    triples = {1: 2, 2: 3, 3: 4}  # selector -> detected coefficient index
    for trial in range(100):
        lam = rng.uniform(0.2, 1.0, size=5)
        phase = rng.uniform(0, 2 * math.pi)
        psi = acin_state(*lam, phase=phase)
        norm = np.linalg.norm(lam)
        rho = density_from_pure(psi)
        for which, idx in triples.items():
            a, b = prop3_triple(which)
            rep = srpt_evaluate(rho, a, b)
            expected = (lam[0] * lam[idx] / norm**2) ** 2
            if rep.lhs > 1e-12:
                failures.append(f"trial {trial} which={which}: lhs {rep.lhs}")
            if abs(rep.rhs - expected) > 1e-10:
                failures.append(f"trial {trial} which={which}: rhs {rep.rhs}")
    for trial in range(50):
        lam = rng.uniform(0.2, 1.0, size=4)
        biseparable = density_from_pure(acin_state(0.0, *lam))
        product = density_from_pure(
            acin_state(lam[0], lam[1], 0.0, 0.0, 0.0, phase=rng.uniform(0, 6)))
        for which in (1, 2, 3):
            a, b = prop3_triple(which)
            if srpt_evaluate(biseparable, a, b).violated:
                failures.append(f"biseparable trial {trial} which={which}")
            if srpt_evaluate(product, a, b).violated:
                failures.append(f"product trial {trial} which={which}")
    _verdict(7, "three-qubit triples give (l0 l_i)^2 and miss the separable families",
             failures)


def test_criterion_08_ghz_bipartite_no_detection():
    failures = []
    rng = np.random.default_rng(505)
    space = HilbertSpace((2, 2, 2))
    supports = [(0, 1), (0, 2), (1, 2)]
    for trial in range(200):
        theta = rng.uniform(0.1, math.pi / 2 - 0.1)
        ghz_like = density_from_pure(
            acin_state(math.cos(theta), 0.0, 0.0, 0.0, math.sin(theta)))
        support = supports[rng.integers(3)]

        def draw():
            if 0 in support:
                mat4 = prop2_observable(_rand_prop2(rng)).matrix
            else:
                mat4 = _rand_herm(rng, 4)
            return Observable(space, _embed_two_qubit(mat4, support))

        a, b = draw(), draw()
        if not (is_admissible(a).admissible and is_admissible(b).admissible):
            failures.append(f"trial {trial}: drew an inadmissible witness")
            continue
        rep = srpt_evaluate(ghz_like, a, b)
        if rep.slack > 1e-9:
            failures.append(f"trial {trial}: slack {rep.slack}")
    _verdict(8, "two-qubit-supported pairs never detect GHZ-type states (200 trials)",
             failures)


def test_criterion_09_oscillator_detection():
    start = time.perf_counter()
    failures = []
    for n in range(1, 5):
        a, b = oscillator2d_pair(n)
        for state in oscillator2d_eigenstates(n):
            rep = srpt_evaluate(density_from_pure(state.vector), a, b)
            expected = abs(state.coeffs[0]) ** 2 * abs(state.coeffs[n]) ** 2
            if not rep.violated or rep.rhs <= 1e-6:
                failures.append(f"2D n={n} M={state.quantum_numbers}: not detected")
            if abs(rep.rhs - expected) > 1e-10:
                failures.append(f"2D n={n} M={state.quantum_numbers}: rhs {rep.rhs}")
    (ground,) = oscillator2d_eigenstates(0)
    a01, b01 = prop1_pair(ground.vector.space, 0, 1)
    if srpt_evaluate(density_from_pure(ground.vector), a01, b01).violated:
        failures.append("2D n=0 ground state flagged as entangled")

    for state in oscillator3d_eigenstates(1):
        _, m = state.quantum_numbers
        a, b = oscillator3d_pair(1, 1)
        rep = srpt_evaluate(density_from_pure(state.vector), a, b)
        if m != 0 and not rep.violated:
            failures.append(f"3D (0,1,{m}) not detected")
        if m == 0 and rep.violated:
            failures.append("3D (0,1,0) product state flagged")
    for state in oscillator3d_eigenstates(2):
        _, m = state.quantum_numbers
        a, b = oscillator3d_pair(2, m)
        if not srpt_evaluate(density_from_pure(state.vector), a, b).violated:
            failures.append(f"3D n=2 (l,m)={state.quantum_numbers} not detected")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s, budget 5s")
    _verdict(9, f"oscillator eigenstates detected by their witnesses ({elapsed:.2f}s)",
             failures)


def test_criterion_10_cat_state():
    start = time.perf_counter()
    failures = []
    alpha = beta = 1.0
    a1, a2, b1, b2 = -beta, beta, alpha, -alpha

    reports = {}
    for trunc in (24, 32):
        rho = density_from_pure(cat_state(alpha, beta, trunc))
        a, b = cat_quadratures(a1, a2, b1, b2, trunc)
        reports[trunc] = srpt_evaluate(rho, a, b, check_admissibility=(trunc == 32))

    rep = reports[32]
    norm_sq = 2.0 + 2.0 * math.exp(-2.0 * alpha**2 - 2.0 * beta**2)
    var_a = a1**2 + b1**2 + 8.0 * (a1 * alpha + b1 * beta) ** 2 / norm_sq
    var_b = a2**2 + b2**2 - 4.0 * (a2 * alpha - b2 * beta) ** 2 / (
        1.0 + math.exp(2.0 * alpha**2 + 2.0 * beta**2))
    if not rep.violated:
        failures.append("no violation at the designated quadratures")
    if abs(rep.lhs - var_a * var_b) > 1e-6:
        failures.append(f"lhs {rep.lhs} vs closed form {var_a * var_b}")
    if abs(rep.comm_term - (a1 * a2 + b1 * b2) ** 2) > 1e-6:
        failures.append(f"comm term {rep.comm_term}")
    if abs(rep.anticomm_term) > 1e-6:
        failures.append(f"anticomm term {rep.anticomm_term}")
    for field in ("lhs", "rhs", "slack"):
        delta = abs(getattr(reports[24], field) - getattr(reports[32], field))
        if delta >= 1e-6:
            failures.append(f"truncation drift in {field}: {delta}")

    rho32 = density_from_pure(cat_state(alpha, beta, 32))
    for a_param in np.linspace(0.25, 4.0, 31):
        if duan_criterion(rho32, [float(a_param)])[0].violated:
            failures.append(f"Duan violated at a_param {a_param}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f}s, budget 10s")
    _verdict(10, f"cat state: SRPT violation, closed forms, Duan never ({elapsed:.2f}s)",
             failures)


def test_criterion_11_multiphoton():
    failures = []
    rng = np.random.default_rng(606)
    a, b = multiphoton_pair()

    anti = partial_transpose_matrix(anticommutator(a, b).matrix, (3, 3), 0)
    plus = np.zeros(9, dtype=complex)
    minus = np.zeros(9, dtype=complex)
    plus[2] = plus[6] = 1 / math.sqrt(2)
    minus[2], minus[6] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    target = np.outer(plus, plus) - np.outer(minus, minus)
    if np.max(np.abs(anti - target)) > 1e-12:
        failures.append("transposed anticommutator is not the projector difference")

    trials = 0
    while trials < 50:
        alpha, beta, gamma = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        if abs((np.conj(alpha) * gamma).real) < 1e-3:
            continue
        trials += 1
        psi = multiphoton_state(alpha, beta, gamma)
        norm_sq = abs(alpha) ** 2 + abs(beta) ** 2 + abs(gamma) ** 2
        expected = ((np.conj(alpha) * gamma).real / norm_sq) ** 2
        rep = srpt_evaluate(density_from_pure(psi), a, b)
        if rep.lhs > 1e-12:
            failures.append(f"trial {trials}: lhs {rep.lhs}")
        if abs(rep.anticomm_term - expected) > 1e-10:
            failures.append(f"trial {trials}: anticomm {rep.anticomm_term} vs {expected}")
    _verdict(11, "two-projector witness reproduces Re(alpha* gamma)^2 (50 trials)",
             failures)


def test_criterion_12_werner_formula_audit():
    failures = []
    audit = werner_phi_threshold(2**-0.5, 2**-0.5, 0.0, tol=1e-6)
    if abs(audit.result.x_critical - 0.5) > 1e-6:
        failures.append(f"numeric threshold {audit.result.x_critical}")
    if abs(audit.linear_formula - 0.390388) > 1e-3:
        failures.append(f"linear formula value {audit.linear_formula}")
    if audit.linear_agrees:
        failures.append("linear reading wrongly marked as agreeing")
    if not audit.squared_agrees:
        failures.append("squared reading should agree with the scan")
    _verdict(12, "formula discrepancy surfaced: linear reading ~0.390 vs scanned 0.5",
             failures)


def test_criterion_13_uncertainty_soundness():
    failures = []
    rng = np.random.default_rng(707)
    for trial in range(1000):
        dims = (2, 2) if trial % 2 else (2, 3)
        d = int(np.prod(dims))
        space = HilbertSpace(dims)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = DensityMatrix(space, (g @ g.conj().T) / np.trace(g @ g.conj().T).real)
        a = Observable(space, _rand_herm(rng, d))
        b = Observable(space, _rand_herm(rng, d))
        rep = sr_uncertainty(rho, a, b)
        if rep.slack > 1e-9:
            failures.append(f"trial {trial}: slack {rep.slack}")
        if rep.comm_term > rep.rhs + 1e-15:
            failures.append(f"trial {trial}: Heisenberg term exceeds full bound")
    _verdict(13, "Schrodinger-Robertson never violated on 1000 random triples",
             failures)
