import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srpt.criteria import ppt_min_eigenvalue, srpt_evaluate
from srpt.hilbert import (
    HilbertSpace,
    annihilation,
    density_from_pure,
    kron_all,
)
from srpt import hilbert, states
from srpt.search import maximize_violation
from srpt.states import (
    _hop_generators,
    acin_state,
    cat_state,
    eigenstate_table_csv,
    ghz,
    multiphoton_state,
    oscillator2d_eigenstates,
    oscillator3d_eigenstates,
    random_pure,
    random_separable,
    schmidt_state,
    werner,
)
from srpt.witnesses import (
    cat_quadratures,
    oscillator2d_pair,
    prop1_pair,
    werner_multipartite_pair,
)

from helpers import basis_state


# --- schmidt / acin / ghz / werner ------------------------------------------------


def test_schmidt_bell():
    psi = schmidt_state((1 / math.sqrt(2), 1 / math.sqrt(2)), (2, 2))
    assert np.allclose(psi.amplitudes, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])


def test_schmidt_product_edge():
    psi = schmidt_state((1.0, 0.0), (2, 2))
    assert np.allclose(psi.amplitudes, [1, 0, 0, 0])


def test_schmidt_complex_detection_value():
    psi = schmidt_state((0.6, 0.8j), (2, 2))
    a, b = prop1_pair(HilbertSpace((2, 2)), 0, 1)
    rep = srpt_evaluate(density_from_pure(psi), a, b)
    assert rep.rhs == pytest.approx(0.2304, abs=1e-12)


def test_schmidt_rejects_zero_and_overflow():
    with pytest.raises(ValueError):
        schmidt_state((0.0, 0.0), (2, 2))
    with pytest.raises(ValueError):
        schmidt_state((1.0, 1.0, 1.0), (2, 2))


def test_schmidt_dims_go_through_the_space_check():
    for dims in ((2.7, 2), (2.0, 2), (2, 2, 2)):
        with pytest.raises(ValueError):
            schmidt_state((1.0, 1.0), dims)
    psi = schmidt_state((1.0, 1.0), (np.int64(2), 2))
    assert psi.space == HilbertSpace((2, 2))
    assert np.array_equal(psi.amplitudes, schmidt_state((1.0, 1.0), (2, 2)).amplitudes)


def test_acin_ghz_case():
    psi = acin_state(1.0, 0, 0, 0, 1.0)
    assert psi.amplitudes[0] == pytest.approx(1 / math.sqrt(2))
    assert psi.amplitudes[7] == pytest.approx(1 / math.sqrt(2))
    assert np.linalg.norm(psi.amplitudes[1:7]) == 0.0


def test_acin_biseparable_support():
    psi = acin_state(0.0, 0.5, 0.5, 0.5, 0.5)
    # first qubit is |1>: support only on indices 4..7
    assert np.linalg.norm(psi.amplitudes[:4]) == 0.0


def test_acin_product_case():
    psi = acin_state(0.7, 0, 0, 0, 0)
    assert psi.amplitudes[0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        acin_state(0, 0, 0, 0, 0)


def test_acin_phase_on_lambda1():
    psi = acin_state(1.0, 1.0, 0, 0, 0, phase=math.pi / 2)
    assert psi.amplitudes[4] == pytest.approx(1j / math.sqrt(2))


def test_ghz_and_werner_edges():
    bell = schmidt_state((1.0, 1.0), (2, 2))
    assert np.allclose(werner(bell, 0.0).matrix, np.eye(4) / 4)
    assert np.allclose(werner(bell, 1.0).matrix,
                       np.outer(bell.amplitudes, bell.amplitudes.conj()))
    with pytest.raises(ValueError):
        werner(bell, 1.2)
    with pytest.raises(ValueError):
        ghz(1)
    assert np.array_equal(ghz(3).amplitudes, werner(ghz(3), 1.0).matrix[:, 0] * math.sqrt(2))
    with pytest.raises(TypeError):
        werner(3, 0.5)


def test_werner_ghz3_threshold_brackets():
    a, b = werner_multipartite_pair(3)
    eps = 1e-3
    below = srpt_evaluate(werner(ghz(3), 1 / 3 - eps), a, b)
    above = srpt_evaluate(werner(ghz(3), 1 / 3 + eps), a, b)
    assert not below.violated
    assert above.violated
    assert ppt_min_eigenvalue(werner(ghz(3), 1 / 3 - eps)) < -1e-10  # PPT already detects


# --- 2D oscillator ------------------------------------------------------------------


def test_osc2d_n0_single_product_state():
    (state,) = oscillator2d_eigenstates(0)
    assert state.quantum_numbers == (0,)
    assert np.array_equal(state.vector.amplitudes,
                          basis_state(state.vector.space, (0, 0)).amplitudes)


def test_osc2d_n1_circular_states():
    states = {s.quantum_numbers[0]: s for s in oscillator2d_eigenstates(1)}
    assert set(states) == {-1, 1}
    space = HilbertSpace((2, 2))
    x1, y1 = (basis_state(space, levels).amplitudes for levels in ((1, 0), (0, 1)))
    plus = (x1 + 1j * y1) / math.sqrt(2)
    minus = (x1 - 1j * y1) / math.sqrt(2)
    # equality up to the fixed global phase
    assert abs(np.vdot(plus, states[1].vector.amplitudes)) == pytest.approx(1.0)
    assert abs(np.vdot(minus, states[-1].vector.amplitudes)) == pytest.approx(1.0)


def test_osc2d_n2_all_detected():
    states = oscillator2d_eigenstates(2)
    assert [s.quantum_numbers[0] for s in states] == [-2, 0, 2]
    a, b = oscillator2d_pair(2)
    for s in states:
        assert srpt_evaluate(density_from_pure(s.vector), a, b).violated


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_osc2d_edge_coefficients_nonzero(n):
    for s in oscillator2d_eigenstates(n):
        assert abs(s.coeffs[0]) > 1e-9
        assert abs(s.coeffs[n]) > 1e-9


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_osc2d_orthonormal_complete(n):
    states = oscillator2d_eigenstates(n)
    assert len(states) == n + 1
    gram = np.array([[np.vdot(u.coeffs, v.coeffs) for v in states] for u in states])
    assert np.max(np.abs(gram - np.eye(n + 1))) <= 1e-10


# --- 3D oscillator ------------------------------------------------------------------


def test_osc3d_n0():
    (state,) = oscillator3d_eigenstates(0)
    assert state.quantum_numbers == (0, 0)


def test_osc3d_n1_labels_and_product_state():
    states = {s.quantum_numbers: s for s in oscillator3d_eigenstates(1)}
    assert set(states) == {(1, -1), (1, 0), (1, 1)}
    m0 = states[(1, 0)]
    # the m=0 member is the bare z-excitation |0,0,1>, a product state
    assert np.array_equal(m0.vector.amplitudes,
                          basis_state(m0.vector.space, (0, 0, 1)).amplitudes)


def test_osc3d_n2_labels_and_coefficients():
    states = {s.quantum_numbers: s for s in oscillator3d_eigenstates(2)}
    assert set(states) == {(0, 0), (2, -2), (2, -1), (2, 0), (2, 1), (2, 2)}
    top = states[(2, 0)]
    assert abs(top.coeffs[2, 0]) > 1e-9
    assert abs(top.coeffs[2, 2]) > 1e-9


def full_space_restriction(n, n_modes):
    """L_z (and L_x, L_y, L^2 for three modes) built on the (n+2)^n_modes
    product space from truncated mode operators, squared there, and then
    restricted to the fixed-n rows: a reference for the fixed-n blocks."""
    dim = n + 2
    low = annihilation(dim)
    eye = np.eye(dim, dtype=complex)

    def two_mode(i, j):
        ops_a, ops_b = [eye] * n_modes, [eye] * n_modes
        ops_a[i], ops_a[j] = low, low.conj().T
        ops_b[i], ops_b[j] = low.conj().T, low
        return 1j * (kron_all(ops_a) - kron_all(ops_b))

    if n_modes == 2:
        rows = [i * dim + (n - i) for i in range(n + 1)]
        ops = [two_mode(0, 1)]
    else:
        rows = [j * dim * dim + (i - j) * dim + (n - i)
                for i in range(n + 1) for j in range(i + 1)]
        ops = [two_mode(1, 2), two_mode(2, 0), two_mode(0, 1)]
        ops.append(sum(op @ op for op in ops))
    return [op[np.ix_(rows, rows)] for op in ops]


@pytest.mark.parametrize("n", range(13))
def test_osc2d_fixed_n_block_equals_the_full_space_restriction(n):
    (block,) = _hop_generators([(i, n - i) for i in range(n + 1)], [(0, 1)])
    (reference,) = full_space_restriction(n, 2)
    assert block.tobytes() == reference.tobytes()


@pytest.mark.parametrize("n", range(9))
def test_osc3d_fixed_n_blocks_match_the_full_space_restriction(n):
    occupations = [(j, i - j, n - i) for i in range(n + 1) for j in range(i + 1)]
    blocks = _hop_generators(occupations, [(1, 2), (2, 0), (0, 1)])
    *generators, l_sq = full_space_restriction(n, 3)
    for block, reference in zip(blocks, generators):
        assert block.tobytes() == reference.tobytes()
    block_sq = sum(block @ block for block in blocks)
    if n <= 4:
        assert block_sq.tobytes() == l_sq.tobytes()
    # only the order in which the products are summed differs
    assert np.max(np.abs(block_sq - l_sq)) <= 1e-13 * np.max(np.abs(l_sq))


@pytest.mark.parametrize("n", range(9))
def test_osc3d_orthonormal_complete(n):
    states = oscillator3d_eigenstates(n)
    assert len(states) == (n + 1) * (n + 2) // 2
    flat = [s.coeffs[np.triu_indices(n + 1)[::-1]] for s in states]  # lower triangle i>=j
    gram = np.array([[np.vdot(u, v) for v in flat] for u in flat])
    assert np.max(np.abs(gram - np.eye(len(states)))) <= 1e-10


@pytest.mark.parametrize("n", range(1, 7))
def test_osc3d_matches_polynomial_angular_momentum(n):
    # independent oracle: the expanded quartic polynomial for L^2 with
    # number-operator ordering, restricted to the fixed-n subspace
    dim = n + 2
    low = annihilation(dim)
    raise_ = low.conj().T
    eye = np.eye(dim, dtype=complex)
    num = raise_ @ low

    def emb(op_by_mode):
        return kron_all(op_by_mode)

    a2, ad2 = low @ low, raise_ @ raise_
    l_sq = -(
        emb([a2, ad2, eye]) + emb([ad2, a2, eye])
        + emb([a2, eye, ad2]) + emb([ad2, eye, a2])
        + emb([eye, a2, ad2]) + emb([eye, ad2, a2])
    ) + 2.0 * (
        emb([num, num, eye]) + emb([num, eye, num]) + emb([eye, num, num])
        + emb([num, eye, eye]) + emb([eye, num, eye]) + emb([eye, eye, num])
    )

    labels = [(i, j) for i in range(n + 1) for j in range(i + 1)]
    members = [j * dim * dim + (i - j) * dim + (n - i) for (i, j) in labels]
    block = l_sq[np.ix_(members, members)]
    for s in oscillator3d_eigenstates(n):
        l, _ = s.quantum_numbers
        flat = np.array([s.coeffs[i, j] for (i, j) in labels])
        assert np.linalg.norm(block @ flat - l * (l + 1) * flat) <= 1e-9


# --- cat states ----------------------------------------------------------------------


def test_cat_zero_amplitude_is_vacuum():
    psi = cat_state(0.0, 0.0, 8)
    assert psi.amplitudes[0] == pytest.approx(1.0)
    assert np.linalg.norm(psi.amplitudes[1:]) == pytest.approx(0.0, abs=1e-15)


def test_cat_norm_matches_analytic_formula():
    for alpha, beta, trunc in ((1.0, 1.0, 24), (0.5, 1.5, 24), (2.0, 2.0, 32)):
        plus = cat_state(alpha, beta, trunc)  # construction cross-checks the norm
        assert np.linalg.norm(plus.amplitudes) == pytest.approx(1.0, abs=1e-12)


def _coherent_reference(alpha, truncation):
    """The recursion from the vacuum, c_0 = exp(-alpha^2/2), which underflows
    from alpha of about 38.6 on."""
    coeffs = np.zeros(truncation, dtype=complex)
    coeffs[0] = math.exp(-0.5 * alpha * alpha)
    for k in range(1, truncation):
        coeffs[k] = coeffs[k - 1] * alpha / math.sqrt(k)
    return coeffs


@pytest.mark.parametrize("truncation", [2, 5, 16, 64, 128])
def test_coherent_coefficients_match_the_recursion_from_the_vacuum(truncation):
    """Wherever the reference is a normal float, the coefficients started at
    the largest one agree with it to 1e-13 relative, and are 0 only where it is."""
    for alpha in np.concatenate([np.linspace(-30.0, 30.0, 241), [0.0, 1e-300, 0.999, 1.001]]):
        want = _coherent_reference(float(alpha), truncation)
        got = states._coherent_coeffs(float(alpha), truncation)
        normal = np.abs(want) >= np.finfo(float).tiny
        assert np.all(np.abs(got[normal] - want[normal]) <= 1e-13 * np.abs(want[normal])), alpha
        assert np.all(got[want == 0] == 0), alpha


def test_cat_state_builds_where_the_vacuum_coefficient_underflows():
    # exp(-40^2 / 2) = exp(-800) is below the smallest float; the mode holds
    # alpha^2 = 1600 photons, and 2000 levels keep all but a negligible tail
    psi = cat_state(40.0, 1.0, 2000)  # construction cross-checks the norm
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)
    assert np.argmax(np.abs(psi.amplitudes)) // 2000 in (1599, 1600)


def test_cat_truncation_rule_enforced():
    with pytest.raises(ValueError):
        cat_state(2.0, 2.0, 16)


@pytest.mark.parametrize("alpha", [14.0, 25.0, 1e160])
def test_cat_truncation_rule_refuses_amplitudes_far_above_the_truncation(alpha):
    # the mean photon number alpha^2 lies far above the 32 levels kept, so
    # almost all of the weight is discarded
    with pytest.raises(ValueError, match=r"insufficient .* discarded weight 1\.00e\+00"):
        cat_state(alpha, 1.0, 32)
    with pytest.raises(ValueError, match="truncation 32 insufficient"):
        cat_state(1.0, -alpha, 32)


def test_cat_truncation_rule_reads_the_weight_of_the_levels_kept():
    # alpha = 1.2 keeps all but 4.2e-12 of its weight in 16 levels, alpha = 1.6
    # loses 1.48e-8 there
    assert cat_state(1.2, 1.2, 16).space.dims == (16, 16)
    with pytest.raises(ValueError, match="discarded weight 1.48e-08"):
        cat_state(1.0, 1.6, 16)


def test_cat_reported_quantities_truncation_converged():
    alpha = beta = 1.0
    reports = {}
    for trunc in (16, 24, 32):
        rho = density_from_pure(cat_state(alpha, beta, trunc))
        a, b = cat_quadratures(-beta, beta, alpha, -alpha, trunc)
        reports[trunc] = srpt_evaluate(rho, a, b, check_admissibility=False)
    for field in ("lhs", "rhs", "slack"):
        v16, v24, v32 = (getattr(reports[t], field) for t in (16, 24, 32))
        assert abs(v24 - v16) < 1e-6
        assert abs(v32 - v24) < 1e-6


# --- multiphoton ----------------------------------------------------------------------


def test_multiphoton_zero_re_product_not_detected():
    from srpt.witnesses import multiphoton_pair

    psi = multiphoton_state(1j / math.sqrt(2), 0.0, 1 / math.sqrt(2))
    a, b = multiphoton_pair()
    rep = srpt_evaluate(density_from_pure(psi), a, b)
    assert rep.anticomm_term == pytest.approx(0.0, abs=1e-14)


def test_multiphoton_product_state_not_detected():
    from srpt.witnesses import multiphoton_pair

    psi = multiphoton_state(0.0, 1.0, 0.0)
    a, b = multiphoton_pair()
    assert not srpt_evaluate(density_from_pure(psi), a, b).violated
    with pytest.raises(ValueError):
        multiphoton_state(0.0, 0.0, 0.0)


# --- random factories --------------------------------------------------------------------


def test_random_factories_deterministic_per_seed():
    assert np.array_equal(random_pure((2, 3), 7).amplitudes,
                          random_pure((2, 3), 7).amplitudes)
    assert np.array_equal(random_separable((2, 2), 4, 7).matrix,
                          random_separable((2, 2), 4, 7).matrix)
    with pytest.raises(ValueError):
        random_separable((2, 2), 0, 1)


def test_random_separable_checks_each_term_vector_and_the_mixture_once(monkeypatch):
    counts = {hilbert.StateVector: 0, hilbert.DensityMatrix: 0}
    for cls in counts:
        def counted(self, post_init=cls.__post_init__, cls=cls):
            counts[cls] += 1
            post_init(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    random_separable((2, 3), 4, 0)
    assert counts == {hilbert.StateVector: 4, hilbert.DensityMatrix: 1}


@settings(max_examples=100)
@given(st.integers(0, 10**6))
def test_random_separable_is_ppt(seed):
    rho = random_separable((2, 2), terms=1 + seed % 6, seed=seed)
    assert ppt_min_eigenvalue(rho) >= -1e-10


def test_random_pure_detected_by_best_prop1_pair():
    # oracle: singular values of the reshaped amplitudes
    for seed in range(1, 101):
        psi = random_pure((2, 2), seed)
        singulars = np.linalg.svd(psi.amplitudes.reshape(2, 2), compute_uv=False)
        result = maximize_violation(density_from_pure(psi), "prop1")
        if singulars.min() > 1e-6:
            assert result.best_report.violated
            assert result.best_report.rhs == pytest.approx(
                float(np.prod(singulars**2)), abs=1e-10)


# --- CSV export ----------------------------------------------------------------------------


def test_eigenstate_csv_export():
    text2d = eigenstate_table_csv(oscillator2d_eigenstates(2))
    assert text2d.startswith("n,M,i,re,im\n")
    assert len(text2d.strip().splitlines()) == 1 + 3 * 3
    text3d = eigenstate_table_csv(oscillator3d_eigenstates(1))
    assert text3d.startswith("n,l,m,i,j,re,im\n")
    assert eigenstate_table_csv([]) == ""
