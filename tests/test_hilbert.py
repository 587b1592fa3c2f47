import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srpt.hilbert import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    HilbertSpace,
    Observable,
    StateVector,
    annihilation,
    anticommutator,
    commutator,
    density_from_pure,
    expectation,
    hermitian_eigensystem,
    ket,
    min_eigenvalue,
    mix,
    number_operator,
    observable_from_json,
    observable_to_json,
    partial_transpose,
    partial_transpose_matrix,
    state_from_json,
    state_to_json,
    tensor,
    variance,
)
from srpt.states import schmidt_state, werner

Q2 = HilbertSpace((2, 2))


def rand_herm(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def rand_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m)


def bell_state():
    return schmidt_state((1.0, 1.0), (2, 2))


# --- construction invariants --------------------------------------------------


def test_space_requires_valid_dims():
    assert HilbertSpace((2, 3)).total_dim == 6
    with pytest.raises(ValueError):
        HilbertSpace(())
    with pytest.raises(ValueError):
        HilbertSpace((2, 1))
    for dims in ((2.5, 2), (2.0, 2), "22", 4):
        with pytest.raises(ValueError, match="integers"):
            HilbertSpace(dims)
    assert HilbertSpace((np.int64(2), 3)).dims == (2, 3)


def test_state_vector_requires_unit_norm():
    with pytest.raises(ValueError):
        StateVector(Q2, np.array([1.0, 1.0, 0.0, 0.0]))
    sv = StateVector(Q2, np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        sv.amplitudes[0] = 0.0  # locked


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_constructors_reject_non_finite_entries(bad):
    with pytest.raises(ValueError, match="non-finite"):
        StateVector(Q2, np.array([1.0, 0.0, 0.0, bad]))
    mat = np.diag([1.0, 0.0, 0.0, bad])
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(Q2, mat)
    with pytest.raises(ValueError, match="non-finite"):
        Observable(Q2, mat)
    with pytest.raises(ValueError):
        mix([(bad, density_from_pure(bell_state()))])


def test_observable_requires_hermitian():
    with pytest.raises(ValueError):
        Observable(Q2, np.diag([1.0, 2.0, 3.0, 4.0]) + 1e-6 * np.eye(4) * 1j)


def test_density_matrix_invariants():
    with pytest.raises(ValueError):
        DensityMatrix(Q2, np.eye(4) / 2.0)  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(Q2, np.diag([1.5, -0.5, 0.0, 0.0]))  # negative eigenvalue
    pt_bell = partial_transpose(density_from_pure(bell_state()))
    assert isinstance(pt_bell, DensityMatrix)  # non-positive but density-shaped


# --- tensor -------------------------------------------------------------------


def test_tensor_pauli_z_pair_is_diagonal():
    obs = tensor(PAULI_Z, PAULI_Z)
    assert np.allclose(obs.matrix, np.diag([1.0, -1.0, -1.0, 1.0]))
    assert obs.space.dims == (2, 2)


def test_tensor_identity_case():
    assert np.allclose(tensor(np.eye(2), np.eye(2)).matrix, np.eye(4))


def test_tensor_triple_flip():
    obs = tensor(PAULI_X, PAULI_X, PAULI_X)
    zero = ket(HilbertSpace((2, 2, 2)), (0, 0, 0))
    assert np.allclose(obs.matrix @ zero.amplitudes,
                       ket(obs.space, (1, 1, 1)).amplitudes)


def test_tensor_rejects_empty():
    with pytest.raises(ValueError):
        tensor()


def test_tensor_associative():
    rng = np.random.default_rng(5)
    a, b, c = rand_herm(rng, 2), rand_herm(rng, 3), rand_herm(rng, 2)
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert np.max(np.abs(left.matrix - right.matrix)) <= 1e-12
    assert left.space.dims == (2, 3, 2)


# --- partial transpose ----------------------------------------------------------


def test_partial_transpose_symmetric_factor_fixed():
    obs = tensor(PAULI_Z, PAULI_Z)
    assert np.allclose(partial_transpose(obs, 0).matrix, obs.matrix)


def test_partial_transpose_sigma_y_flips_sign():
    obs = tensor(PAULI_Y, PAULI_Y)
    assert np.allclose(partial_transpose(obs, 0).matrix, -obs.matrix)


def test_partial_transpose_index_swap_rule():
    m = np.zeros((4, 4), dtype=complex)
    m[1, 2] = 1.0  # |01><10|
    out = partial_transpose_matrix(m, (2, 2), 0)
    expected = np.zeros((4, 4), dtype=complex)
    expected[3, 0] = 1.0  # |11><00|
    assert np.array_equal(out, expected)


def test_partial_transpose_out_of_range():
    with pytest.raises(ValueError):
        partial_transpose(tensor(PAULI_Z, PAULI_Z), 2)


@settings(max_examples=100)
@given(st.integers(0, 10**6))
def test_partial_transpose_involution(seed):
    rng = np.random.default_rng(seed)
    dims = (2, 3) if seed % 2 else (2, 2, 2)
    d = int(np.prod(dims))
    m = rand_herm(rng, d)
    k = seed % len(dims)
    twice = partial_transpose_matrix(partial_transpose_matrix(m, dims, k), dims, k)
    assert np.max(np.abs(twice - m)) <= 1e-12


@settings(max_examples=100)
@given(st.integers(0, 10**6))
def test_transpose_shifts_between_state_and_operator(seed):
    # tr(rho^G M) = tr(rho M^G) for any rho, M
    rng = np.random.default_rng(seed)
    dims = (2, 2) if seed % 2 else (2, 3)
    d = int(np.prod(dims))
    rho = rand_density(rng, d)
    m = rand_herm(rng, d)
    lhs = np.trace(partial_transpose_matrix(rho, dims, 0) @ m)
    rhs = np.trace(rho @ partial_transpose_matrix(m, dims, 0))
    assert abs(lhs - rhs) <= 1e-10


# --- expectation / variance -----------------------------------------------------


def test_expectation_eigenstate():
    rho = density_from_pure(ket(HilbertSpace((2,)), (0,)))
    assert expectation(rho, Observable(HilbertSpace((2,)), PAULI_Z)) == pytest.approx(1.0)


def test_expectation_traceless_on_maximally_mixed():
    rho = DensityMatrix(Q2, np.eye(4) / 4)
    assert expectation(rho, tensor(PAULI_Z, PAULI_Z)) == pytest.approx(0.0, abs=1e-14)


def test_expectation_bell_sigma_xx():
    rho = density_from_pure(bell_state())
    assert expectation(rho, tensor(PAULI_X, PAULI_X)) == pytest.approx(1.0)


def test_expectation_dimension_mismatch():
    rho = DensityMatrix(Q2, np.eye(4) / 4)
    with pytest.raises(ValueError):
        expectation(rho, Observable(HilbertSpace((2,)), PAULI_Z))


def test_variance_examples():
    single = HilbertSpace((2,))
    rho0 = density_from_pure(ket(single, (0,)))
    assert variance(rho0, Observable(single, PAULI_Z)) == pytest.approx(0.0, abs=1e-14)
    assert variance(rho0, Observable(single, PAULI_X)) == pytest.approx(1.0)


def test_variance_transposed_werner_observable():
    rho = werner(bell_state(), 0.6)
    obs = partial_transpose(tensor(PAULI_Z, PAULI_Z), 0)
    assert variance(rho, obs) == pytest.approx(1.0 - 0.36, abs=1e-12)


@settings(max_examples=60)
@given(st.integers(0, 10**6))
def test_variance_nonnegative(seed):
    rng = np.random.default_rng(seed)
    rho = DensityMatrix(Q2, rand_density(rng, 4))
    assert variance(rho, Observable(Q2, rand_herm(rng, 4))) >= 0.0


# --- commutators ----------------------------------------------------------------


def test_pauli_commutator():
    single = HilbertSpace((2,))
    x, y = Observable(single, PAULI_X), Observable(single, PAULI_Y)
    assert np.allclose(commutator(x, y), 2j * PAULI_Z)
    assert np.allclose(anticommutator(x, y).matrix, np.zeros((2, 2)))


def test_zz_xx_commute():
    assert np.allclose(commutator(tensor(PAULI_Z, PAULI_Z), tensor(PAULI_X, PAULI_X)),
                       np.zeros((4, 4)))


# --- eigensolver ----------------------------------------------------------------


def test_min_eigenvalue_examples():
    assert min_eigenvalue(np.eye(4, dtype=complex)) == pytest.approx(1.0)
    assert min_eigenvalue(PAULI_Z) == pytest.approx(-1.0)
    pt_bell = partial_transpose(density_from_pure(bell_state()))
    assert min_eigenvalue(pt_bell.matrix) == pytest.approx(-0.5, abs=1e-12)


def test_min_eigenvalue_rejects_non_hermitian():
    with pytest.raises(ValueError):
        min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eigensystem_rejects_defect_above_tolerance():
    h = np.array([[1.0, 1e-11], [0.0, 2.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigensystem(h)


@settings(max_examples=60)
@given(st.integers(0, 10**6))
def test_eigensystem_reconstructs(seed):
    rng = np.random.default_rng(seed)
    h = rand_herm(rng, 6)
    vals, vecs = hermitian_eigensystem(h)
    rebuilt = (vecs * vals) @ vecs.conj().T
    assert np.linalg.norm(rebuilt - h) <= 1e-10
    assert abs(min_eigenvalue(h) - vals[0]) <= 1e-12


# --- density constructors --------------------------------------------------------


def test_density_from_pure():
    rho = density_from_pure(ket(HilbertSpace((2,)), (0,)))
    assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))


def test_mix_identity_case():
    rho = werner(bell_state(), 0.3)
    assert np.array_equal(mix([(1.0, rho)]).matrix, rho.matrix)


def test_mix_equal_weights():
    single = HilbertSpace((2,))
    rho = mix([(0.5, density_from_pure(ket(single, (0,)))),
               (0.5, density_from_pure(ket(single, (1,))))])
    assert np.allclose(rho.matrix, np.eye(2) / 2)


def test_mix_rejects_bad_weights():
    rho = density_from_pure(ket(HilbertSpace((2,)), (0,)))
    with pytest.raises(ValueError):
        mix([(-0.1, rho), (1.1, rho)])
    with pytest.raises(ValueError):
        mix([(0.5, rho)])


# --- bosonic operators ------------------------------------------------------------


def test_annihilation_lowers():
    a = annihilation(2)
    one = np.array([0.0, 1.0], dtype=complex)
    assert np.allclose(a @ one, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        annihilation(1)


def test_number_operator():
    assert np.allclose(number_operator(3).matrix, np.diag([0.0, 1.0, 2.0]))


def test_truncated_commutator_artifact():
    # the top Fock level breaks [a, a+] = 1; this is why eigenstate
    # construction restricts to fixed-total-quanta subspaces
    a = annihilation(4)
    comm = a @ a.conj().T - a.conj().T @ a
    assert np.allclose(comm, np.diag([1.0, 1.0, 1.0, -3.0]))


# --- JSON interchange ---------------------------------------------------------------


def test_state_json_round_trip():
    psi = schmidt_state((0.6, 0.8j), (2, 2))
    text = state_to_json(psi)
    back = state_from_json(text)
    assert back.space == psi.space
    assert np.array_equal(back.amplitudes, psi.amplitudes)
    assert '"dims":[2,2]' in text


def test_observable_json_round_trip():
    obs = tensor(PAULI_Y, PAULI_X)
    back = observable_from_json(observable_to_json(obs))
    assert np.array_equal(back.matrix, obs.matrix)


def test_json_emits_17_significant_digits():
    text = state_to_json(bell_state())
    assert "0.70710678118654746" in text


def test_json_parse_errors():
    with pytest.raises(ValueError):
        state_from_json('{"dims": [2, 2]}')
    with pytest.raises(ValueError):
        observable_from_json('{"matrix": []}')
