import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srpt import hilbert
from srpt.criteria import CompiledWitness, sr_uncertainty
from srpt.hilbert import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    HilbertSpace,
    Observable,
    StateVector,
    TermOperator,
    annihilation,
    basis_index,
    density_from_json,
    density_from_pure,
    dumps_canonical,
    hermitian_eigensystem,
    kron_all,
    min_eigenvalue,
    mix,
    moments,
    observable_from_json,
    observable_to_json,
    partial_transpose_matrix,
    state_from_json,
    state_to_json,
    trace_product,
)
from srpt.states import random_pure, schmidt_state, werner

from helpers import basis_state, kron_observable

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


def mean_and_variance(rho, m):
    return moments(trace_product(rho.matrix, m), trace_product(rho.matrix, m @ m))


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


def test_state_vector_bounds_the_squared_norm():
    # norm 1 + 9e-13 is within NORM_TOL of 1, but its square, the trace of
    # |psi><psi|, is not
    with pytest.raises(ValueError, match="squared norm"):
        StateVector(Q2, np.array([1.0 + 9e-13, 0.0, 0.0, 0.0]))


@given(st.integers(0, 10**6), st.sampled_from([(2,), (2, 2), (3, 5), (2, 2, 2)]),
       st.floats(-2.5e-12, 2.5e-12))
def test_density_from_pure_accepts_every_state_vector(seed, dims, delta):
    amp = random_pure(dims, seed).amplitudes * np.sqrt(1.0 + delta)
    try:
        psi = StateVector(HilbertSpace(dims), amp)
    except ValueError:
        return
    assert density_from_pure(psi).space == psi.space


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
    pt_bell = partial_transpose_matrix(density_from_pure(bell_state()).matrix, (2, 2), 0)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(Q2, pt_bell)  # Hermitian and unit-trace, but not positive


# --- basis convention ---------------------------------------------------------


def test_tensor_triple_flip():
    space = HilbertSpace((2, 2, 2))
    flip = np.kron(np.kron(PAULI_X, PAULI_X), PAULI_X)
    assert basis_index(space, (0, 0, 0)) == 0
    assert basis_index(space, (1, 1, 1)) == 7
    assert np.array_equal(flip @ basis_state(space, (0, 0, 0)).amplitudes,
                          basis_state(space, (1, 1, 1)).amplitudes)


# --- partial transpose ----------------------------------------------------------


def test_partial_transpose_symmetric_factor_fixed():
    zz = np.kron(PAULI_Z, PAULI_Z)
    assert np.allclose(partial_transpose_matrix(zz, (2, 2), 0), zz)


def test_partial_transpose_sigma_y_flips_sign():
    yy = np.kron(PAULI_Y, PAULI_Y)
    assert np.allclose(partial_transpose_matrix(yy, (2, 2), 0), -yy)


def test_partial_transpose_index_swap_rule():
    m = np.zeros((4, 4), dtype=complex)
    m[1, 2] = 1.0  # |01><10|
    out = partial_transpose_matrix(m, (2, 2), 0)
    expected = np.zeros((4, 4), dtype=complex)
    expected[3, 0] = 1.0  # |11><00|
    assert np.array_equal(out, expected)


def test_partial_transpose_out_of_range():
    with pytest.raises(ValueError):
        partial_transpose_matrix(np.kron(PAULI_Z, PAULI_Z), (2, 2), 2)


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


# --- moments / commutators ------------------------------------------------------


def test_expectation_eigenstate():
    rho = density_from_pure(basis_state(HilbertSpace((2,)), (0,)))
    assert mean_and_variance(rho, PAULI_Z)[0] == pytest.approx(1.0)


def test_expectation_traceless_on_maximally_mixed():
    rho = DensityMatrix(Q2, np.eye(4) / 4)
    assert mean_and_variance(rho, np.kron(PAULI_Z, PAULI_Z))[0] == pytest.approx(0.0, abs=1e-14)


def test_expectation_bell_sigma_xx():
    rho = density_from_pure(bell_state())
    assert mean_and_variance(rho, np.kron(PAULI_X, PAULI_X))[0] == pytest.approx(1.0)


def test_expectation_dimension_mismatch():
    rho = DensityMatrix(Q2, np.eye(4) / 4)
    z = Observable(HilbertSpace((2,)), PAULI_Z)
    with pytest.raises(ValueError, match="space mismatch"):
        sr_uncertainty(rho, z, z)


def test_variance_examples():
    single = HilbertSpace((2,))
    rho0 = density_from_pure(basis_state(single, (0,)))
    assert mean_and_variance(rho0, PAULI_Z)[1] == pytest.approx(0.0, abs=1e-14)
    assert mean_and_variance(rho0, PAULI_X)[1] == pytest.approx(1.0)
    # sr_uncertainty's lhs is the product of the two variances
    x = Observable(single, PAULI_X)
    assert sr_uncertainty(rho0, x, x).lhs == pytest.approx(1.0)


def test_variance_transposed_werner_observable():
    rho = werner(bell_state(), 0.6)
    obs = partial_transpose_matrix(np.kron(PAULI_Z, PAULI_Z), (2, 2), 0)
    assert mean_and_variance(rho, obs)[1] == pytest.approx(1.0 - 0.36, abs=1e-12)


@settings(max_examples=60)
@given(st.integers(0, 10**6))
def test_variance_nonnegative(seed):
    rng = np.random.default_rng(seed)
    rho = DensityMatrix(Q2, rand_density(rng, 4))
    assert mean_and_variance(rho, rand_herm(rng, 4))[1] >= 0.0


def test_pauli_commutator():
    single = HilbertSpace((2,))
    x, y = Observable(single, PAULI_X), Observable(single, PAULI_Y)
    witness = CompiledWitness(x, y, None)
    assert np.allclose(witness.commutator, 2j * PAULI_Z)
    assert np.allclose(witness.anticommutator, np.zeros((2, 2)))


def test_zz_xx_commute():
    witness = CompiledWitness(kron_observable(PAULI_Z, PAULI_Z),
                              kron_observable(PAULI_X, PAULI_X), None)
    assert np.allclose(witness.commutator, np.zeros((4, 4)))


# --- Kronecker-term operators ------------------------------------------------------


def rand_terms(rng, dims, t):
    space = HilbertSpace(dims)
    coeffs = rng.standard_normal(t) + 1j * rng.standard_normal(t)
    factors = [rng.standard_normal((t, d, d)) + 1j * rng.standard_normal((t, d, d)) for d in dims]
    return TermOperator(space, coeffs, factors)


def dense_terms(op):
    return sum(c * kron_all(fs) for c, fs in zip(op.coeffs, zip(*op.factors)))


@settings(max_examples=40)
@given(st.integers(0, 10**6), st.sampled_from([(2, 3), (3, 2, 2)]), st.integers(1, 3))
def test_term_operations_match_the_dense_matrices(seed, dims, t):
    rng = np.random.default_rng(seed)
    a, b = rand_terms(rng, dims, t), rand_terms(rng, dims, 2)
    m_a, m_b = dense_terms(a), dense_terms(b)
    tol = 1e-12 * np.linalg.norm(m_a) * np.linalg.norm(m_b)
    assert np.allclose(a.matrix, m_a, rtol=0, atol=1e-13 * np.linalg.norm(m_a))
    assert np.max(np.abs((a @ b).matrix - m_a @ m_b)) <= tol
    # a one-slot operand takes the other to one slot too
    assert np.max(np.abs((TermOperator.dense(a.space, m_a) @ b).matrix - m_a @ m_b)) <= tol
    for k in range(len(dims)):
        assert np.allclose(a.partial_transpose(k).matrix, partial_transpose_matrix(m_a, dims, k))
    assert abs(a.trace() - np.trace(m_a)) <= 1e-12 * np.linalg.norm(m_a) * len(m_a)
    assert a.norm_sq() == pytest.approx(np.linalg.norm(m_a) ** 2, rel=1e-12)
    rho = DensityMatrix(a.space, rand_density(rng, a.space.total_dim))
    psi = random_pure(dims, seed)
    for state, matrix in ((rho, rho.matrix), (psi, density_from_pure(psi).matrix)):
        want = trace_product(matrix, m_a)
        assert abs(a.coeffs @ a.term_expectations(state) - want) <= 1e-12 * np.linalg.norm(m_a)


def test_term_observables_are_checked_for_hermiticity_and_finite_entries():
    space = HilbertSpace((2, 2))
    assert Observable(space, TermOperator(space, [1.0], (PAULI_X[None], PAULI_Y[None])))
    with pytest.raises(ValueError, match="not Hermitian"):
        Observable(space, TermOperator(space, [1j], (PAULI_X[None], PAULI_Y[None])))
    with pytest.raises(ValueError, match="non-finite"):
        Observable(space, TermOperator(space, [np.inf], (PAULI_X[None], PAULI_Y[None])))
    with pytest.raises(ValueError, match="factor shape"):
        TermOperator(space, [1.0, 2.0], (PAULI_X[None], PAULI_Y[None]))
    with pytest.raises(ValueError, match="one per subsystem or one over the whole space"):
        TermOperator(HilbertSpace((2, 2, 2)), [1.0], (PAULI_X[None], np.eye(4)[None]))


def test_term_observable_hermitian_up_to_rounding_is_accepted():
    # F x G + F' x G^dagger with F' = F^dagger up to one rounding: Hermitian to
    # 1e-15 entry by entry, but its norm from the terms reads about 1e-7
    rng = np.random.default_rng(3)
    f = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    f_adj = (f * (1 + 2.0 ** -52)).conj().T
    space = HilbertSpace((3, 2))
    op = TermOperator(space, [1.0, 1.0], (np.array([f, f_adj]), np.array([g, g.conj().T])))
    assert not op.is_exactly_hermitian()
    assert np.array_equal(Observable(space, op).matrix, op.matrix)


def test_term_observable_with_a_slightly_wrong_adjoint_factor_is_rejected():
    # sum over three pairs F x G + F^dagger x G^dagger, factors scaled by up
    # to 1e3, with one adjoint factor perturbed by 1e-11 to 1e-7: a defect
    # the norm of T - T^dagger from the terms reads as about 0
    space = HilbertSpace((4, 4))
    for seed in range(40):
        rng = np.random.default_rng(seed)
        pairs = [[(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
                  * 10.0 ** rng.uniform(0, 3) for _ in range(2)] for _ in range(3)]
        fs = [m for f, _ in pairs for m in (f, f.conj().T)]
        gs = [m for _, g in pairs for m in (g, g.conj().T)]
        fs[2 * rng.integers(3) + 1] += 10.0 ** rng.uniform(-11, -7) * rng.standard_normal((4, 4))
        op = TermOperator(space, np.ones(6), (np.array(fs), np.array(gs)))
        assert np.max(np.abs(op.matrix - op.matrix.conj().T)) > hilbert.HERMITICITY_TOL
        with pytest.raises(ValueError, match="not Hermitian"):
            Observable(space, op)


def test_a_term_operator_whose_adjoint_permutes_its_terms_is_exactly_hermitian():
    # |0><1| x |1><0| + |1><0| x |0><1|: the adjoint swaps the two terms, and
    # its conjugated zeros read -0.0
    space = HilbertSpace((2, 2))
    up, down = np.array([[0, 1], [0, 0]], dtype=complex), np.array([[0, 0], [1, 0]], dtype=complex)
    op = TermOperator(space, [1.0, 1.0], (np.array([up, down]), np.array([down, up])))
    assert op.is_exactly_hermitian()
    assert not TermOperator(space, [1.0, 2.0], op.factors).is_exactly_hermitian()


@settings(max_examples=20)
@given(st.integers(0, 10**6), st.sampled_from([(2, 3), (3, 2, 2)]))
def test_density_expectations_in_chunks_match_one_pass(seed, dims):
    rng = np.random.default_rng(seed)
    op = rand_terms(rng, dims, 7)
    rho = DensityMatrix(op.space, rand_density(rng, op.space.total_dim))
    whole = op.term_expectations(rho)
    saved = hilbert._CHUNK_ENTRIES
    hilbert._CHUNK_ENTRIES = 1  # chunks of D_0^2 terms
    try:
        chunked = op.term_expectations(rho)
    finally:
        hilbert._CHUNK_ENTRIES = saved
    assert np.allclose(chunked, whole, rtol=1e-13, atol=0)


# --- eigensolver ----------------------------------------------------------------


def test_min_eigenvalue_examples():
    assert min_eigenvalue(np.eye(4, dtype=complex)) == pytest.approx(1.0)
    assert min_eigenvalue(PAULI_Z) == pytest.approx(-1.0)
    pt_bell = partial_transpose_matrix(density_from_pure(bell_state()).matrix, (2, 2), 0)
    assert min_eigenvalue(pt_bell) == pytest.approx(-0.5, abs=1e-12)


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
    rho = density_from_pure(basis_state(HilbertSpace((2,)), (0,)))
    assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))


def test_mix_identity_case():
    rho = werner(bell_state(), 0.3)
    assert np.array_equal(mix([(1.0, rho)]).matrix, rho.matrix)


def test_mix_equal_weights():
    single = HilbertSpace((2,))
    rho = mix([(0.5, density_from_pure(basis_state(single, (0,)))),
               (0.5, density_from_pure(basis_state(single, (1,))))])
    assert np.allclose(rho.matrix, np.eye(2) / 2)


def test_mix_rejects_bad_weights():
    rho = density_from_pure(basis_state(HilbertSpace((2,)), (0,)))
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
    a = annihilation(3)
    assert np.allclose(a.conj().T @ a, np.diag([0.0, 1.0, 2.0]))


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
    obs = kron_observable(PAULI_Y, PAULI_X)
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


# Finite floats the writer must spell exactly: signed zeros, subnormals, the
# extremes of the float range, and integer-valued floats.
JSON_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300, -1e-300,
                     1e300, -1e300, 1.7976931348623157e308, 1.0, -3.0, 1e16, 1e17]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _reference_pairs(values) -> list:
    """[re, im] pairs as Python floats, -0.0 written as 0, for dumps_canonical."""
    def part(x):
        return 0.0 if x == 0 else float(x)
    return [[part(z.real), part(z.imag)] for z in values]


@st.composite
def complex_arrays(draw):
    d = draw(st.integers(1, 4))
    shape = draw(st.sampled_from([(d,), (1, d), (d, 1), (d, d)]))
    size = int(np.prod(shape))
    parts = draw(st.lists(JSON_FLOATS, min_size=2 * size, max_size=2 * size))
    return (np.array(parts[:size]) + 1j * np.array(parts[size:])).reshape(shape)


@settings(max_examples=200)
@given(complex_arrays())
def test_complex_json_matches_dumps_canonical(values):
    want = (_reference_pairs(values) if values.ndim == 1
            else [_reference_pairs(row) for row in values])
    assert hilbert._complex_json(values) == dumps_canonical(want)


@settings(max_examples=100)
@given(st.sampled_from([(2,), (3,), (2, 2)]), st.data())
def test_observable_and_state_json_match_dumps_canonical(dims, data):
    space = HilbertSpace(dims)
    d = space.total_dim
    upper = np.array(data.draw(st.lists(JSON_FLOATS, min_size=2 * d * d, max_size=2 * d * d)))
    m = (upper[:d * d] + 1j * upper[d * d:]).reshape(d, d)
    m = np.triu(m, 1) + np.triu(m, 1).conj().T + np.diag(m.diagonal().real)
    obs = Observable(space, m)
    assert observable_to_json(obs) == dumps_canonical(
        {"dims": list(dims), "matrix": [_reference_pairs(row) for row in obs.matrix]})
    # one unit entry and tiny others, so the vector stays normalised
    tiny = data.draw(st.lists(st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 2e-200]),
                              min_size=2 * d, max_size=2 * d))
    amp = np.array(tiny[:d]) + 1j * np.array(tiny[d:])
    amp[data.draw(st.integers(0, d - 1))] = data.draw(st.sampled_from([1.0, -1.0, 1j, -1j]))
    psi = StateVector(space, amp)
    assert state_to_json(psi) == dumps_canonical(
        {"dims": list(dims), "amplitudes": _reference_pairs(psi.amplitudes)})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.inf, complex(0, np.nan)])
def test_complex_json_rejects_non_finite_entries(bad):
    values = np.eye(2, dtype=complex)
    values[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        hilbert._complex_json(values)
    with pytest.raises(ValueError, match="non-finite"):
        hilbert._complex_json(values[0])


HUGE = "9" * 400


@pytest.mark.parametrize("text", [
    f'{{"dims": [2], "amplitudes": [[{HUGE}, 0], [0, 0]]}}',
    f'{{"dims": [2], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, -{HUGE}]]]}}',
    '{"dims": [2], "amplitudes": [["1", "0"], [0, 0]]}',
    '{"dims": [2], "amplitudes": [["1", 0], [0, 0]]}',
    f'{{"dims": [2], "amplitudes": [["1", {2 ** 70}], [0, 0]]}}',
    '{"dims": [2], "amplitudes": [[null, 0], [1, 0]]}',
    '{"dims": [2], "amplitudes": [[{}, 0], [1, 0]]}',
], ids=["huge-amplitude", "huge-matrix", "strings", "string", "string-and-big-int", "null",
        "object"])
def test_density_from_json_rejects_entries_that_are_not_floats(text):
    with pytest.raises(ValueError, match="complex entries"):
        density_from_json(text)


@pytest.mark.parametrize("entry", [HUGE, '"1"', "null"], ids=["huge", "string", "null"])
def test_observable_from_json_rejects_entries_that_are_not_floats(entry):
    with pytest.raises(ValueError, match="complex entries"):
        observable_from_json(f'{{"dims": [2], "matrix": [[[{entry}, 0], [0, 0]], '
                             '[[0, 0], [1, 0]]]}')


@pytest.mark.parametrize("text", [
    '{"dims": [2], "amplitudes": [[true, false], [false, false]]}',
    '{"dims": [2], "amplitudes": [[true, false], [0, 0]]}',
    '{"dims": [2], "amplitudes": [[true, 0.5], [0, 0]]}',
    f'{{"dims": [2], "amplitudes": [[true, {2 ** 70}], [0, 0]]}}',
    '{"dims": [2], "matrix": [[[1, 0], [0, 0]], [[0, 0], [false, 0]]]}',
], ids=["all-booleans", "booleans-and-ints", "boolean-and-float", "boolean-and-big-int",
        "matrix"])
def test_density_from_json_rejects_booleans(text):
    with pytest.raises(ValueError, match="complex entries"):
        density_from_json(text)


@pytest.mark.parametrize("row", ["[[true, false], [false, false]]", "[[true, 0.5], [0, 0]]",
                                 f"[[false, {2 ** 70}], [0, 0]]"],
                         ids=["all-booleans", "boolean-and-float", "boolean-and-big-int"])
def test_observable_from_json_rejects_booleans(row):
    with pytest.raises(ValueError, match="complex entries"):
        observable_from_json(f'{{"dims": [2], "matrix": [{row}, [[0, 0], [1, 0]]]}}')


def test_a_boolean_outside_the_entries_leaves_the_numbers_as_they_are():
    state = density_from_json('{"dims": [2], "amplitudes": [[0.6, 0], [0, 0.8]], "pure": true}')
    assert state.amplitudes.tolist() == [0.6, 0.8j]


def test_observable_from_json_takes_integers_beyond_64_bits():
    obs = observable_from_json(f'{{"dims": [2], "matrix": [[[{2 ** 70}, 0], [0, 0]], '
                               '[[0, 0], [1, 0]]]}')
    assert obs.matrix[0, 0] == 2.0 ** 70
