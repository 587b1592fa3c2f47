import numpy as np
import pytest

from srpt.criteria import CompiledWitness, is_admissible, srpt_evaluate
from srpt.hilbert import (
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    HilbertSpace,
    Observable,
    basis_index,
    density_from_pure,
    partial_transpose_matrix,
)
from srpt.states import (
    acin_state,
    cat_state,
    multiphoton_state,
    oscillator2d_eigenstates,
    schmidt_state,
)
from srpt.witnesses import (
    _PAULI_BASIS,
    _PT_SIGNS,
    NotRepresentable,
    Prop2Params,
    cat_quadratures,
    multiphoton_pair,
    oscillator2d_pair,
    oscillator3d_pair,
    projector_flip_pair,
    prop1_pair,
    prop2_check,
    prop2_observable,
    prop3_triple,
    werner_bipartite_pair,
    werner_multipartite_pair,
)

from helpers import basis_state, kron_observable

Q2 = HilbertSpace((2, 2))


def proj(dim, level):
    m = np.zeros((dim, dim), dtype=complex)
    m[level, level] = 1.0
    return m


def flip(dim, i, j):
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = m[j, i] = 1.0
    return m


def kron3(x, y, z):
    return np.kron(np.kron(x, y), z)


def rand_params(rng):
    return Prop2Params(rng.standard_normal(3), rng.standard_normal(3),
                       rng.standard_normal(3), rng.standard_normal(3),
                       float(rng.standard_normal()))


def rand_herm(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


# --- prop1 ----------------------------------------------------------------------


def test_prop1_qubit_pair_exact_form():
    a, b = prop1_pair(Q2, 0, 1)
    expected_a = np.zeros((4, 4))
    expected_a[1, 1] = 1.0  # |01><01|
    assert np.array_equal(a.matrix, expected_a)
    assert np.array_equal(b.matrix, np.kron(PAULI_X, PAULI_X))


def test_prop1_qutrit_levels():
    a, b = prop1_pair(HilbertSpace((3, 3)), 0, 2)
    flip = np.zeros((3, 3))
    flip[0, 2] = flip[2, 0] = 1.0
    assert np.array_equal(b.matrix, np.kron(flip, flip))
    assert a.matrix[2, 2] == 1.0  # |02><02|


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 5), (5, 5)])
def test_prop1_admissible_with_zero_residual(dims):
    space = HilbertSpace(dims)
    levels = min(dims)
    for i0 in range(levels):
        for i1 in range(i0 + 1, levels):
            for obs in prop1_pair(space, i0, i1):
                assert is_admissible(obs).residual == 0.0


def test_prop1_rejects_bad_levels():
    with pytest.raises(ValueError):
        prop1_pair(Q2, 0, 0)
    with pytest.raises(ValueError):
        prop1_pair(Q2, 0, 2)


def test_prop1_on_schmidt_states_gives_coefficient_product():
    rng = np.random.default_rng(3)
    for _ in range(25):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi = schmidt_state(c, (3, 3))
        c = c / np.linalg.norm(c)
        a, b = prop1_pair(HilbertSpace((3, 3)), 0, 2)
        rep = srpt_evaluate(density_from_pure(psi), a, b)
        assert rep.lhs == 0.0
        assert rep.rhs == pytest.approx(abs(c[0]) ** 2 * abs(c[2]) ** 2, abs=1e-12)


def test_projector_flip_pair_row_major_kets():
    space = HilbertSpace((2, 3))
    a, b = projector_flip_pair(space, [(0, 2), (1, 0)], [((0, 1), (1, 2))])
    assert np.array_equal(a.matrix, np.diag([0, 0, 1, 1, 0, 0]).astype(complex))
    expected_b = np.zeros((6, 6), dtype=complex)
    expected_b[1, 5] = expected_b[5, 1] = 1.0
    assert np.array_equal(b.matrix, expected_b)


def test_projector_flip_pair_rejects_out_of_range_level():
    with pytest.raises(ValueError):
        projector_flip_pair(Q2, [(0, 2)], [])
    with pytest.raises(ValueError):
        projector_flip_pair(Q2, [(0, 0)], [((0, 0), (1, 2))])


# --- prop2 ----------------------------------------------------------------------


def test_prop2_simple_constructions():
    p = Prop2Params((1, 0, 0), (1, 0, 0), (0, 0, 0), (0, 0, 0), 0.0)
    assert np.array_equal(prop2_observable(p).matrix, np.kron(PAULI_X, PAULI_X))
    p = Prop2Params((0, 0, 0), (0, 0, 0), (0, 0, 1), (0, 0, 1), 0.0)
    z = np.diag([1.0, -1.0])
    assert np.allclose(prop2_observable(p).matrix,
                       np.kron(np.eye(2), z) + np.kron(z, np.eye(2)))


def test_pauli_basis_rows_and_their_partial_transpose_signs():
    paulis = (ID2, PAULI_X, PAULI_Y, PAULI_Z)
    for mu in range(4):
        for nu in range(4):
            product = np.kron(paulis[mu], paulis[nu])
            assert np.array_equal(_PAULI_BASIS[4 * mu + nu].reshape(4, 4), product)
            assert np.array_equal(partial_transpose_matrix(product, (2, 2), 0),
                                  _PT_SIGNS[mu] * product)


def test_prop2_observable_matches_its_defining_sum():
    rng = np.random.default_rng(13)
    for _ in range(100):
        p = rand_params(rng)
        a, b, c, d = (sum(v[i] * s for i, s in enumerate((PAULI_X, PAULI_Y, PAULI_Z)))
                      for v in (p.a, p.b, p.c, p.d))
        want = np.kron(a, b) + np.kron(ID2, c) + np.kron(d + p.eta * ID2, ID2)
        assert np.max(np.abs(prop2_observable(p).matrix - want)) <= 1e-14 * np.max(np.abs(want))


def test_prop2_family_admissible():
    rng = np.random.default_rng(17)
    for _ in range(500):
        obs = prop2_observable(rand_params(rng))
        assert is_admissible(obs).residual <= 1e-12


def test_prop2_check_counterexample():
    bad = Observable(Q2, np.kron(PAULI_X, PAULI_Y) + np.kron(PAULI_Y, PAULI_X))
    with pytest.raises(NotRepresentable) as err:
        prop2_check(bad)
    assert err.value.max_minor == pytest.approx(1.0)


def test_prop2_check_sigma_xx():
    p = prop2_check(kron_observable(PAULI_X, PAULI_X))
    assert np.allclose(p.a, [1, 0, 0])
    assert np.allclose(p.b, [1, 0, 0])
    assert np.allclose(p.c, 0) and np.allclose(p.d, 0) and p.eta == pytest.approx(0.0)


def test_prop2_round_trip():
    rng = np.random.default_rng(29)
    for _ in range(200):
        obs = prop2_observable(rand_params(rng))
        rebuilt = prop2_observable(prop2_check(obs))
        assert np.max(np.abs(rebuilt.matrix - obs.matrix)) <= 1e-10


def test_prop2_equivalence_with_admissibility():
    rng = np.random.default_rng(31)
    for _ in range(200):
        obs = Observable(Q2, rand_herm(rng, 4))
        admissible = is_admissible(obs).admissible
        try:
            prop2_check(obs)
            representable = True
        except NotRepresentable:
            representable = False
        assert admissible == representable


# --- prop3 ----------------------------------------------------------------------


def test_prop3_ghz_detection():
    ghz = acin_state(1.0, 0, 0, 0, 1.0)
    a, b = prop3_triple(3)
    rep = srpt_evaluate(density_from_pure(ghz), a, b)
    assert rep.rhs == pytest.approx(0.25, abs=1e-12)
    assert rep.violated


def test_prop3_first_pair_targets_lambda2():
    psi = acin_state(1.0, 0, 1.0, 0, 0)
    a, b = prop3_triple(1)
    rep = srpt_evaluate(density_from_pure(psi), a, b)
    assert rep.rhs == pytest.approx(0.25, abs=1e-12)
    assert rep.violated


def test_prop3_biseparable_not_detected():
    psi = acin_state(0.0, 0.3, 0.4, 0.5, 0.6)
    for which in (1, 2, 3):
        a, b = prop3_triple(which)
        assert not srpt_evaluate(density_from_pure(psi), a, b).violated


@pytest.mark.parametrize("which, projected, factors", [
    (1, (0, 0, 1), (PAULI_X, ID2, PAULI_X)),
    (2, (0, 1, 0), (PAULI_X, PAULI_X, ID2)),
    (3, (0, 1, 1), (PAULI_X, PAULI_X, PAULI_X)),
])
def test_prop3_exact_form(which, projected, factors):
    a, b = prop3_triple(which)
    assert np.array_equal(a.matrix, kron3(*(proj(2, level) for level in projected)))
    assert np.array_equal(b.matrix, kron3(*factors))


def test_prop3_rejects_bad_selector():
    with pytest.raises(ValueError):
        prop3_triple(4)


# --- oscillator pairs --------------------------------------------------------------


def test_osc2d_pair_n1_detection():
    states = oscillator2d_eigenstates(1)
    a, b = oscillator2d_pair(1)
    for state in states:
        rep = srpt_evaluate(density_from_pure(state.vector), a, b)
        assert rep.rhs == pytest.approx(0.25, abs=1e-12)
        assert rep.violated


def test_osc2d_pair_n2_all_violate():
    a, b = oscillator2d_pair(2)
    for state in oscillator2d_eigenstates(2):
        assert srpt_evaluate(density_from_pure(state.vector), a, b).violated


def test_osc2d_pair_pure_number_state_not_detected():
    a, b = oscillator2d_pair(1)
    rho = density_from_pure(basis_state(HilbertSpace((2, 2)), (1, 0)))
    rep = srpt_evaluate(rho, a, b)
    assert rep.rhs == pytest.approx(0.0, abs=1e-14)
    assert not rep.violated


@pytest.mark.parametrize("n", [1, 2, 5])
def test_osc2d_pair_exact_form(n):
    a, b = oscillator2d_pair(n)
    d = n + 1
    assert np.array_equal(a.matrix, np.kron(proj(d, 0), proj(d, 0)))
    assert np.array_equal(b.matrix, np.kron(flip(d, 0, n), flip(d, 0, n)))


@pytest.mark.parametrize("n, m, step", [(2, 0, 2), (4, 0, 2), (3, 2, 2), (3, -1, 1), (4, -4, 4)])
def test_osc3d_pair_exact_form(n, m, step):
    a, b = oscillator3d_pair(n, m)
    d = n + 1
    rest = proj(d, n - step)
    assert np.array_equal(a.matrix, kron3(proj(d, 0), proj(d, 0), rest))
    assert np.array_equal(b.matrix, kron3(flip(d, 0, step), flip(d, 0, step), rest))


def test_osc2d_pair_rejects_n0():
    with pytest.raises(ValueError):
        oscillator2d_pair(0)


def test_osc3d_pair_parameter_validation():
    with pytest.raises(ValueError):
        oscillator3d_pair(1, 0)  # m=0 needs n >= 2
    with pytest.raises(ValueError):
        oscillator3d_pair(2, 3)  # |m| > n
    a, b = oscillator3d_pair(2, 0)
    assert a.space.dims == (3, 3, 3)
    assert is_admissible(a).residual == 0.0
    assert is_admissible(b).residual == 0.0


# --- multiphoton --------------------------------------------------------------------


def test_multiphoton_exact_form():
    a, b = multiphoton_pair()
    assert np.array_equal(a.matrix, np.kron(proj(3, 0), proj(3, 0)))
    assert np.array_equal(b.matrix, np.kron(flip(3, 0, 2), flip(3, 0, 2)))


def test_multiphoton_anticommutator_is_projector_difference():
    a, b = multiphoton_pair()
    anti = CompiledWitness(a, b, 0).anticommutator  # {A,B}^G
    plus = np.zeros(9, dtype=complex)
    minus = np.zeros(9, dtype=complex)
    plus[2] = plus[6] = 1 / np.sqrt(2)
    minus[2], minus[6] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    target = np.outer(plus, plus) - np.outer(minus, minus)
    assert np.max(np.abs(anti - target)) <= 1e-12


def test_multiphoton_detection_values():
    rng = np.random.default_rng(41)
    a, b = multiphoton_pair()
    for _ in range(20):
        alpha, beta, gamma = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi = multiphoton_state(alpha, beta, gamma)
        norm_sq = abs(alpha) ** 2 + abs(beta) ** 2 + abs(gamma) ** 2
        re_ag = (np.conj(alpha) * gamma).real / norm_sq
        rep = srpt_evaluate(density_from_pure(psi), a, b)
        assert rep.lhs == 0.0
        assert rep.anticomm_term == pytest.approx(re_ag**2, abs=1e-12)


def test_multiphoton_balanced_superposition():
    psi = multiphoton_state(1 / np.sqrt(2), 0.0, 1 / np.sqrt(2))
    a, b = multiphoton_pair()
    rep = srpt_evaluate(density_from_pure(psi), a, b)
    assert rep.rhs == pytest.approx(0.25, abs=1e-12)
    assert rep.violated


# --- cat quadratures -----------------------------------------------------------------


def test_cat_quadratures_single_mode_form():
    a, _ = cat_quadratures(1.0, 0.0, 0.0, 0.0, 8)
    low = np.zeros((8, 8))
    for n in range(1, 8):
        low[n - 1, n] = np.sqrt(n)
    assert np.allclose(a.matrix, np.kron(low + low.T, np.eye(8)))


def test_cat_quadratures_commutator_term_is_constant():
    # 0.25 |<[A,B]^G>|^2 = (a1 a2 + b1 b2)^2 on any state, up to truncation
    rng = np.random.default_rng(13)
    trunc = 24
    a1, a2, b1, b2 = 0.7, -1.3, 0.4, 0.9
    a, b = cat_quadratures(a1, a2, b1, b2, trunc)
    for alpha, beta in ((0.5, 0.3), (1.0, 1.0)):
        rho = density_from_pure(cat_state(alpha, beta, trunc))
        rep = srpt_evaluate(rho, a, b, check_admissibility=False)
        assert rep.comm_term == pytest.approx((a1 * a2 + b1 * b2) ** 2, abs=1e-8)


def test_cat_quadratures_designated_choice_violates():
    alpha = beta = 1.0
    trunc = 24
    a, b = cat_quadratures(-beta, beta, alpha, -alpha, trunc)
    rho = density_from_pure(cat_state(alpha, beta, trunc))
    assert srpt_evaluate(rho, a, b).violated


def test_cat_quadratures_rejects_tiny_truncation():
    with pytest.raises(ValueError):
        cat_quadratures(1.0, 1.0, 1.0, 1.0, 3)


# --- werner pairs ---------------------------------------------------------------------


def test_werner_bipartite_pair_phi_zero():
    a, b = werner_bipartite_pair(0.0)
    assert np.allclose(b.matrix, np.kron(PAULI_X, PAULI_X))
    assert np.allclose(a.matrix, np.diag([1.0, -1.0, -1.0, 1.0]))


def test_werner_multipartite_pair_structure():
    a, b = werner_multipartite_pair(3)
    expected_a = np.zeros((8, 8))
    expected_a[3, 3] = expected_a[4, 4] = 1.0  # |011>, |100>
    assert np.array_equal(a.matrix, expected_a)
    expected_b = np.zeros((8, 8))
    expected_b[0, 7] = expected_b[7, 0] = 1.0
    expected_b[3, 4] = expected_b[4, 3] = 1.0
    assert np.array_equal(b.matrix, expected_b)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_werner_multipartite_pair_admissible(n):
    for obs in werner_multipartite_pair(n):
        assert is_admissible(obs).residual <= 1e-12


def test_werner_multipartite_rejects_single_party():
    with pytest.raises(ValueError):
        werner_multipartite_pair(1)


# --- blanket admissibility over all constructors ----------------------------------------


def test_every_constructor_output_is_admissible():
    rng = np.random.default_rng(57)
    outputs = []
    outputs += list(prop1_pair(HilbertSpace((4, 4)), 1, 3))
    outputs += [prop2_observable(rand_params(rng)) for _ in range(5)]
    for which in (1, 2, 3):
        outputs += list(prop3_triple(which))
    outputs += list(oscillator2d_pair(3))
    outputs += list(oscillator3d_pair(3, 0)) + list(oscillator3d_pair(3, 2))
    outputs += list(multiphoton_pair())
    outputs += list(cat_quadratures(0.3, -0.7, 1.1, 0.2, 12))
    outputs += list(werner_bipartite_pair(0.4))
    outputs += list(werner_multipartite_pair(4))
    for obs in outputs:
        assert is_admissible(obs).residual <= 1e-12


# --- Kronecker-term form ------------------------------------------------------------


def _dense_projector_flip(space, project, flips):
    """The matrices of projector_flip_pair as it used to assemble them, entry by entry."""
    dim = space.total_dim
    a = np.zeros((dim, dim), dtype=complex)
    for levels in project:
        a[basis_index(space, levels), basis_index(space, levels)] += 1.0
    b = np.zeros((dim, dim), dtype=complex)
    for u, v in flips:
        i, j = basis_index(space, u), basis_index(space, v)
        b[i, j] += 1.0
        b[j, i] += 1.0
    return a, b


def _recording_projector_flip(monkeypatch):
    """Patch witnesses.projector_flip_pair to also return the entry-by-entry matrices."""
    import srpt.witnesses as w

    build = w.projector_flip_pair
    monkeypatch.setattr(w, "projector_flip_pair", lambda space, project, flips: (
        build(space, project, flips), _dense_projector_flip(space, project, flips)))


PROJECTOR_FLIP_FAMILIES = (
    [("osc2d", lambda n=n: oscillator2d_pair(n)) for n in range(1, 9)]
    + [("osc3d", lambda n=n, m=m: oscillator3d_pair(n, m))
       for n in range(1, 6) for m in range(-n, n + 1) if m or n >= 2]
    + [("werner-multipartite", lambda n=n: werner_multipartite_pair(n)) for n in range(2, 11)]
    + [("prop3", lambda w=w: prop3_triple(w)) for w in (1, 2, 3)]
    + [("prop1", lambda dims=dims, i0=i0, i1=i1: prop1_pair(HilbertSpace(dims), i0, i1))
       for dims, i0, i1 in (((2, 2), 0, 1), ((3, 3), 0, 2), ((3, 4), 2, 1), ((5, 6), 4, 0))])


@pytest.mark.parametrize("family, build", PROJECTOR_FLIP_FAMILIES, ids=[
    f"{name}-{i}" for i, (name, _) in enumerate(PROJECTOR_FLIP_FAMILIES)])
def test_projector_flip_matrices_are_byte_equal_to_the_dense_assembly(family, build,
                                                                       monkeypatch):
    _recording_projector_flip(monkeypatch)
    pair, dense = build()
    for obs, want in zip(pair, dense):
        assert obs.matrix.dtype == want.dtype and obs.matrix.tobytes() == want.tobytes()


def test_large_witnesses_are_checked_for_hermiticity_without_a_matrix(monkeypatch):
    from srpt.hilbert import TermOperator

    def no_matrix(self):
        raise AssertionError("the d x d matrix was assembled")

    monkeypatch.setattr(TermOperator, "matrix", property(no_matrix))
    werner_multipartite_pair(12)
    for m in range(-8, 9):
        oscillator3d_pair(8, m)
    cat_quadratures(0.3, -0.7, 1.1, 0.2, 256)


@pytest.mark.parametrize("dims", [(5, 5), (8, 8), (16, 16), (3, 7)])
def test_checked_schmidt_aligned_prop1_pairs_pass(dims):
    from srpt.search import schmidt_aligned_prop1
    from srpt.states import random_pure

    for seed in range(3):
        psi = random_pure(dims, seed)
        s = np.linalg.svd(psi.amplitudes.reshape(dims), compute_uv=False)
        report = srpt_evaluate(psi, *schmidt_aligned_prop1(psi, 0, 1), 0)  # checked
        assert report.violated
        assert abs(report.rhs - (s[0] * s[1]) ** 2) <= 1e-12
