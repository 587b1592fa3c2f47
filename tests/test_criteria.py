import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srpt.criteria import (
    AdmissibilityError,
    CompiledWitness,
    duan_criterion,
    is_admissible,
    ppt_min_eigenvalue,
    sr_uncertainty,
    srpt_evaluate,
)
from srpt.hilbert import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    HilbertSpace,
    Observable,
    StateVector,
    annihilation,
    density_from_pure,
    kron_all,
    partial_transpose_matrix,
)
from srpt.states import ghz, random_pure, random_separable, schmidt_state, werner
from srpt.witnesses import (
    Prop2Params,
    cat_quadratures,
    oscillator3d_pair,
    prop1_pair,
    prop2_observable,
    prop3_triple,
    werner_bipartite_pair,
    werner_multipartite_pair,
)

from helpers import assert_same_report, basis_state, kron_observable

Q1 = HilbertSpace((2,))
Q2 = HilbertSpace((2, 2))
EPS = np.finfo(float).eps


def rand_herm(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def rand_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m)


def bad_observable():
    return Observable(Q2, np.kron(PAULI_X, PAULI_Y) + np.kron(PAULI_Y, PAULI_X))


# --- Schrodinger-Robertson relation -------------------------------------------


def test_sr_saturated_on_pauli_pair():
    rho = density_from_pure(basis_state(Q1, (0,)))
    rep = sr_uncertainty(rho, Observable(Q1, PAULI_X), Observable(Q1, PAULI_Y))
    assert rep.lhs == pytest.approx(1.0)
    assert rep.comm_term == pytest.approx(1.0)
    assert rep.anticomm_term == pytest.approx(0.0, abs=1e-14)
    assert rep.slack == pytest.approx(0.0, abs=1e-12)
    assert not rep.violated


def test_sr_maximally_mixed_kills_rhs():
    rho = DensityMatrix(Q1, np.eye(2) / 2)
    rep = sr_uncertainty(rho, Observable(Q1, PAULI_X), Observable(Q1, PAULI_Y))
    assert rep.lhs == pytest.approx(1.0)
    assert rep.rhs == pytest.approx(0.0, abs=1e-14)
    assert not rep.violated


def test_sr_common_eigenstate_all_zero():
    rho = density_from_pure(basis_state(Q1, (0,)))
    z = Observable(Q1, PAULI_Z)
    rep = sr_uncertainty(rho, z, z)
    for value in (rep.lhs, rep.comm_term, rep.anticomm_term, rep.rhs, rep.slack):
        assert value == pytest.approx(0.0, abs=1e-14)


@settings(max_examples=150)
@given(st.integers(0, 10**6))
def test_sr_never_violated(seed):
    rng = np.random.default_rng(seed)
    dims = (2, 2) if seed % 2 else (2, 3)
    d = int(np.prod(dims))
    space = HilbertSpace(dims)
    rho = DensityMatrix(space, rand_density(rng, d))
    a = Observable(space, rand_herm(rng, d))
    b = Observable(space, rand_herm(rng, d))
    rep = sr_uncertainty(rho, a, b)
    assert rep.slack <= 1e-9
    assert rep.comm_term <= rep.rhs + 1e-15  # Heisenberg restriction is weaker


def test_report_serialization_fields():
    rho = density_from_pure(basis_state(Q1, (0,)))
    rep = sr_uncertainty(rho, Observable(Q1, PAULI_X), Observable(Q1, PAULI_Y))
    doc = rep.to_dict()
    assert set(doc) == {"lhs", "comm_term", "anticomm_term", "rhs", "slack",
                        "violated", "violation_tol"}


# --- admissibility --------------------------------------------------------------


def test_sigma_xx_admissible_exactly():
    rep = is_admissible(kron_observable(PAULI_X, PAULI_X))
    assert rep.residual == 0.0
    assert rep.admissible


def test_counterexample_inadmissible():
    # B = XY + YX: (B^G)^2 = 2 (1 - ZZ) and (B^2)^G = 2 (1 + ZZ), so the residual
    # ||(B^G)^2 - (B^2)^G|| = ||4 ZZ|| = 8 equals ||B||^2 = 8 and the relative one is 1
    rep = is_admissible(bad_observable())
    assert rep.residual == pytest.approx(1.0)
    assert not rep.admissible


def test_products_always_admissible():
    rng = np.random.default_rng(11)
    for _ in range(50):
        obs = kron_observable(rand_herm(rng, 2), rand_herm(rng, 3))
        assert is_admissible(obs).residual <= 1e-12


def scaled(obs, s):
    return Observable(obs.space, s * obs.matrix)


def test_rescaled_counterexample_is_refused():
    # B's absolute residual is 8e-12 here, below ADMISSIBILITY_TOL; the relative one reads 1
    rho = basis_state(Q2, (0, 0))
    a, b = scaled(kron_observable(PAULI_X, PAULI_X), 1e6), scaled(bad_observable(), 1e-6)
    with pytest.raises(AdmissibilityError) as err:
        srpt_evaluate(rho, a, b)
    assert err.value.label == "B"
    assert err.value.residual == pytest.approx(1.0)
    assert ppt_min_eigenvalue(rho) >= 0.0  # separable: a violation here would be false


SCALE_PAIRS = [
    lambda rng: (kron_observable(PAULI_X, PAULI_X), bad_observable()),
    lambda rng: prop1_pair(HilbertSpace((3, 3)), 0, 2),
    lambda rng: (kron_observable(rand_herm(rng, 2), rand_herm(rng, 3)),
                 Observable(HilbertSpace((2, 3)), rand_herm(rng, 6))),
    lambda rng: (prop2_observable(Prop2Params(*(rng.standard_normal(3) for _ in range(4)),
                                              float(rng.standard_normal()))),
                 Observable(Q2, rand_herm(rng, 4))),
]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(SCALE_PAIRS),
       st.floats(-6.0, 6.0), st.floats(-6.0, 6.0))
def test_admissibility_does_not_depend_on_the_scale(seed, pair, log_s, log_t):
    a, b = pair(np.random.default_rng(seed))
    s, t = 10.0 ** log_s, 10.0 ** log_t
    def flags(a, b):
        return [adm.admissible for adm in CompiledWitness(a, b, 0).admissibility()]

    want = flags(a, b)
    assert flags(scaled(a, s), scaled(b, t)) == want
    assert [is_admissible(scaled(a, s)).admissible, is_admissible(scaled(b, t)).admissible] == want


def test_is_admissible_is_the_witness_residual():
    a, b = kron_observable(PAULI_X, PAULI_X), bad_observable()
    assert CompiledWitness(a, b, 0).admissibility() == (is_admissible(a), is_admissible(b))


# --- SRPT inequality -------------------------------------------------------------


def test_srpt_bell_violation():
    rho = density_from_pure(schmidt_state((1.0, 1.0), (2, 2)))
    a, b = prop1_pair(Q2, 0, 1)
    rep = srpt_evaluate(rho, a, b)
    assert rep.lhs == 0.0
    assert rep.rhs == pytest.approx(0.25, abs=1e-12)
    assert rep.violated


def test_srpt_separable_schmidt_edge():
    rho = density_from_pure(schmidt_state((1.0, 0.0), (2, 2)))
    a, b = prop1_pair(Q2, 0, 1)
    rep = srpt_evaluate(rho, a, b)
    assert rep.rhs == pytest.approx(0.0, abs=1e-14)
    assert not rep.violated


def test_srpt_werner_closed_forms():
    x = 0.6
    rho = werner(schmidt_state((1.0, 1.0), (2, 2)), x)
    rep = srpt_evaluate(rho, kron_observable(PAULI_Z, PAULI_Z), kron_observable(PAULI_X, PAULI_X))
    assert rep.lhs == pytest.approx((1 - x * x) ** 2, abs=1e-12)
    assert rep.rhs == pytest.approx(x * x * (1 + x) ** 2, abs=1e-12)
    assert rep.violated


def test_srpt_unchecked_counterexample():
    rho = density_from_pure(basis_state(Q2, (0, 0)))
    a = kron_observable(PAULI_X, PAULI_X)
    rep = srpt_evaluate(rho, a, bad_observable(), check_admissibility=False)
    assert rep.lhs == pytest.approx(0.0, abs=1e-14)
    assert rep.comm_term == pytest.approx(4.0)
    assert rep.slack == pytest.approx(4.0)
    assert rep.violated  # meaningless: the state is separable


def test_srpt_checked_mode_refuses_bad_observable():
    rho = density_from_pure(basis_state(Q2, (0, 0)))
    with pytest.raises(AdmissibilityError) as err:
        srpt_evaluate(rho, kron_observable(PAULI_X, PAULI_X), bad_observable())
    assert err.value.label == "B"
    assert err.value.residual == pytest.approx(1.0)


def test_srpt_dimension_mismatch():
    rho = density_from_pure(basis_state(Q2, (0, 0)))
    with pytest.raises(ValueError):
        srpt_evaluate(rho, Observable(Q1, PAULI_X), Observable(Q1, PAULI_Y))


def test_srpt_equals_sr_on_transposed_state():
    # with exactly admissible observables and a PPT state, evaluating the
    # transposed inequality on rho equals evaluating the plain one on rho^G
    a, b = prop1_pair(Q2, 0, 1)
    for seed in range(50):
        rho = random_separable((2, 2), terms=4, seed=seed)
        sigma = partial_transpose_matrix(rho.matrix, (2, 2), 0)
        assert min(np.linalg.eigvalsh(sigma)) >= -1e-10
        lhs_rep = srpt_evaluate(rho, a, b)
        rhs_rep = sr_uncertainty(DensityMatrix(rho.space, sigma), a, b)
        for field in ("lhs", "comm_term", "anticomm_term", "rhs", "slack"):
            assert getattr(lhs_rep, field) == pytest.approx(
                getattr(rhs_rep, field), abs=1e-12)


@settings(max_examples=100)
@given(st.integers(0, 10**6))
def test_srpt_sound_on_separable_states(seed):
    rng = np.random.default_rng(seed)
    dims = [(2, 2), (2, 3), (2, 2, 2)][seed % 3]
    rho = random_separable(dims, terms=1 + seed % 8, seed=seed)
    factors = [rand_herm(rng, d) for d in dims]
    a = Observable(rho.space, kron_all(factors))
    factors = [rand_herm(rng, d) for d in dims]
    b = Observable(rho.space, kron_all(factors))
    rep = srpt_evaluate(rho, a, b)
    assert rep.slack <= 1e-9


def swap_subsystems(m, d1, d2):
    """M on (d1, d2) as the same operator on (d2, d1), by index permutation only."""
    return m.reshape(d1, d2, d1, d2).transpose(1, 0, 3, 2).reshape(d1 * d2, d1 * d2)


@settings(max_examples=60)
@given(st.integers(0, 10**6), st.sampled_from([(2, 3), (3, 2), (3, 3)]), st.booleans())
def test_srpt_verdict_invariant_under_subsystem_relabelling(seed, dims, pure):
    d1, d2 = dims
    rho = (density_from_pure(random_pure(dims, seed)) if pure
           else random_separable(dims, terms=1 + seed % 4, seed=seed))
    i0, i1 = sorted(np.random.default_rng(seed).choice(min(dims), 2, replace=False))
    a, b = prop1_pair(rho.space, int(i0), int(i1))
    swapped = HilbertSpace((d2, d1))
    rho_s = DensityMatrix(swapped, swap_subsystems(rho.matrix, d1, d2))
    a_s, b_s = (Observable(swapped, swap_subsystems(m.matrix, d1, d2)) for m in (a, b))

    rep = srpt_evaluate(rho, a, b, 0)
    rep_s = srpt_evaluate(rho_s, a_s, b_s, 1)
    tol = 1e-12 * max(1.0, abs(rep.lhs), abs(rep.rhs))
    assert rep_s.violated == rep.violated
    assert abs(rep_s.slack - rep.slack) <= tol
    for m, m_s in ((a, a_s), (b, b_s)):
        assert abs(is_admissible(m_s, 1).residual - is_admissible(m, 0).residual) <= tol


PURE_SETTINGS = [
    ((3, 3), lambda space: prop1_pair(space, 0, 1), 0),
    ((3, 3), lambda space: prop1_pair(space, 0, 2), 1),
    ((2, 3), lambda space: prop1_pair(space, 0, 1), 0),
    ((2, 3), lambda space: prop1_pair(space, 0, 1), 1),
    ((2, 2, 2), lambda space: prop3_triple(1), 0),
    ((2, 2, 2), lambda space: prop3_triple(2), 0),
    ((2, 2, 2), lambda space: prop3_triple(3), 0),
]


@settings(max_examples=60)
@given(st.integers(0, 10**6), st.sampled_from(PURE_SETTINGS))
def test_pure_state_path_matches_the_density_path(seed, setting):
    dims, pair, k = setting
    psi = random_pure(dims, seed)
    rho = density_from_pure(psi)
    a, b = pair(psi.space)
    assert_same_report(srpt_evaluate(psi, a, b, k).to_dict(),
                       srpt_evaluate(rho, a, b, k).to_dict())
    assert_same_report(sr_uncertainty(psi, a, b).to_dict(), sr_uncertainty(rho, a, b).to_dict())
    ppt_gap = abs(ppt_min_eigenvalue(psi, k) - ppt_min_eigenvalue(rho, k))
    assert ppt_gap <= 4 * psi.space.total_dim * EPS
    if len(dims) == 2:
        grid = [0.5, -1.3, 2.0]
        for got, want in zip(duan_criterion(psi, grid), duan_criterion(rho, grid)):
            assert (got.a_param, got.bound, got.violated) == (want.a_param, want.bound,
                                                              want.violated)
            assert abs(got.lhs_sum - want.lhs_sum) <= 1e-12 * want.bound


def test_report_rejects_a_state_on_another_space():
    witness = CompiledWitness(*prop1_pair(Q2, 0, 1), 0)
    psi = random_pure((3, 3), 5)
    for state in (psi, density_from_pure(psi)):
        with pytest.raises(ValueError, match=r"space mismatch: \(3, 3\) vs \(2, 2\)"):
            witness.report(state)


def test_out_of_range_subsystem_is_rejected():
    psi = schmidt_state((1.0, 1.0), (2, 2))
    rho = density_from_pure(psi)
    a, b = prop1_pair(Q2, 0, 1)
    for k in (2, -1):  # a negative index is rejected, not counted from the end
        message = rf"subsystem index {k} out of range for dims \(2, 2\)"
        for call in (lambda: srpt_evaluate(rho, a, b, k),
                     lambda: srpt_evaluate(rho, a, b, k, check_admissibility=False),
                     lambda: is_admissible(a, k),
                     lambda: ppt_min_eigenvalue(rho, k),
                     lambda: ppt_min_eigenvalue(psi, k)):
            with pytest.raises(ValueError, match=message):
                call()


def test_srpt_blind_to_ghz_type_states_with_bipartite_pairs():
    # an observable pair supported on a common two-qubit subset sees a
    # GHZ-type state as the classical mixture of |000> and |111>
    rng = np.random.default_rng(67)
    space = HilbertSpace((2, 2, 2))
    supports = [(0, 1), (0, 2), (1, 2)]
    for trial in range(50):
        theta = rng.uniform(0.1, np.pi / 2 - 0.1)
        amp = np.zeros(8, dtype=complex)
        amp[0], amp[7] = np.cos(theta), np.sin(theta)
        rho = density_from_pure(StateVector(space, amp))
        support = supports[trial % 3]
        other = ({0, 1, 2} - set(support)).pop()
        order = [support[0], support[1], other]
        perm = [order.index(t) for t in range(3)]

        def embedded():
            if 0 in support:
                p = Prop2Params(*(rng.standard_normal(3) for _ in range(4)),
                                float(rng.standard_normal()))
                mat4 = prop2_observable(p).matrix
            else:
                mat4 = rand_herm(rng, 4)
            t = np.kron(mat4, np.eye(2, dtype=complex)).reshape((2,) * 6)
            return Observable(space, t.transpose(perm + [q + 3 for q in perm]).reshape(8, 8))

        rep = srpt_evaluate(rho, embedded(), embedded())
        assert rep.slack <= 1e-9


# --- PPT test ---------------------------------------------------------------------


def test_ppt_bell():
    rho = density_from_pure(schmidt_state((1.0, 1.0), (2, 2)))
    assert ppt_min_eigenvalue(rho) == pytest.approx(-0.5, abs=1e-12)


def test_ppt_product_state_positive():
    rho = density_from_pure(basis_state(HilbertSpace((2, 3)), (1, 2)))
    assert ppt_min_eigenvalue(rho) >= -1e-10


def test_ppt_werner_crossing_at_one_third():
    bell = schmidt_state((1.0, 1.0), (2, 2))
    assert ppt_min_eigenvalue(werner(bell, 1 / 3 - 0.01)) > -1e-10
    assert ppt_min_eigenvalue(werner(bell, 1 / 3 + 0.01)) < -1e-10


@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_ppt_of_a_two_qubit_schmidt_state_is_minus_its_coefficient_product(c0, c1):
    psi = schmidt_state((c0, c1), (2, 2))
    assert abs(ppt_min_eigenvalue(psi) + c0 * c1 / (c0 * c0 + c1 * c1)) <= 4 * EPS


@pytest.mark.parametrize("n", range(3, 21))
def test_ppt_of_ghz_is_minus_one_half_at_every_cut(n):
    psi = ghz(n)
    for k in range(n):
        assert abs(ppt_min_eigenvalue(psi, k) + 0.5) <= 4 * EPS


@pytest.mark.parametrize("dims", [(2, 3), (3, 3), (2, 2, 2)])
def test_ppt_of_a_pure_product_state_is_not_negative(dims):
    rng = np.random.default_rng(11)
    for _ in range(20):
        local = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
        psi = StateVector(HilbertSpace(dims), kron_all(v / np.linalg.norm(v) for v in local))
        for k in range(len(dims)):
            assert ppt_min_eigenvalue(psi, k) >= -4 * EPS


def test_ppt_of_a_one_subsystem_pure_state_is_zero():
    assert ppt_min_eigenvalue(StateVector(Q1, [0.6, 0.8j])) == 0.0


@settings(max_examples=20)
@given(st.integers(0, 10**6), st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2)]))
def test_ppt_of_a_state_vector_matches_its_density_matrix(seed, dims):
    # the Schmidt route and the dense eigensolver are independent algorithms
    psi = random_pure(dims, seed)
    rho = density_from_pure(psi)
    for k in range(len(dims)):
        gap = abs(ppt_min_eigenvalue(psi, k) - ppt_min_eigenvalue(rho, k))
        assert gap <= 4 * psi.space.total_dim * EPS


# --- Duan criterion -----------------------------------------------------------------


def test_duan_vacuum_saturates():
    vac = density_from_pure(basis_state(HilbertSpace((8, 8)), (0, 0)))
    rep = duan_criterion(vac, [1.0])[0]
    assert rep.lhs_sum == pytest.approx(2.0, abs=1e-12)
    assert rep.bound == pytest.approx(2.0)
    assert not rep.violated


def test_duan_squeezed_mixture_violates():
    # oracle: phase-flipped two-mode squeezed vector, r = 0.5, truncation 16;
    # the EPR variance sum is 2 exp(-2r)
    lam = math.tanh(0.5)
    dim = 16
    amp = np.zeros(dim * dim, dtype=complex)
    for n in range(dim):
        amp[n * dim + n] = (-lam) ** n
    amp /= np.linalg.norm(amp)
    rho = density_from_pure(StateVector(HilbertSpace((dim, dim)), amp))
    rep = duan_criterion(rho, [1.0])[0]
    assert rep.violated
    assert rep.lhs_sum == pytest.approx(2.0 * math.exp(-1.0), abs=1e-6)


def test_duan_rejects_bad_inputs():
    vac = density_from_pure(basis_state(HilbertSpace((4, 4)), (0, 0)))
    with pytest.raises(ValueError):
        duan_criterion(vac, [0.0])[0]
    three_modes = density_from_pure(basis_state(HilbertSpace((2, 2, 2)), (0, 0, 0)))
    with pytest.raises(ValueError):
        duan_criterion(three_modes, [1.0])[0]


def test_duan_bound_tracks_a_param():
    vac = density_from_pure(basis_state(HilbertSpace((6, 6)), (0, 0)))
    rep = duan_criterion(vac, [2.0])[0]
    assert rep.bound == pytest.approx(4.25)
    assert not rep.violated


@pytest.mark.parametrize("a_param", [1.7, -0.6])
def test_duan_unequal_mode_dims_match_kron_reference(a_param):
    # d1 != d2, so a single-mode moment contracted over the wrong mode cannot pass
    d1, d2 = 3, 5
    rho = random_separable((d1, d2), 3, 7)

    def quadratures(dim):
        low = annihilation(dim)
        return (low.conj().T + low) / math.sqrt(2), 1j * (low.conj().T - low) / math.sqrt(2)

    def var(op):
        mean = np.trace(rho.matrix @ op).real
        return np.trace(rho.matrix @ op @ op).real - mean**2

    (x1, p1), (x2, p2) = quadratures(d1), quadratures(d2)
    eye1, eye2 = np.eye(d1), np.eye(d2)
    u = abs(a_param) * np.kron(x1, eye2) + np.kron(eye1, x2) / a_param
    v = abs(a_param) * np.kron(p1, eye2) - np.kron(eye1, p2) / a_param
    rep = duan_criterion(rho, [a_param])[0]
    assert rep.lhs_sum == pytest.approx(var(u) + var(v), abs=1e-12)


def test_duan_grid_matches_single_value_calls():
    rho = random_separable((3, 5), 3, 7)
    grid = [-2.0, -0.6, 0.25, 1.7, 4.0]
    assert ([repr(r) for r in duan_criterion(rho, grid)]
            == [repr(duan_criterion(rho, [a])[0]) for a in grid])


def test_duan_cat_verdict_truncation_converged():
    # the no-violation conclusion for the cat state must not be a
    # truncation artifact: verdicts and variance sums agree at 16, 24, 32
    from srpt.states import cat_state

    a_grid = (0.25, 0.5, 1.0, 2.0, 4.0)
    sums = {}
    for trunc in (16, 24, 32):
        rho = density_from_pure(cat_state(1.0, 1.0, trunc))
        reports = [duan_criterion(rho, [a])[0] for a in a_grid]
        assert not any(r.violated for r in reports)
        sums[trunc] = np.array([r.lhs_sum for r in reports])
    assert np.max(np.abs(sums[24] - sums[16])) < 1e-6
    assert np.max(np.abs(sums[32] - sums[24])) < 1e-6


# --- Kronecker-term form against the dense one-slot form -----------------------------


def dense_pair(pair):
    return tuple(Observable(obs.space, obs.matrix) for obs in pair)


def assert_terms_match_dense(state, pair, k):
    """The report and admissibility of a term-form pair equal those of its
    dense one-slot form, up to rounding."""
    dense = dense_pair(pair)
    got, want = CompiledWitness(*pair, k), CompiledWitness(*dense, k)
    assert_same_report(got.report(state).to_dict(), want.report(state).to_dict())
    assert ([adm.admissible for adm in got.admissibility()]
            == [adm.admissible for adm in want.admissibility()])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 12), st.booleans())
def test_cat_quadrature_terms_match_the_dense_report(seed, trunc, pure):
    rng = np.random.default_rng(seed)
    pair = cat_quadratures(*rng.uniform(-2.0, 2.0, 4), trunc)
    psi = random_pure((trunc, trunc), seed)
    state = psi if pure else werner(psi, float(rng.uniform(0.1, 0.9)))
    for k in (0, 1):
        assert_terms_match_dense(state, pair, k)


FLIP_PAIRS = [
    ((3, 3), lambda: prop1_pair(HilbertSpace((3, 3)), 0, 2)),
    ((2, 4), lambda: prop1_pair(HilbertSpace((2, 4)), 1, 0)),
    ((2, 2, 2), lambda: prop3_triple(3)),
    ((3, 3, 3), lambda: oscillator3d_pair(2, 0)),
    ((2, 2, 2, 2), lambda: werner_multipartite_pair(4)),
]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(FLIP_PAIRS), st.booleans(), st.sampled_from([0, 1]))
def test_projector_flip_terms_match_the_dense_report(seed, setting, pure, k):
    dims, pair = setting
    pair = pair()
    rng = np.random.default_rng(seed)
    state = (random_pure(dims, seed) if pure
             else DensityMatrix(HilbertSpace(dims), rand_density(rng, math.prod(dims))))
    assert_terms_match_dense(state, pair, k)


def assert_commutators_are_transposed_dense_products(a, b):
    """At every k, and at k=None, the compiled [A,B]' and {A,B}' equal the
    partial transposes of AB - BA and AB + BA formed from the dense matrices."""
    ma, mb = a.matrix, b.matrix
    tol = 1e-12 * np.linalg.norm(ma) * np.linalg.norm(mb)
    for k in (None, *range(a.space.num_subsystems)):
        witness = CompiledWitness(a, b, k)
        for got, sign in ((witness.commutator, -1.0), (witness.anticommutator, 1.0)):
            want = ma @ mb + sign * (mb @ ma)
            if k is not None:
                want = partial_transpose_matrix(want, a.space.dims, k)
            assert np.max(np.abs(got - want)) <= tol, (k, sign)


@pytest.mark.parametrize("pair", [
    lambda: werner_bipartite_pair(0.4),
    lambda: werner_multipartite_pair(3),
    lambda: prop3_triple(2),
    lambda: oscillator3d_pair(3, 1),
    lambda: cat_quadratures(0.7, -1.3, 0.4, 1.1, 5),
], ids=["werner-bipartite", "werner-multipartite-3", "prop3", "osc3d-3-1", "cat-quadratures-5"])
def test_commutators_of_built_in_pairs_are_transposed_dense_products(pair):
    assert_commutators_are_transposed_dense_products(*pair())


@given(st.lists(st.floats(-3.0, 3.0), min_size=26, max_size=26))
def test_commutators_of_prop2_pairs_are_transposed_dense_products(theta):
    a = prop2_observable(Prop2Params.from_array(theta[:13]))
    b = prop2_observable(Prop2Params.from_array(theta[13:]))
    assert_commutators_are_transposed_dense_products(a, b)


def test_duan_reads_a_state_vector_without_kron_or_outer_products(monkeypatch):
    psi = random_pure((5, 4), 3)
    want = duan_criterion(density_from_pure(psi), [0.5, 1.5])

    def refuse(*args, **kwargs):
        raise AssertionError("a d x d product was formed")

    monkeypatch.setattr(np, "kron", refuse)
    monkeypatch.setattr(np, "outer", refuse)
    for got, ref in zip(duan_criterion(psi, [0.5, 1.5]), want):
        assert got.violated == ref.violated
        assert abs(got.lhs_sum - ref.lhs_sum) <= 1e-12 * ref.bound
