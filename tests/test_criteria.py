import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srpt.criteria import (
    AdmissibilityError,
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
    ket,
    kron_all,
    partial_transpose,
    tensor,
)
from srpt.states import random_separable, schmidt_state, werner
from srpt.witnesses import Prop2Params, prop1_pair, prop2_observable

Q1 = HilbertSpace((2,))
Q2 = HilbertSpace((2, 2))


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
    rho = density_from_pure(ket(Q1, (0,)))
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
    rho = density_from_pure(ket(Q1, (0,)))
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
    rho = density_from_pure(ket(Q1, (0,)))
    rep = sr_uncertainty(rho, Observable(Q1, PAULI_X), Observable(Q1, PAULI_Y))
    doc = rep.to_dict()
    assert set(doc) == {"lhs", "comm_term", "anticomm_term", "rhs", "slack",
                        "violated", "violation_tol"}


# --- admissibility --------------------------------------------------------------


def test_sigma_xx_admissible_exactly():
    rep = is_admissible(tensor(PAULI_X, PAULI_X))
    assert rep.residual == 0.0
    assert rep.admissible


def test_counterexample_inadmissible():
    rep = is_admissible(bad_observable())
    assert rep.residual == pytest.approx(8.0)
    assert not rep.admissible


def test_products_always_admissible():
    rng = np.random.default_rng(11)
    for _ in range(50):
        obs = tensor(rand_herm(rng, 2), rand_herm(rng, 3))
        assert is_admissible(obs).residual <= 1e-12


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
    rep = srpt_evaluate(rho, tensor(PAULI_Z, PAULI_Z), tensor(PAULI_X, PAULI_X))
    assert rep.lhs == pytest.approx((1 - x * x) ** 2, abs=1e-12)
    assert rep.rhs == pytest.approx(x * x * (1 + x) ** 2, abs=1e-12)
    assert rep.violated


def test_srpt_unchecked_counterexample():
    rho = density_from_pure(ket(Q2, (0, 0)))
    a = tensor(PAULI_X, PAULI_X)
    rep = srpt_evaluate(rho, a, bad_observable(), check_admissibility=False)
    assert rep.lhs == pytest.approx(0.0, abs=1e-14)
    assert rep.comm_term == pytest.approx(4.0)
    assert rep.slack == pytest.approx(4.0)
    assert rep.violated  # meaningless: the state is separable


def test_srpt_checked_mode_refuses_bad_observable():
    rho = density_from_pure(ket(Q2, (0, 0)))
    with pytest.raises(AdmissibilityError) as err:
        srpt_evaluate(rho, tensor(PAULI_X, PAULI_X), bad_observable())
    assert err.value.label == "B"
    assert err.value.residual == pytest.approx(8.0)


def test_srpt_dimension_mismatch():
    rho = density_from_pure(ket(Q2, (0, 0)))
    with pytest.raises(ValueError):
        srpt_evaluate(rho, Observable(Q1, PAULI_X), Observable(Q1, PAULI_Y))


def test_srpt_equals_sr_on_transposed_state():
    # with exactly admissible observables and a PPT state, evaluating the
    # transposed inequality on rho equals evaluating the plain one on rho^G
    a, b = prop1_pair(Q2, 0, 1)
    for seed in range(50):
        rho = random_separable((2, 2), terms=4, seed=seed)
        sigma = partial_transpose(rho, 0)
        assert min(np.linalg.eigvalsh(sigma.matrix)) >= -1e-10
        lhs_rep = srpt_evaluate(rho, a, b)
        rhs_rep = sr_uncertainty(DensityMatrix(sigma.space, sigma.matrix), a, b)
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
    rho = density_from_pure(ket(HilbertSpace((2, 3)), (1, 2)))
    assert ppt_min_eigenvalue(rho) >= -1e-10


def test_ppt_werner_crossing_at_one_third():
    bell = schmidt_state((1.0, 1.0), (2, 2))
    assert ppt_min_eigenvalue(werner(bell, 1 / 3 - 0.01)) > -1e-10
    assert ppt_min_eigenvalue(werner(bell, 1 / 3 + 0.01)) < -1e-10


# --- Duan criterion -----------------------------------------------------------------


def test_duan_vacuum_saturates():
    vac = density_from_pure(ket(HilbertSpace((8, 8)), (0, 0)))
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
    vac = density_from_pure(ket(HilbertSpace((4, 4)), (0, 0)))
    with pytest.raises(ValueError):
        duan_criterion(vac, [0.0])[0]
    three_modes = density_from_pure(ket(HilbertSpace((2, 2, 2)), (0, 0, 0)))
    with pytest.raises(ValueError):
        duan_criterion(three_modes, [1.0])[0]


def test_duan_bound_tracks_a_param():
    vac = density_from_pure(ket(HilbertSpace((6, 6)), (0, 0)))
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
