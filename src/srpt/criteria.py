"""Uncertainty-relation entanglement criteria.

Implements the Schrodinger-Robertson relation, its partially transposed
variant (the SRPT inequality), the observable admissibility condition
that makes the transposed variant sound, the PPT spectral test, and the
Duan two-mode variance criterion used for comparison on oscillator
states.

All evaluations are reported, not just decided: an UncertaintyReport
carries both sides of the inequality plus their decomposition so that a
violation can be traced back to the commutator or anticommutator term.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .hilbert import (
    IMAG_TOL,
    DensityMatrix,
    Observable,
    StateVector,
    TermOperator,
    aligned,
    min_eigenvalue,
    moments,
    partial_transpose_matrix,
    quadratures,
    real_part,
    require_same_space,
    require_subsystem,
)

VIOLATION_TOL = 1e-9
ADMISSIBILITY_TOL = 1e-10
DUAN_TOL = 1e-9


@dataclass(frozen=True)
class UncertaintyReport:
    """Both sides of an uncertainty inequality and their decomposition.

    lhs            product of the two variances
    comm_term      |<commutator>|^2 / 4
    anticomm_term  |<anticommutator> - 2<A><B>|^2 / 4
    rhs            comm_term + anticomm_term
    slack          rhs - lhs; positive slack beyond tolerance means violation
    """

    lhs: float
    comm_term: float
    anticomm_term: float
    rhs: float
    slack: float
    violated: bool
    violation_tol: float = VIOLATION_TOL

    to_dict = asdict


@dataclass(frozen=True)
class AdmissibilityReport:
    """Relative residual ||(M^G)^2 - (M^2)^G||_F / ||M||_F^2 at one subsystem.

    Both norms scale as s^2 under M -> sM, so the verdict does not depend on
    the scale of M.
    """

    residual: float
    admissible: bool
    adm_tol: float = ADMISSIBILITY_TOL

    to_dict = asdict


@dataclass(frozen=True)
class DuanReport:
    """Two-mode EPR-variance sum against the separability bound."""

    a_param: float
    lhs_sum: float
    bound: float
    violated: bool

    to_dict = asdict


class AdmissibilityError(ValueError):
    """Raised when an SRPT evaluation is attempted with an unsuitable observable."""

    def __init__(self, label: str, residual: float):
        self.label = label
        self.residual = residual
        super().__init__(
            f"observable {label} is not admissible: residual {residual:.3e} "
            "(its square does not commute with the partial transpose)"
        )


def _build_report(expectations: Sequence[complex]) -> UncertaintyReport:
    """The report from the expectation values, in one state, of the six
    operators of a CompiledWitness."""
    e_a, e_a_sq, e_b, e_b_sq, comm_expect, anticomm_expect = expectations
    mean_a, var_a = moments(e_a, e_a_sq)
    mean_b, var_b = moments(e_b, e_b_sq)
    lhs = var_a * var_b

    if abs(comm_expect.real) >= IMAG_TOL:
        raise ValueError(f"commutator expectation has real part {comm_expect.real}")
    comm_term = 0.25 * abs(comm_expect) ** 2

    anticomm_term = 0.25 * (real_part(anticomm_expect) - 2.0 * mean_a * mean_b) ** 2

    rhs = comm_term + anticomm_term
    slack = rhs - lhs
    return UncertaintyReport(lhs, comm_term, anticomm_term, rhs, slack, slack > VIOLATION_TOL)


def _residual(m: TermOperator, mg_sq: TermOperator, k: int) -> float:
    """||(M^G)^2 - (M^2)^G||_F / ||M||_F^2 for a Hermitian M at subsystem k,
    given (M^G)^2 = M^G @ M^G; 0 when the difference is 0, as for M = 0.
    ||M||_F^2 = ||M^G||_F^2 = tr((M^G)^2), as M^G is Hermitian too."""
    defect = m.pt_square_defect(k, mg_sq)
    return defect / mg_sq.trace().real if defect else 0.0


def _admissibility(residual: float) -> AdmissibilityReport:
    return AdmissibilityReport(residual, residual <= ADMISSIBILITY_TOL)


# Row i weighs the terms of A', A'^2, B', B'^2, (AB)' and (BA)' into operator i
# of the SRPT: A', A'^2, B', B'^2, [A,B]' = (AB)' - (BA)' and {A,B}' = (AB)' + (BA)'.
_SRPT_ROWS = np.array([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
                       [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, -1], [0, 0, 0, 0, 1, 1]])


class CompiledWitness:
    """The SRPT operators of the pair (A, B) at subsystem k, formed once.

    A', A'^2, B', B'^2, (AB)' and (BA)' are formed as TermOperators from the
    terms of A and B, where ' is the partial transpose at k, or no transpose
    when k is None, so no d x d matrix is made unless A or B is a dense
    matrix.  Their terms are held in one operator, so that a state is read
    once, and weighed into the six SRPT operators A', A'^2, B', B'^2,
    [A,B]' and {A,B}'; `commutator` and `anticommutator` assemble the last
    two from those weights.  A and B must share one space.  The admissibility
    residuals are taken from the compiled squares A'^2 and B'^2, and only
    when asked for, so an unchecked evaluation does no residual work.
    """

    __slots__ = ("a", "b", "k", "_terms", "_squares", "_stack", "_rows", "_weights")

    def __init__(self, a: Observable, b: Observable, k: int | None):
        require_same_space(a, b)
        ta, tb = aligned(a.terms, b.terms)
        a_eff, b_eff, ab_eff, ba_eff = (
            m if k is None else m.partial_transpose(k) for m in (ta, tb, ta @ tb, tb @ ta))
        self.a, self.b, self.k, self._terms = a, b, k, (ta, tb)
        self._squares = (a_eff @ a_eff, b_eff @ b_eff)
        parts = (a_eff, self._squares[0], b_eff, self._squares[1], ab_eff, ba_eff)
        self._stack = TermOperator.concatenate(parts)
        self._rows = np.repeat(_SRPT_ROWS, [len(op.coeffs) for op in parts], axis=1)
        self._weights = self._rows * self._stack.coeffs

    def _matrix(self, i: int) -> np.ndarray:
        """SRPT operator i as a d x d matrix: the terms of the stack that row i
        weighs, in stack order, with their weights."""
        used = self._rows[i] != 0
        return TermOperator(self.a.space, self._weights[i, used],
                            [f[used] for f in self._stack.factors]).matrix

    @property
    def commutator(self) -> np.ndarray:
        """[A,B]' as a d x d matrix."""
        return self._matrix(4)

    @property
    def anticommutator(self) -> np.ndarray:
        """{A,B}' as a d x d matrix."""
        return self._matrix(5)

    def _sums(self, values: np.ndarray) -> list[complex]:
        """The six operators' weighted sums of per-term values."""
        return np.einsum("it,t->i", self._weights, values).tolist()

    def expectations(self, state: StateVector | DensityMatrix) -> list[complex]:
        """The expectation values of the six operators in a pure or mixed state."""
        return self._sums(self._stack.term_expectations(state))

    def traces(self) -> list[complex]:
        """The traces of the six operators."""
        return self._sums(self._stack.term_traces())

    def admissibility(self) -> tuple[AdmissibilityReport, AdmissibilityReport]:
        """The admissibility reports of A and B at k, from the relative residual
        ||(M')^2 - (M^2)'|| / ||M||^2."""
        return tuple(_admissibility(_residual(m, m_sq, self.k))
                     for m, m_sq in zip(self._terms, self._squares))

    def check_admissibility(self) -> None:
        """Raise AdmissibilityError naming the first of A, B that is not admissible at k."""
        for label, adm in zip("AB", self.admissibility()):
            if not adm.admissible:
                raise AdmissibilityError(label, adm.residual)

    def report(self, state: StateVector | DensityMatrix) -> UncertaintyReport:
        """The report of a pure or mixed state; raises ValueError unless it lives
        on the pair's space.  Admissibility is not checked here."""
        require_same_space(state, self.a)
        return _build_report(self.expectations(state))


def sr_uncertainty(
    state: StateVector | DensityMatrix, a: Observable, b: Observable
) -> UncertaintyReport:
    """Schrodinger-Robertson relation; slack is never positive for valid states."""
    require_same_space(state, a)  # before the compile; the witness checks B against A
    return CompiledWitness(a, b, None).report(state)


def is_admissible(m: Observable, k: int = 0) -> AdmissibilityReport:
    """Check (M^G)^2 = (M^2)^G, the condition for M to be usable in the SRPT
    test, by the relative residual that CompiledWitness.admissibility reports."""
    mg = m.terms.partial_transpose(k)
    return _admissibility(_residual(m.terms, mg @ mg, k))


def srpt_evaluate(
    state: StateVector | DensityMatrix,
    a: Observable,
    b: Observable,
    k: int = 0,
    check_admissibility: bool = True,
) -> UncertaintyReport:
    """Schrodinger-Robertson inequality with every operator partially transposed.

    state is a DensityMatrix or a StateVector; a pure state is read as its
    amplitudes, never as |psi><psi|, and is never validated as a
    DensityMatrix.  A violation (slack > VIOLATION_TOL) certifies
    entanglement of the state across the (k | rest) cut, provided both
    observables are admissible at k, i.e. their relative residual
    ||(M^G)^2 - (M^2)^G|| / ||M||^2 is at most ADMISSIBILITY_TOL, whatever
    the scale of M.  The pair is compiled once into a CompiledWitness; a
    checked evaluation raises
    through its check_admissibility, as the threshold scans do, and `srpt
    check` reports the same residuals from its admissibility().  Both
    tolerances are module constants, not parameters, and the reports echo them
    (UncertaintyReport.violation_tol, AdmissibilityReport.adm_tol); the PPT
    test's tolerance is hilbert.PSD_TOL.  The unchecked mode is for pairs
    already checked (a scan's certification) and to demonstrate what goes
    wrong with unsuitable observables; with check_admissibility=False a
    "violation" on a separable state is possible and meaningless.  The prop1
    search makes one checked evaluation of its one pair.  The prop2 search,
    block-coordinate ascent over unit-norm Pauli tables with eta = 0 (four
    9 x 9 eigenproblems a sweep, until a sweep's relative rise is small or a
    sweep cap; no Nelder-Mead), scores its points without srpt_evaluate and
    certifies its best point by a checked one.
    """
    require_same_space(state, a)  # before the compile; the witness checks B against A
    witness = CompiledWitness(a, b, k)
    if check_admissibility:
        witness.check_admissibility()
    return witness.report(state)


def ppt_min_eigenvalue(state: StateVector | DensityMatrix, k: int = 0) -> float:
    """Smallest eigenvalue of the partial transpose at subsystem k; < -PSD_TOL
    certifies entanglement.  A DensityMatrix is transposed and diagonalised.
    A StateVector is never expanded: with Schmidt coefficients s_0 >= s_1 >= ...
    across the (k | rest) cut, the partial transpose of |psi><psi| has
    eigenvalues s_i^2, +-s_i s_j (i < j) and 0 (Peres, PRL 77, 1413 (1996)),
    so this is -s_0 s_1 from one SVD, or 0.0 on a one-subsystem space."""
    dims = state.space.dims
    require_subsystem(dims, k)
    if isinstance(state, DensityMatrix):
        return min_eigenvalue(partial_transpose_matrix(state.matrix, dims, k))
    amp = np.moveaxis(state.amplitudes.reshape(dims), k, 0).reshape(dims[k], -1)
    s = np.linalg.svd(amp, compute_uv=False)
    return -float(s[0] * s[1]) if len(s) > 1 else 0.0


def duan_criterion(
    state: StateVector | DensityMatrix, a_params: Sequence[float]
) -> list[DuanReport]:
    """Two-mode EPR-operator variance criterion, one report per value in a_params.

    With x = (a^dag + a)/sqrt(2), p = i(a^dag - a)/sqrt(2), the combinations
    u = |a| x1 + x2/a and v = |a| p1 - p2/a satisfy
    <(Du)^2> + <(Dv)^2> >= a^2 + 1/a^2 for every separable two-mode state.
    a may be negative, which flips the sign of the mode-2 quadratures.  The
    quadrature moments do not depend on a and are computed once, as the term
    expectations of one TermOperator; a StateVector is read as its amplitudes.
    """
    if len(state.space.dims) != 2:
        raise ValueError(f"Duan criterion needs exactly two modes, got dims {state.space.dims}")
    a_values = [float(a) for a in a_params]
    if not a_values:
        raise ValueError("a_params must not be empty")
    if 0.0 in a_values:
        raise ValueError("a_param must be nonzero")

    d1, d2 = state.space.dims
    x1, p1 = (q / math.sqrt(2) for q in quadratures(d1))
    x2, p2 = (q / math.sqrt(2) for q in quadratures(d2))
    eye1, eye2 = np.eye(d1, dtype=complex), np.eye(d2, dtype=complex)
    # per quadrature pair (q1, q2), the terms q1, q1^2, q2, q2^2 and q1 x q2
    mode1 = [f for q in (x1, p1) for f in (q, q @ q, eye1, eye1, q)]
    mode2 = [f for q in (x2, p2) for f in (eye2, eye2, q, q @ q, q)]
    terms = TermOperator(state.space, np.ones(10), (np.array(mode1), np.array(mode2)))
    values = terms.term_expectations(state).tolist()

    def pair_moments(e1, e1_sq, e2, e2_sq, e12):
        m1, var1 = moments(e1, e1_sq)
        m2, var2 = moments(e2, e2_sq)
        return var1, var2, real_part(e12) - m1 * m2

    var_x1, var_x2, cov_x = pair_moments(*values[:5])
    var_p1, var_p2, cov_p = pair_moments(*values[5:])

    reports = []
    for a_param in a_values:
        sign = 1.0 if a_param > 0 else -1.0
        a_sq = a_param * a_param
        var_u = a_sq * var_x1 + var_x2 / a_sq + 2.0 * sign * cov_x
        var_v = a_sq * var_p1 + var_p2 / a_sq - 2.0 * sign * cov_p
        lhs_sum = var_u + var_v
        bound = a_sq + 1.0 / a_sq
        reports.append(DuanReport(a_param, lhs_sum, bound, lhs_sum < bound - DUAN_TOL))
    return reports
