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
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    IMAG_TOL,
    DensityMatrix,
    Observable,
    annihilation,
    clamp_variance,
    min_eigenvalue,
    partial_transpose_matrix,
    real_part,
    real_trace_product,
    require_same_space,
    trace_product,
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

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "comm_term": self.comm_term,
            "anticomm_term": self.anticomm_term,
            "rhs": self.rhs,
            "slack": self.slack,
            "violated": self.violated,
            "violation_tol": self.violation_tol,
        }


@dataclass(frozen=True)
class AdmissibilityReport:
    """Frobenius residual of (M^G)^2 - (M^2)^G at one subsystem."""

    residual: float
    admissible: bool
    adm_tol: float = ADMISSIBILITY_TOL

    def to_dict(self) -> dict:
        return {"residual": self.residual, "admissible": self.admissible, "adm_tol": self.adm_tol}


@dataclass(frozen=True)
class DuanReport:
    """Two-mode EPR-variance sum against the separability bound."""

    a_param: float
    lhs_sum: float
    bound: float
    violated: bool

    def to_dict(self) -> dict:
        return {
            "a_param": self.a_param,
            "lhs_sum": self.lhs_sum,
            "bound": self.bound,
            "violated": self.violated,
        }


class AdmissibilityError(ValueError):
    """Raised when an SRPT evaluation is attempted with an unsuitable observable."""

    def __init__(self, label: str, residual: float):
        self.label = label
        self.residual = residual
        super().__init__(
            f"observable {label} is not admissible: residual {residual:.3e} "
            "(its square does not commute with the partial transpose)"
        )


def _build_report(
    rho_mat: np.ndarray,
    a_eff: np.ndarray,
    b_eff: np.ndarray,
    comm_eff: np.ndarray,
    anticomm_eff: np.ndarray,
) -> UncertaintyReport:
    mean_a = real_trace_product(rho_mat, a_eff)
    mean_b = real_trace_product(rho_mat, b_eff)
    lhs = (clamp_variance(real_trace_product(rho_mat, a_eff @ a_eff) - mean_a * mean_a)
           * clamp_variance(real_trace_product(rho_mat, b_eff @ b_eff) - mean_b * mean_b))

    comm_expect = trace_product(rho_mat, comm_eff)
    if abs(comm_expect.real) >= IMAG_TOL:
        raise ValueError(f"commutator expectation has real part {comm_expect.real}")
    comm_term = 0.25 * abs(comm_expect) ** 2

    anticomm_expect = real_trace_product(rho_mat, anticomm_eff)
    anticomm_term = 0.25 * (anticomm_expect - 2.0 * mean_a * mean_b) ** 2

    rhs = comm_term + anticomm_term
    slack = rhs - lhs
    return UncertaintyReport(lhs, comm_term, anticomm_term, rhs, slack, slack > VIOLATION_TOL)


def _operators(
    rho: DensityMatrix, a: Observable, b: Observable
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A, B, [A,B] and {A,B} as raw matrices, once A and B share rho's space."""
    require_same_space(rho, a)
    require_same_space(rho, b)
    ab = a.matrix @ b.matrix
    ba = b.matrix @ a.matrix
    return a.matrix, b.matrix, ab - ba, ab + ba


def sr_uncertainty(rho: DensityMatrix, a: Observable, b: Observable) -> UncertaintyReport:
    """Schrodinger-Robertson relation; slack is never positive for valid states."""
    return _build_report(rho.matrix, *_operators(rho, a, b))


def is_admissible(
    m: Observable, k: int = 0, adm_tol: float = ADMISSIBILITY_TOL
) -> AdmissibilityReport:
    """Check (M^G)^2 = (M^2)^G, the condition for M to be usable in the SRPT test."""
    dims = m.space.dims
    mg = partial_transpose_matrix(m.matrix, dims, k)
    residual_matrix = mg @ mg - partial_transpose_matrix(m.matrix @ m.matrix, dims, k)
    residual = float(np.linalg.norm(residual_matrix))
    return AdmissibilityReport(residual, residual <= adm_tol, adm_tol)


def require_admissible(a: Observable, b: Observable, k: int = 0) -> None:
    """Raise AdmissibilityError naming the first of A, B that fails is_admissible."""
    for label, obs in (("A", a), ("B", b)):
        report = is_admissible(obs, k)
        if not report.admissible:
            raise AdmissibilityError(label, report.residual)


def srpt_evaluate(
    rho: DensityMatrix,
    a: Observable,
    b: Observable,
    k: int = 0,
    check_admissibility: bool = True,
) -> UncertaintyReport:
    """Schrodinger-Robertson inequality with every operator partially transposed.

    A violation (slack > VIOLATION_TOL) certifies entanglement of rho across
    the (k | rest) cut, provided both observables are admissible at k, i.e.
    their is_admissible residual is at most ADMISSIBILITY_TOL.  Both
    tolerances are module constants, and the reports echo them
    (UncertaintyReport.violation_tol, AdmissibilityReport.adm_tol); the PPT
    test's tolerance is hilbert.PSD_TOL.  The unchecked mode exists only to
    demonstrate what goes wrong with unsuitable observables; with
    check_admissibility=False a "violation" on a separable state is possible
    and meaningless.
    """
    operators = _operators(rho, a, b)
    rho.space.check_subsystem(k)
    if check_admissibility:
        require_admissible(a, b, k)
    dims = rho.space.dims
    return _build_report(
        rho.matrix, *(partial_transpose_matrix(m, dims, k) for m in operators)
    )


def ppt_min_eigenvalue(rho: DensityMatrix, k: int = 0) -> float:
    """Smallest eigenvalue of the partial transpose; < -PSD_TOL certifies entanglement."""
    rho.space.check_subsystem(k)
    return min_eigenvalue(partial_transpose_matrix(rho.matrix, rho.space.dims, k))


def duan_criterion(rho: DensityMatrix, a_param: float) -> DuanReport:
    """Two-mode EPR-operator variance criterion.

    With x = (a^dag + a)/sqrt(2), p = i(a^dag - a)/sqrt(2), the combinations
    u = |a| x1 + x2/a and v = |a| p1 - p2/a satisfy
    <(Du)^2> + <(Dv)^2> >= a^2 + 1/a^2 for every separable two-mode state.
    a_param may be negative, which flips the sign of the mode-2 quadratures.
    """
    if len(rho.space.dims) != 2:
        raise ValueError(f"Duan criterion needs exactly two modes, got dims {rho.space.dims}")
    if a_param == 0:
        raise ValueError("a_param must be nonzero")

    a_param = float(a_param)
    d1, d2 = rho.space.dims
    rm = rho.matrix

    def quadratures(dim):
        low = annihilation(dim)
        x = (low.conj().T + low) / math.sqrt(2)
        p = 1j * (low.conj().T - low) / math.sqrt(2)
        return x, p

    x1, p1 = quadratures(d1)
    x2, p2 = quadratures(d2)
    blocks = rm.reshape(d1, d2, d1, d2)

    def mode1(op):
        return real_part(complex(np.einsum("iaja,ji->", blocks, op)))

    def mode2(op):
        return real_part(complex(np.einsum("iaib,ba->", blocks, op)))

    def moments(op1, op2):
        m1 = mode1(op1)
        m2 = mode2(op2)
        var1 = clamp_variance(mode1(op1 @ op1) - m1 * m1)
        var2 = clamp_variance(mode2(op2 @ op2) - m2 * m2)
        cov = real_trace_product(rm, np.kron(op1, op2)) - m1 * m2
        return var1, var2, cov

    sign = 1.0 if a_param > 0 else -1.0
    a_sq = a_param * a_param

    var_x1, var_x2, cov_x = moments(x1, x2)
    var_p1, var_p2, cov_p = moments(p1, p2)

    var_u = a_sq * var_x1 + var_x2 / a_sq + 2.0 * sign * cov_x
    var_v = a_sq * var_p1 + var_p2 / a_sq - 2.0 * sign * cov_p

    lhs_sum = var_u + var_v
    bound = a_sq + 1.0 / a_sq
    return DuanReport(a_param, lhs_sum, bound, lhs_sum < bound - DUAN_TOL)
