"""Threshold scans and witness optimization.

Detection thresholds of Werner families x |psi><psi| + (1-x) I/d are
located by bisection on a change of verdict, guarded by a coarse pre-scan
that verifies the crossing is unique.  The verdicts come from `criteria`
(SRPT) and from the PPT minimum eigenvalue against PSD_TOL.  Witness
optimization is derivative-free (Nelder-Mead with uniform random restarts)
over parameterizations that are admissible by construction.  The Nelder-Mead
of `_nelder_mead` is a step-for-step port of scipy's `minimize(method=
"Nelder-Mead")` for the one configuration used, so the package does not
import scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .criteria import (
    CompiledWitness,
    UncertaintyReport,
    _build_report,
    ppt_min_eigenvalue,
    srpt_evaluate,
)
from .hilbert import (
    PSD_TOL,
    DensityMatrix,
    Observable,
    StateVector,
    hermitian_eigensystem,
    partial_transpose_matrix,
    require_same_space,
)
from .states import schmidt_state, werner
from .witnesses import (
    _PAULI_BASIS,
    _PT_SIGNS,
    Prop2Params,
    _prop2_tables,
    prop1_pair,
    prop2_observable,
    werner_bipartite_pair,
)

PRESCAN_POINTS = 21
NM_MAX_ITER = 500
NM_XATOL = 1e-8
NM_FATOL = 1e-12
PROP2_NORM_BOUND = 4.0
WERNER_AGREEMENT_TOL = 1e-4


@dataclass(frozen=True)
class ThresholdResult:
    """Bisection output: the critical mixing parameter with its bracket."""

    x_critical: float
    bracket: tuple[float, float]
    tolerance: float
    evaluations: int

    def to_dict(self) -> dict:
        return {
            "x_critical": self.x_critical,
            "bracket_lo": self.bracket[0],
            "bracket_hi": self.bracket[1],
            "tolerance": self.tolerance,
            "evaluations": self.evaluations,
        }


@dataclass(frozen=True)
class SearchResult:
    best_params: np.ndarray
    best_report: UncertaintyReport
    restarts_used: int


@dataclass(frozen=True)
class WernerFormulaAudit:
    """Numeric Werner threshold next to two readings of the closed formula.

    linear_formula uses the radicand 1 + 32 r with r = Re(e^{-i phi} a* b),
    and is NaN, reported as null, where 1 + 32 r < 0; squared_formula uses
    1 + 32 r^2.  Both readings are reported so a disagreement is surfaced
    rather than silently resolved.
    """

    result: ThresholdResult
    linear_formula: float
    squared_formula: float
    linear_agrees: bool
    squared_agrees: bool

    def to_dict(self) -> dict:
        out = self.result.to_dict()
        out.update(
            {
                "linear_formula": None if math.isnan(self.linear_formula) else self.linear_formula,
                "squared_formula": self.squared_formula,
                "linear_agrees": self.linear_agrees,
                "squared_agrees": self.squared_agrees,
            }
        )
        return out


class NoCrossingError(RuntimeError):
    """The pre-scan found no sign change on [0, 1]."""


def _bisect_crossing(detected: Callable[[float], bool], tol: float) -> ThresholdResult:
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")
    xs = np.linspace(0.0, 1.0, PRESCAN_POINTS)
    flags = [detected(float(x)) for x in xs]
    evaluations = len(flags)

    changes = [i for i in range(len(flags) - 1) if flags[i] != flags[i + 1]]
    if not changes:
        raise NoCrossingError("no sign change found on [0, 1]")
    if len(changes) > 1 or flags[0]:
        raise ValueError(f"crossing is not monotone on the pre-scan grid: flags {flags}")

    lo, hi = float(xs[changes[0]]), float(xs[changes[0] + 1])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent floats
            break
        evaluations += 1
        if detected(mid):
            hi = mid
        else:
            lo = mid
    return ThresholdResult(0.5 * (lo + hi), (lo, hi), tol, evaluations)


def _certified_scan(
    detected: Callable[[float], bool], dense_detected: Callable[[float], bool], tol: float
) -> ThresholdResult:
    """Bisect on detected, then evaluate dense_detected once at the bracket's
    upper end; raises ArithmeticError if the two verdicts differ there.  The
    dense evaluation is not counted in the result's evaluations."""
    result = _bisect_crossing(detected, tol)
    hi = result.bracket[1]
    if dense_detected(hi) != detected(hi):
        raise ArithmeticError(f"compiled and dense verdicts differ at x = {hi!r}")
    return result


def _require_instance(value, cls: type) -> None:
    if not isinstance(value, cls):
        raise TypeError(f"expected {cls.__name__}, got {type(value).__name__}")


def threshold_scan(
    psi: StateVector, a: Observable, b: Observable, k: int = 0, tol: float = 1e-6
) -> ThresholdResult:
    """Critical x above which the SRPT pair (a, b) detects werner(psi, x),
    the family x |psi><psi| + (1-x) I/d.

    The pair is compiled and checked for admissibility once.  Every
    expectation value is affine in x, so <psi|O|psi> and tr(O)/d are taken
    once per operator, from its terms, and each scan point costs O(1).  The
    point at the bracket's upper end is then evaluated densely, by an
    unchecked srpt_evaluate of werner(psi, x), and must give the same
    verdict.
    """
    _require_instance(psi, StateVector)
    require_same_space(psi, a)
    witness = CompiledWitness(a, b, k)
    witness.check_admissibility()
    d = psi.space.total_dim
    ends = list(zip(witness.expectations(psi), [tr / d for tr in witness.traces()]))

    def detected(x: float) -> bool:
        return _build_report([x * pure + (1.0 - x) * mixed for pure, mixed in ends]).violated

    return _certified_scan(
        detected,
        lambda x: srpt_evaluate(werner(psi, x), a, b, k, check_admissibility=False).violated,
        tol,
    )


def ppt_threshold_scan(psi: StateVector, k: int = 0, tol: float = 1e-6) -> ThresholdResult:
    """Critical x above which werner(psi, x) fails the PPT test.

    The identity is invariant under partial transposition, so the lowest
    eigenvalue of werner(psi, x)^G is x mu + (1-x)/d, with mu that of
    (|psi><psi|)^G, computed once; each scan point costs O(1).  The point at
    the bracket's upper end is then evaluated densely and must agree.
    """
    _require_instance(psi, StateVector)
    mu = ppt_min_eigenvalue(psi, k)
    d = psi.space.total_dim
    return _certified_scan(
        lambda x: x * mu + (1.0 - x) / d < -PSD_TOL,
        lambda x: ppt_min_eigenvalue(werner(psi, x), k) < -PSD_TOL,
        tol,
    )


# --- witness optimization ------------------------------------------------------


def _clip_prop2(theta: np.ndarray) -> np.ndarray:
    """Compactify the search space: theta as rows of 13 Prop2Params values,
    each vector scaled down to norm <= 4 and eta clipped to [-4, 4]."""
    v = np.array(theta, dtype=float).reshape(-1, 13)
    vectors = v[:, :12].reshape(-1, 4, 3)
    norms = np.sqrt(np.add.reduce(vectors * vectors, axis=2, keepdims=True))
    v[:, :12] = (vectors * (PROP2_NORM_BOUND / np.maximum(norms, PROP2_NORM_BOUND))).reshape(-1, 12)
    v[:, 12] = np.minimum(np.maximum(v[:, 12], -PROP2_NORM_BOUND), PROP2_NORM_BOUND)
    return v


def _clipped_prop2(values: np.ndarray) -> Prop2Params:
    """The Prop2Params of 13 search values, clipped as the search scores them."""
    return Prop2Params.from_array(_clip_prop2(values)[0])


def _compile_prop2(rho: DensityMatrix) -> Callable[[np.ndarray], UncertaintyReport]:
    """The SRPT report at subsystem 0, in rho, of the prop2 pair with the 26
    clipped parameters theta, as a function of theta.

    With P_m = sigma_mu x sigma_nu (m = 4 mu + nu), A = sum_m a_m P_m and
    B = sum_m b_m P_m for the real Pauli-coefficient tables a and b, and
    A^G = sum_m s_m a_m P_m with s = _PT_SIGNS repeated over nu.  As
    tr(rho X^G) = tr(rho^G X), every expectation of the report is a linear or
    bilinear form in a and b whose matrix depends on rho alone:

      <A^G>         = g.a        g_m = tr(rho^G P_m)
      <(A^G)^2>     = a.K.a      K   = diag(s) Re(R + R^T)/2 diag(s)
      <[A,B]^G>     = i a.C.b    C   = Im(G - G^T)
      <{A,B}^G>     = a.S.b      S   = Re(G + G^T)

    with R_mn = tr(rho P_m P_n) and G_mn = tr(rho^G P_m P_n), and the same
    for B.  (A^G)^2 = sum_mn s_m s_n a_m a_n P_m P_n, and a.R.a only sees the
    symmetric part of R.  rho and rho^G are Hermitian, so R^T = conj(R) and
    G^T = conj(G): the symmetric part of R is real, (R + R^T)/2 = Re(R), and
    G - G^T = 2i Im(G) is purely imaginary, as is the commutator's
    expectation, whose real part is therefore set to exactly 0.
    The block [g | K | C | S], 16 x 49, is formed once; a point then costs
    one clip, one table fill and one (2 x 16) @ (16 x 49) product, and forms
    no operator.  The report is the one srpt_evaluate gives, up to rounding.
    """
    basis = _PAULI_BASIS.reshape(16, 4, 4)
    pairs = np.einsum("mij,njk->mnik", basis, basis).reshape(256, 16)  # P_m P_n
    rho_t = rho.matrix.T.reshape(16)  # tr(rho X) = rho_t @ X.reshape(16)
    rho_g_t = partial_transpose_matrix(rho.matrix, (2, 2), 0).T.reshape(16)
    r = (pairs @ rho_t).reshape(16, 16)
    g = (pairs @ rho_g_t).reshape(16, 16)
    signs = np.repeat(_PT_SIGNS, 4)
    block = np.column_stack([(_PAULI_BASIS @ rho_g_t).real,
                             signs[:, None] * (0.5 * (r + r.T)).real * signs,
                             (g - g.T).imag, (g + g.T).real])

    def report(theta: np.ndarray) -> UncertaintyReport:
        tables = _prop2_tables(_clip_prop2(theta)).reshape(2, 16)
        y = tables @ block
        e_a, e_b = y[:, 0].tolist()
        e_a_sq, e_b_sq = np.einsum("ij,ij->i", y[:, 1:17], tables).tolist()
        comm, anticomm = (y[0, 17:].reshape(2, 16) @ tables[1]).tolist()
        return _build_report((e_a, e_a_sq, e_b, e_b_sq, complex(0.0, comm), anticomm))

    return report


def _nelder_mead(f: Callable[[np.ndarray], float], x0: np.ndarray) -> tuple[np.ndarray, float]:
    """(best vertex, least value) of the Nelder-Mead simplex search for a
    minimum of f from x0 (Nelder & Mead, Comput. J. 7, 308 (1965)).

    A step-for-step port of scipy's `_minimize_neldermead` without bounds or
    adaptive coefficients, with maxiter=NM_MAX_ITER, xatol=NM_XATOL,
    fatol=NM_FATOL and no limit on evaluations: it makes the same calls of f
    and returns the same bits as scipy's x and fun.  f must not modify its
    argument.
    """
    n = len(x0)
    sim = np.tile(np.asarray(x0, dtype=float), (n + 1, 1))
    steps = np.arange(n)
    sim[steps + 1, steps] = np.where(sim[0] != 0, 1.05 * sim[0], 0.00025)

    def by_value(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    # scipy sorts twice; the second argsort may reorder the ties of the first
    sim, fsim = by_value(*by_value(sim, np.array([f(x) for x in sim], dtype=float)))
    iterations = 1
    while iterations < NM_MAX_ITER:
        if (np.max(np.abs(fsim[0] - fsim[1:])) <= NM_FATOL
                and np.max(np.abs(sim[1:] - sim[0])) <= NM_XATOL):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]  # reflect
        fxr = f(xr)
        shrink = False
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]  # expand
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = 1.5 * xbar - 0.5 * sim[-1]  # contract outside
            fxc = f(xc)
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            xcc = 0.5 * xbar + 0.5 * sim[-1]  # contract inside
            fxcc = f(xcc)
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                fsim[j] = f(sim[j])
        iterations += 1
        sim, fsim = by_value(sim, fsim)
    return sim[0], np.min(fsim)


def _maximize_prop2(rho: DensityMatrix, restarts: int, seed) -> SearchResult:
    """Nelder-Mead restarts on the compiled report; the best point is then
    evaluated by a checked srpt_evaluate of its prop2_observable pair, which
    must give the same verdict."""
    if rho.space.dims != (2, 2):
        raise ValueError(f"the prop2 family needs a (2, 2) space, got {rho.space.dims}")
    if restarts < 1:
        raise ValueError(f"the prop2 search needs restarts >= 1, got {restarts!r}")
    compiled = _compile_prop2(rho)

    def negative_slack(theta: np.ndarray) -> float:
        return -compiled(theta).slack

    rng = np.random.default_rng(seed)
    best_value = math.inf
    best_theta = None
    for _ in range(restarts):
        theta0 = rng.uniform(-2.0, 2.0, size=26)
        theta, value = _nelder_mead(negative_slack, theta0)
        if value < best_value:
            best_value = value
            best_theta = theta

    a = prop2_observable(_clipped_prop2(best_theta[:13]))
    b = prop2_observable(_clipped_prop2(best_theta[13:]))
    report = srpt_evaluate(rho, a, b, 0)
    if report.violated != compiled(best_theta).violated:
        raise ArithmeticError("compiled and checked prop2 verdicts differ at the best point")
    return SearchResult(np.array(best_theta), report, restarts)


def _pure_vector(rho: DensityMatrix) -> StateVector:
    vals, vecs = hermitian_eigensystem(rho.matrix)
    if vals[-1] < 1.0 - 1e-9:
        raise ValueError("the prop1 family needs a pure state (rank-1 density matrix)")
    return StateVector(rho.space, vecs[:, -1])


def schmidt_aligned_prop1(psi: StateVector, i0: int, i1: int) -> tuple[Observable, Observable]:
    """Projector/flip pair rotated into the local Schmidt frames of psi.

    The rotation is chosen so that evaluating the SRPT report in the
    computational basis reproduces, term by term, the report of the plain
    pair on the Schmidt-form state: the partial transpose conjugates the
    first local frame, so the first factor is rotated by its conjugate.
    """
    d1, d2 = psi.space.dims
    u, _, vt = np.linalg.svd(psi.amplitudes.reshape(d1, d2))
    a_std, b_std = prop1_pair(psi.space, i0, i1)
    frame = np.kron(u.conj(), vt.T)
    a = Observable(psi.space, frame @ a_std.matrix @ frame.conj().T)
    b = Observable(psi.space, frame @ b_std.matrix @ frame.conj().T)
    return a, b


def _maximize_prop1(rho: DensityMatrix) -> SearchResult:
    """The checked report of the Schmidt-aligned pair at levels 0 and 1, which the
    SVD gives the two largest coefficients: slack (s_0 s_1)^2 (Proposition 1)."""
    if rho.space.num_subsystems != 2:
        raise ValueError(f"the prop1 family needs a bipartite space, got {rho.space.dims}")
    report = srpt_evaluate(rho, *schmidt_aligned_prop1(_pure_vector(rho), 0, 1), 0)
    return SearchResult(np.array([0.0, 1.0]), report, 0)


def maximize_violation(
    rho: DensityMatrix, family: str, restarts: int = 20, seed=None
) -> SearchResult:
    """Maximize SRPT slack over an admissible-by-construction witness family.

    family "prop2": two independent admissible two-qubit observables on a
    (2, 2) space, optimized with Nelder-Mead restarts from seed.  family
    "prop1": the projector/flip pair of a pure bipartite state aligned with its
    two largest Schmidt coefficients, which Proposition 1 makes the best pair
    of the family; one checked evaluation, and restarts and seed are unused.
    rho must be a DensityMatrix and restarts an int (not a bool), whatever
    the family; raises TypeError otherwise.
    """
    _require_instance(rho, DensityMatrix)
    if isinstance(restarts, bool) or not isinstance(restarts, (int, np.integer)):
        raise TypeError(f"restarts must be an int, got {type(restarts).__name__}")
    if family == "prop2":
        return _maximize_prop2(rho, restarts, seed)
    if family == "prop1":
        return _maximize_prop1(rho)
    raise ValueError(f"unknown witness family {family!r}")


def werner_phi_threshold(
    a: complex, b: complex, phi: float, tol: float = 1e-6
) -> WernerFormulaAudit:
    """Numeric Werner detection threshold plus both closed-formula readings.

    The threshold is always taken from the bisection scan, never from a
    formula; the two formula values are attached for comparison.
    """
    a, b = complex(a), complex(b)
    norm = abs(a) ** 2 + abs(b) ** 2
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"|a|^2 + |b|^2 = {norm}, expected 1")

    psi = schmidt_state((a, b), (2, 2))
    obs_a, obs_b = werner_bipartite_pair(phi)
    result = threshold_scan(psi, obs_a, obs_b, tol=tol)

    r = (np.exp(-1j * phi) * np.conj(a) * b).real
    linear = 2.0 / (1.0 + math.sqrt(1.0 + 32.0 * r)) if 1.0 + 32.0 * r >= 0 else math.nan
    squared = 2.0 / (1.0 + math.sqrt(1.0 + 32.0 * r * r))
    return WernerFormulaAudit(
        result,
        linear,
        squared,
        linear_agrees=abs(result.x_critical - linear) <= WERNER_AGREEMENT_TOL,
        squared_agrees=abs(result.x_critical - squared) <= WERNER_AGREEMENT_TOL,
    )
