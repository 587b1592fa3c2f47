"""Threshold scans and witness optimization.

Detection thresholds of Werner families x |psi><psi| + (1-x) I/d are
located by bisection on a change of verdict, guarded by a coarse pre-scan
that verifies the crossing is unique.  The verdicts come from `criteria`
(SRPT) and from the PPT minimum eigenvalue against PSD_TOL.  Witness
optimization runs over parameterizations that are admissible by
construction.  The prop2 search is exact block-coordinate ascent over Pauli
tables of unit norm with eta = 0, which does not change the slack: the slack
is a quadratic form in each observable's table, so each block of a sweep is
a 9 x 9 symmetric eigenproblem and the slack never decreases.  A start stops
when a sweep raises the slack by at most PROP2_RISE_TOL of itself, or after
PROP2_MAX_SWEEPS sweeps.  There is no Nelder-Mead search, and the package
does not import scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
    TermOperator,
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
PROP2_RISE_TOL = 1e-6
PROP2_MAX_SWEEPS = 50
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


class _Prop2Forms(NamedTuple):
    """The SRPT report at subsystem 0, in one two-qubit state rho, of the prop2
    pair with Pauli-coefficient tables a and b, as forms in the tables.

    With P_m = sigma_mu x sigma_nu (m = 4 mu + nu), A = sum_m a_m P_m and
    B = sum_m b_m P_m, and A^G = sum_m s_m a_m P_m with s = _PT_SIGNS repeated
    over nu.  As tr(rho X^G) = tr(rho^G X), every expectation of the report
    is a linear or bilinear form in a and b whose matrix depends on rho alone:

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
    block is [g | K | C | S], 16 x 49, and centred is K - gg^T, the form of
    the variance.
    """

    block: np.ndarray
    centred: np.ndarray

    def report(self, tables: np.ndarray) -> UncertaintyReport:
        """The report of the pair whose tables are the rows of tables, shape
        (2, 16), from one (2 x 16) @ (16 x 49) product and no operator.  It is
        the report srpt_evaluate gives, up to rounding."""
        y = tables @ self.block
        e_a, e_b = y[:, 0].tolist()
        e_a_sq, e_b_sq = np.einsum("ij,ij->i", y[:, 1:17], tables).tolist()
        comm, anticomm = (y[0, 17:].reshape(2, 16) @ tables[1]).tolist()
        return _build_report((e_a, e_a_sq, e_b, e_b_sq, complex(0.0, comm), anticomm))

    def quadratic(self, other: np.ndarray) -> np.ndarray:
        """Q with slack = t.Q.t for the table t of either observable, the
        other's table fixed at other: Q = cc^T/4 + ww^T/4 - Var(other)(K - gg^T)
        with c = C.other and w = S.other - 2<other>g.  C is antisymmetric, so
        the sign of c, the one place where A and B differ, drops out.  The
        identity entry of t is a null direction of Q, so A -> A + eta 1 leaves
        the slack unchanged."""
        y = other @ self.block
        mean = y[0]
        v = np.stack([y[17:33], y[33:] - 2.0 * mean * self.block[:, 0]])
        return 0.25 * (v.T @ v) - (other @ y[1:17] - mean * mean) * self.centred


def _compile_prop2(rho: DensityMatrix) -> _Prop2Forms:
    """The forms of the prop2 report in rho, formed once per state."""
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
    return _Prop2Forms(block, block[:, 1:17] - np.outer(block[:, 0], block[:, 0]))


def _prop2_block(q: np.ndarray, row: np.ndarray, free: int) -> tuple[np.ndarray, float]:
    """The Prop2Params array of one observable with the largest t.Q.t / |t|^2
    over its table t at fixed direction of b (free = 0) or of a (free = 1),
    and that largest value.  With the fixed vector f at unit length and
    eta = 0, which Q does not see, t is an isometric linear image of the free
    vector, c and d, so the maximum is the top eigenpair of a 9 x 9 symmetric
    matrix, and the new table has |t| = 1.  The table of row is one of those
    t, so its value is never above the result's."""
    fixed = row[:12].reshape(4, 3)[1 - free]
    norm = math.sqrt(fixed @ fixed)
    eye = np.eye(3)
    fixed = fixed / norm if norm > 0.0 else eye[0]  # a zero block is f 0^T for any f
    # t[mu, nu] from the coordinates x (free vector), c = t[0, 1:] and d = t[1:, 0]
    basis = np.zeros((4, 4, 9))
    basis[0, 1:, 3:6] = basis[1:, 0, 6:] = eye
    # t[1 + i, 1 + j] = x_i f_j (a free) or f_i x_j (b free)
    basis[1:, 1:, :3] = eye[:, None] * fixed[:, None] if free == 0 else fixed[:, None, None] * eye
    basis = basis.reshape(16, 9)
    values, eigenvectors = np.linalg.eigh(basis.T @ q @ basis)
    out = np.zeros(13)
    vectors = out[:12].reshape(4, 3)  # a view: a, b, c, d
    vectors[1 - free] = fixed
    vectors[[free, 2, 3]] = eigenvectors[:, -1].reshape(3, 3)
    return out, float(values[-1])


def _prop2_sweep(forms: _Prop2Forms, params: np.ndarray) -> tuple[np.ndarray, float]:
    """One sweep of block-coordinate ascent on the Prop2Params arrays of a pair,
    shape (2, 13): a, then b, of A against the form of B's table, then of B
    against A's.  Returns the new arrays, whose tables have unit norm and
    eta = 0, and their slack."""
    params = params.copy()
    for i in (0, 1):
        q = forms.quadratic(_prop2_tables(params)[1 - i].reshape(16))
        for free in (0, 1):
            params[i], value = _prop2_block(q, params[i], free)
    return params, value


def _maximize_prop2(rho: DensityMatrix, restarts: int, seed) -> SearchResult:
    """Block-coordinate ascent from seeded starts on the forms of rho, compiled
    once; the best point is then evaluated by a checked srpt_evaluate of its
    prop2_observable pair, which must give the same verdict."""
    if rho.space.dims != (2, 2):
        raise ValueError(f"the prop2 family needs a (2, 2) space, got {rho.space.dims}")
    if restarts < 1:
        raise ValueError(f"the prop2 search needs restarts >= 1, got {restarts!r}")
    forms = _compile_prop2(rho)
    rng = np.random.default_rng(seed)
    best_value, best = -math.inf, None
    for _ in range(restarts):
        params = rng.uniform(-2.0, 2.0, size=26).reshape(2, 13)
        value = -math.inf
        for _ in range(PROP2_MAX_SWEEPS):
            previous = value
            params, value = _prop2_sweep(forms, params)
            if value - previous <= PROP2_RISE_TOL * abs(value):
                break
        if value > best_value:
            best_value, best = value, params

    a, b = (prop2_observable(Prop2Params.from_array(p)) for p in best)
    report = srpt_evaluate(rho, a, b, 0)
    if report.violated != forms.report(_prop2_tables(best).reshape(2, 16)).violated:
        raise ArithmeticError("compiled and checked prop2 verdicts differ at the best point")
    return SearchResult(best.reshape(26), report, restarts)


def schmidt_aligned_prop1(psi: StateVector, i0: int, i1: int) -> tuple[Observable, Observable]:
    """Projector/flip pair rotated into the local Schmidt frames of psi.

    The rotation is chosen so that evaluating the SRPT report in the
    computational basis reproduces, term by term, the report of the plain
    pair on the Schmidt-form state: the partial transpose conjugates the
    first local frame, so the first factor is rotated by its conjugate.
    The pair is |i0><i0| x |i1><i1| and X x X, X = |i0><i1| + |i1><i0|, so each
    factor F is rotated alone, as the exactly Hermitian (F + F^dagger)/2.
    """
    _require_instance(psi, StateVector)
    a_std, _ = prop1_pair(psi.space, i0, i1)
    u, _, vt = np.linalg.svd(psi.amplitudes.reshape(psi.space.dims))
    stacks = []  # per slot: the rotated projector factor, then the rotated X
    for frame, projector in zip((u.conj(), vt.T), a_std.terms.factors):
        f = np.concatenate([projector, np.zeros_like(projector)])
        f[1, [i0, i1], [i1, i0]] = 1.0
        r = frame @ f @ frame.conj().T
        stacks.append(0.5 * (r + r.conj().swapaxes(1, 2)))
    return tuple(Observable(psi.space, TermOperator(psi.space, a_std.terms.coeffs,
                                                    [f[t:t + 1] for f in stacks])) for t in (0, 1))


def _maximize_prop1(rho: DensityMatrix) -> SearchResult:
    """The checked report of the Schmidt-aligned pair at levels 0 and 1, which the
    SVD gives the two largest coefficients: slack (s_0 s_1)^2 (Proposition 1).
    rho needs tr rho^2 >= 1 - 1e-9, a lower bound on its largest eigenvalue; psi, up to
    a phase the pair cancels, is its normalised column with the largest diagonal entry."""
    if rho.space.num_subsystems != 2:
        raise ValueError(f"the prop1 family needs a bipartite space, got {rho.space.dims}")
    m = rho.matrix
    if np.vdot(m, m).real < 1.0 - 1e-9:
        raise ValueError("the prop1 family needs a pure state (rank-1 density matrix)")
    column = m[:, np.argmax(m.diagonal().real)]
    psi = StateVector(rho.space, column / np.linalg.norm(column))
    report = srpt_evaluate(rho, *schmidt_aligned_prop1(psi, 0, 1), 0)
    return SearchResult(np.array([0.0, 1.0]), report, 0)


def maximize_violation(
    rho: DensityMatrix, family: str, restarts: int = 20, seed=None
) -> SearchResult:
    """Maximize SRPT slack over an admissible-by-construction witness family.

    family "prop2": two independent admissible two-qubit observables on a
    (2, 2) space, by block-coordinate ascent from restarts seeded uniform
    starts; no Nelder-Mead is run.  Each sweep solves four 9 x 9 symmetric
    eigenproblems, for (a, c, d) and (b, c, d) of A, then of B, so the slack
    never decreases; a start stops when a sweep raises it by at most
    PROP2_RISE_TOL of itself, or after PROP2_MAX_SWEEPS sweeps.  best_params
    holds the best pair's 26 Prop2Params values, with Pauli tables of unit
    norm and eta = 0, which does not change the slack; best_report is its
    checked srpt_evaluate.  family "prop1": one checked evaluation of the
    projector/flip pair at psi's two largest Schmidt coefficients, the best by
    Proposition 1; psi is rho's normalised column with the largest diagonal
    entry, and rho needs tr rho^2 >= 1 - 1e-9.  restarts and seed are unused.
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
