"""Factories for the state families under study.

Oscillator angular-momentum eigenstates are built on fixed-total-quanta
subspaces: the angular momentum operators conserve the total quanta n, so
they are assembled directly on the number states of one n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    DensityMatrix,
    HilbertSpace,
    StateVector,
    hermitian_eigensystem,
    kron_all,
)

EIGEN_RESIDUAL_TOL = 1e-9
COEFF_TOL = 1e-9
CAT_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class OscillatorEigenstate:
    """Joint eigenstate of energy and angular momentum on a fixed-n subspace.

    quantum_numbers is (M,) in two dimensions and (l, m) in three.
    coeffs holds the expansion in the fixed-n number basis: c[i] multiplies
    |i, n-i> in 2D; c[i, j] multiplies |j, i-j, n-i> in 3D (zero for j > i).
    """

    n: int
    quantum_numbers: tuple[int, ...]
    coeffs: np.ndarray
    vector: StateVector


def _normalized(space: HilbertSpace, amp: np.ndarray) -> StateVector:
    """amp / |amp| as a StateVector; raises if amp is zero."""
    norm = np.linalg.norm(amp)
    if norm == 0:
        raise ValueError("all coefficients are zero")
    return StateVector(space, amp / norm)


def schmidt_state(coeffs, dims: tuple[int, int]) -> StateVector:
    """Normalized sum_i c_i |i>|i> on a bipartite space."""
    space = HilbertSpace(dims)
    if space.num_subsystems != 2:
        raise ValueError(f"a Schmidt state needs exactly two subsystems, got dims {space.dims}")
    d1, d2 = space.dims
    c = np.asarray(coeffs, dtype=complex).reshape(-1)
    if len(c) > min(d1, d2):
        raise ValueError(f"{len(c)} Schmidt coefficients do not fit in dims ({d1}, {d2})")
    norm = np.linalg.norm(c)
    if norm == 0:
        raise ValueError("all Schmidt coefficients are zero")
    amp = np.zeros(space.total_dim, dtype=complex)
    for i, ci in enumerate(c):
        amp[i * d2 + i] = ci / norm
    return StateVector(space, amp)


def acin_state(l0: float, l1: float, l2: float, l3: float, l4: float,
               phase: float = 0.0) -> StateVector:
    """Canonical five-term three-qubit form; the phase multiplies the |100> term."""
    space = HilbertSpace((2, 2, 2))
    amp = np.zeros(8, dtype=complex)
    amp[0] = l0
    amp[4] = l1 * np.exp(1j * phase)
    amp[5] = l2
    amp[6] = l3
    amp[7] = l4
    return _normalized(space, amp)


def ghz(n_parties: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    if n_parties < 2:
        raise ValueError(f"need at least two parties, got {n_parties}")
    space = HilbertSpace((2,) * n_parties)
    amp = np.zeros(space.total_dim, dtype=complex)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2)
    return StateVector(space, amp)


def werner(psi: StateVector, x: float) -> DensityMatrix:
    """x |psi><psi| + (1-x) * identity / d."""
    if not isinstance(psi, StateVector):
        raise TypeError(f"expected StateVector, got {type(psi).__name__}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"mixing parameter {x} outside [0, 1]")
    d = psi.space.total_dim
    pure = np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityMatrix(psi.space, x * pure + (1.0 - x) * np.eye(d) / d)


# --- oscillator angular momentum eigenstates ---------------------------------


def _hop_generators(occupations: list[tuple[int, ...]], pairs) -> list[np.ndarray]:
    """i(a_i a_j^dag - a_i^dag a_j) for each mode pair (i, j), on the number
    states |occupations> of one total quanta n, a span these operators keep."""
    index = {occ: row for row, occ in enumerate(occupations)}
    out = []
    for i, j in pairs:
        hop = np.zeros((len(occupations),) * 2)
        for col, occ in enumerate(occupations):
            if occ[i]:
                # a_i a_j^dag moves a quantum from mode i to j; a_i^dag a_j is its transpose
                row = index[tuple(o - (k == i) + (k == j) for k, o in enumerate(occ))]
                hop[row, col] = math.sqrt(occ[i]) * math.sqrt(occ[j] + 1)
                hop[col, row] = -hop[row, col]
        # times 1j as one real block: entry -r becomes -0.0 - r*1j, a signed
        # zero the eigenvectors, and so the coefficient tables, depend on
        out.append(1j * hop)
    return out


def _phase_fixed(vec: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first nonzero coefficient is real positive."""
    for z in vec:
        if abs(z) > 1e-12:
            return vec * (abs(z) / z)
    raise ValueError("zero vector")


def oscillator2d_eigenstates(n: int) -> list[OscillatorEigenstate]:
    """All n+1 angular-momentum eigenstates with total quanta n, sorted by M."""
    if n < 0:
        raise ValueError(f"total quanta must be >= 0, got {n}")
    occupations = [(i, n - i) for i in range(n + 1)]
    (block,) = _hop_generators(occupations, [(0, 1)])
    vals, vecs = hermitian_eigensystem(block)

    d = max(n + 1, 2)
    space = HilbertSpace((d, d))
    where = np.ravel_multi_index(tuple(zip(*occupations)), space.dims)
    out = []
    for idx in range(n + 1):
        m = int(round(vals[idx].real))
        coeffs = _phase_fixed(vecs[:, idx])
        if np.linalg.norm(block @ coeffs - m * coeffs) > EIGEN_RESIDUAL_TOL:
            raise ArithmeticError(f"L_z eigenpair residual too large for n={n}, M={m}")
        if abs(coeffs[0]) <= COEFF_TOL or abs(coeffs[n]) <= COEFF_TOL:
            raise ArithmeticError(f"expected nonzero edge coefficients for n={n}, M={m}")
        amp = np.zeros(space.total_dim, dtype=complex)
        amp[where] = coeffs
        out.append(OscillatorEigenstate(n, (m,), coeffs, StateVector(space, amp)))

    ms = sorted(s.quantum_numbers[0] for s in out)
    if ms != list(range(-n, n + 1, 2)):
        raise ArithmeticError(f"unexpected L_z spectrum {ms} for n={n}")
    return sorted(out, key=lambda s: s.quantum_numbers)


def oscillator3d_eigenstates(n: int) -> list[OscillatorEigenstate]:
    """Complete (l, m)-labeled basis of the fixed-n subspace, sorted by (l, m).

    L_z is diagonalized on the subspace first; L^2 = Lx^2 + Ly^2 + Lz^2 is
    then diagonalized inside each L_z eigenspace.  For fixed n every (l, m)
    pair occurs exactly once, so any residual degeneracy is an error.
    """
    if n < 0:
        raise ValueError(f"total quanta must be >= 0, got {n}")
    occupations = [(j, i - j, n - i) for i in range(n + 1) for j in range(i + 1)]
    lx, ly, lz = _hop_generators(occupations, [(1, 2), (2, 0), (0, 1)])
    l_sq = lx @ lx + ly @ ly + lz @ lz

    vals, vecs = hermitian_eigensystem(lz)
    m_values = np.round(vals.real).astype(int)
    if np.max(np.abs(vals - m_values)) > EIGEN_RESIDUAL_TOL:
        raise ArithmeticError(f"non-integer L_z eigenvalue for n={n}")

    d = max(n + 1, 2)
    space = HilbertSpace((d, d, d))
    where = np.ravel_multi_index(tuple(zip(*occupations)), space.dims)
    out = []
    seen = set()
    for m in sorted({int(v) for v in m_values}):
        basis = vecs[:, m_values == m]
        projected = basis.conj().T @ l_sq @ basis
        sq_vals, sq_vecs = hermitian_eigensystem(projected)
        for col in range(len(sq_vals)):
            l_val = (math.sqrt(1.0 + 4.0 * max(sq_vals[col], 0.0)) - 1.0) / 2.0
            l = int(round(l_val))
            if abs(l_val - l) > 1e-6:
                raise ArithmeticError(f"L^2 eigenvalue {sq_vals[col]} is not l(l+1)")
            if (l, m) in seen:
                raise ArithmeticError(f"degenerate label (l={l}, m={m}) within n={n}")
            seen.add((l, m))
            coeffs_flat = _phase_fixed(basis @ sq_vecs[:, col])
            if (
                np.linalg.norm(lz @ coeffs_flat - m * coeffs_flat) > EIGEN_RESIDUAL_TOL
                or np.linalg.norm(l_sq @ coeffs_flat - l * (l + 1) * coeffs_flat)
                > EIGEN_RESIDUAL_TOL
            ):
                raise ArithmeticError(f"eigenpair residual too large for (n,l,m)=({n},{l},{m})")

            coeffs = np.zeros((n + 1, n + 1), dtype=complex)
            coeffs[np.tril_indices(n + 1)] = coeffs_flat
            amp = np.zeros(space.total_dim, dtype=complex)
            amp[where] = coeffs_flat
            out.append(OscillatorEigenstate(n, (l, m), coeffs, StateVector(space, amp)))

    expected = {(l, m) for l in range(n % 2, n + 1, 2) for m in range(-l, l + 1)}
    if seen != expected:
        raise ArithmeticError(f"label set {seen} differs from expected multiplet for n={n}")
    return sorted(out, key=lambda s: s.quantum_numbers)


def eigenstate_table_csv(eigenstates: list[OscillatorEigenstate]) -> str:
    """Coefficient tables as CSV, one row per basis coefficient."""
    if not eigenstates:
        return ""
    three_d = len(eigenstates[0].quantum_numbers) == 2
    header = "n,l,m,i,j,re,im" if three_d else "n,M,i,re,im"
    lines = [header]
    for state in eigenstates:
        if three_d:
            l, m = state.quantum_numbers
            for i in range(state.n + 1):
                for j in range(i + 1):
                    c = state.coeffs[i, j]
                    lines.append(f"{state.n},{l},{m},{i},{j},{c.real!r},{c.imag!r}")
        else:
            (m,) = state.quantum_numbers
            for i, c in enumerate(state.coeffs):
                lines.append(f"{state.n},{m},{i},{c.real!r},{c.imag!r}")
    return "\n".join(lines) + "\n"


# --- continuous-variable states ----------------------------------------------


def _coherent_coeffs(alpha: float, truncation: int) -> np.ndarray:
    """<k|alpha> = exp(-alpha^2/2) alpha^k / sqrt(k!) for k < truncation.  The
    one at k = m = min(floor(alpha^2), truncation - 1), the largest kept, is
    taken in log space and the recursion runs outward from it, so a
    coefficient underflows only if its own value does."""
    amp = abs(alpha)
    m = int(min(amp * amp, truncation - 1))
    k = np.arange(1, truncation)
    coeffs = np.zeros(truncation, dtype=complex)
    coeffs[m] = math.exp((m * math.log(amp) if m else 0.0) - 0.5 * math.lgamma(m + 1)
                         - 0.5 * amp * amp)
    coeffs[m + 1:] = coeffs[m] * np.cumprod(amp / np.sqrt(k[m:]))
    coeffs[:m] = coeffs[m] * np.cumprod(np.sqrt(k[:m][::-1]) / amp)[::-1]
    return coeffs * np.sign(alpha) ** np.arange(truncation)


def cat_state(alpha: float, beta: float, truncation: int) -> StateVector:
    """(|alpha, beta> + |-alpha, -beta>) / N on two truncated modes.

    The vector is built from truncated coherent-state series and
    renormalized; the analytic normalization is used as a cross-check only.
    Each coherent state must keep all but CAT_TAIL_TOL of its weight: the
    discarded weight is 1 - sum_k |c_k|^2 over the levels kept.
    """
    alpha, beta = float(alpha), float(beta)
    truncation = int(truncation)
    if truncation < 2:
        raise ValueError("truncation must be at least 2")
    heads = [_coherent_coeffs(amp, truncation) for amp in (alpha, beta)]
    for amp, coeffs in zip((alpha, beta), heads):
        discarded = max(0.0, 1.0 - math.fsum((np.abs(coeffs) ** 2).tolist()))
        if discarded >= CAT_TAIL_TOL:
            raise ValueError(
                f"truncation {truncation} insufficient for amplitude {amp}: "
                f"discarded weight {discarded:.2e}"
            )
    vec = np.kron(*heads)
    vec += np.kron(_coherent_coeffs(-alpha, truncation), _coherent_coeffs(-beta, truncation))
    norm = float(np.linalg.norm(vec))
    analytic = math.sqrt(2.0 + 2.0 * math.exp(-2.0 * alpha * alpha - 2.0 * beta * beta))
    if abs(norm - analytic) > 1e-8:
        raise ArithmeticError(
            f"truncated norm {norm} disagrees with analytic normalization {analytic}"
        )
    vec /= norm
    return StateVector(HilbertSpace((truncation, truncation)), vec)


def multiphoton_state(alpha: complex, beta: complex, gamma: complex) -> StateVector:
    """alpha|0,2> + beta|1,1> + gamma|2,0>, encoded on a two-qutrit space."""
    amp = np.zeros(9, dtype=complex)
    amp[2] = alpha   # |0,2>
    amp[4] = beta    # |1,1>
    amp[6] = gamma   # |2,0>
    return _normalized(HilbertSpace((3, 3)), amp)


# --- random fixtures ----------------------------------------------------------


def random_pure(dims, seed) -> StateVector:
    """Haar-like random pure state (normalized complex Gaussian entries)."""
    space = HilbertSpace(tuple(dims))
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(space.total_dim) + 1j * rng.standard_normal(space.total_dim)
    return _normalized(space, vec)


def random_separable(dims, terms: int, seed) -> DensityMatrix:
    """Convex mixture of random product pure states with Dirichlet weights."""
    if terms < 1:
        raise ValueError(f"need at least one term, got {terms}")
    space = HilbertSpace(tuple(dims))
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(terms))
    acc = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for w in weights:
        factors = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in space.dims]
        amp = StateVector(space, kron_all(v / np.linalg.norm(v) for v in factors)).amplitudes
        acc += float(w) * np.outer(amp, amp.conj())
    return DensityMatrix(space, acc)
