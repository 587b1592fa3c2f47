"""Dense complex tensor algebra over multipartite Hilbert spaces.

States and operators are numpy arrays wrapped in small frozen dataclasses
that pin the tensor structure and validate the physics invariants at
construction time.  Everything is immutable after construction and every
operation is pure, so all types are safe to share across threads.

Basis convention: row-major ordering |i0 i1 ...> with subsystem 0 as the
slowest index.  The partial transpose of subsystem k swaps that
subsystem's bra and ket indices and leaves the rest untouched.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import InitVar, dataclass
from typing import Iterable, Sequence

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
NORM_TOL = 1e-12
PSD_TOL = 1e-10
IMAG_TOL = 1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
for _m in (PAULI_X, PAULI_Y, PAULI_Z, ID2):
    _m.setflags(write=False)


def _locked(array, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A read-only complex copy of array; raises unless it has this shape and finite entries."""
    out = np.array(array, dtype=complex)
    if out.shape != shape:
        raise ValueError(f"{what} shape {out.shape} does not match space shape {shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{what} has non-finite entries")
    out.setflags(write=False)
    return out


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Max elementwise |M - M^dagger|."""
    return float(np.max(np.abs(matrix - matrix.conj().T)))


def _require_hermitian(matrix: np.ndarray, what: str) -> None:
    defect = hermiticity_defect(matrix)
    if not defect <= HERMITICITY_TOL:
        raise ValueError(f"{what} not Hermitian: defect {defect}")


def _lowest_eigenvalue(matrix: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(matrix)[0])


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered subsystem dimensions defining the tensor structure."""

    dims: tuple[int, ...]

    def __post_init__(self):
        try:
            dims = tuple(operator.index(d) for d in self.dims)
        except TypeError as exc:
            raise ValueError(f"subsystem dimensions must be integers, got {self.dims!r}") from exc
        if not dims:
            raise ValueError("a Hilbert space needs at least one subsystem")
        if any(d < 2 for d in dims):
            raise ValueError(f"subsystem dimensions must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def num_subsystems(self) -> int:
        return len(self.dims)

    def check_subsystem(self, k: int) -> int:
        if not 0 <= k < len(self.dims):
            raise ValueError(f"subsystem index {k} out of range for dims {self.dims}")
        return k


@dataclass(frozen=True)
class StateVector:
    """Pure state: unit-norm complex amplitudes over a HilbertSpace."""

    space: HilbertSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = _locked(np.asarray(self.amplitudes).reshape(-1), (self.space.total_dim,),
                      "amplitude vector")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state vector norm {norm} is not 1 within {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator.

    Positivity may be skipped at construction (check_positive=False) for
    objects that are density-matrix shaped but intentionally non-positive,
    such as the partial transpose of an entangled state.
    """

    space: HilbertSpace
    matrix: np.ndarray
    check_positive: InitVar[bool] = True

    def __post_init__(self, check_positive: bool):
        d = self.space.total_dim
        mat = _locked(self.matrix, (d, d), "density matrix")
        _require_hermitian(mat, "density matrix")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} is not 1 within {TRACE_TOL}")
        if check_positive:
            lowest = _lowest_eigenvalue(mat)
            if lowest < -PSD_TOL:
                raise ValueError(f"density matrix has negative eigenvalue {lowest}")
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class Observable:
    """Hermitian operator over a HilbertSpace."""

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        d = self.space.total_dim
        mat = _locked(self.matrix, (d, d), "observable")
        _require_hermitian(mat, "observable")
        object.__setattr__(self, "matrix", mat)


def basis_index(space: HilbertSpace, levels: Sequence[int]) -> int:
    """Row-major index of the product basis state |levels>."""
    if len(levels) != space.num_subsystems:
        raise ValueError(f"need {space.num_subsystems} levels, got {len(levels)}")
    return int(np.ravel_multi_index(tuple(int(l) for l in levels), space.dims))


def ket(space: HilbertSpace, levels: Sequence[int]) -> StateVector:
    """Product basis state |levels> as a StateVector."""
    amp = np.zeros(space.total_dim, dtype=complex)
    amp[basis_index(space, levels)] = 1.0
    return StateVector(space, amp)


def kron_all(factors: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product of raw matrices, left to right."""
    mats = list(factors)
    if not mats:
        raise ValueError("kron_all needs at least one factor")
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def tensor(*factors) -> Observable:
    """Tensor product of observables (or raw Hermitian matrices) in subsystem order."""
    if not factors:
        raise ValueError("tensor needs at least one factor")
    dims: list[int] = []
    mats: list[np.ndarray] = []
    for f in factors:
        if isinstance(f, Observable):
            dims.extend(f.space.dims)
            mats.append(f.matrix)
        else:
            m = np.asarray(f, dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"tensor factors must be square, got shape {m.shape}")
            dims.append(m.shape[0])
            mats.append(m)
    return Observable(HilbertSpace(tuple(dims)), kron_all(mats))


def partial_transpose_matrix(matrix: np.ndarray, dims: Sequence[int], k: int) -> np.ndarray:
    """Transpose the bra/ket indices of subsystem k only, on a raw matrix."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    if not 0 <= k < n:
        raise ValueError(f"subsystem index {k} out of range for dims {dims}")
    d = math.prod(dims)
    if matrix.shape != (d, d):
        raise ValueError(f"matrix shape {matrix.shape} does not match dims {dims}")
    t = matrix.reshape(dims + dims)
    t = t.swapaxes(k, n + k)
    return np.ascontiguousarray(t.reshape(d, d))


def partial_transpose(m, k: int = 0):
    """Partial transpose of an Observable or DensityMatrix at subsystem k.

    Returns the same kind as the input.  For density matrices the result
    keeps unit trace and Hermiticity but may be non-positive; positivity
    validation is deliberately skipped.
    """
    if isinstance(m, Observable):
        return Observable(m.space, partial_transpose_matrix(m.matrix, m.space.dims, k))
    if isinstance(m, DensityMatrix):
        return DensityMatrix(
            m.space,
            partial_transpose_matrix(m.matrix, m.space.dims, k),
            check_positive=False,
        )
    raise TypeError(f"cannot partially transpose {type(m).__name__}")


def require_same_space(rho, m):
    """Raise ValueError unless both operands live on the same HilbertSpace."""
    if rho.space != m.space:
        raise ValueError(f"space mismatch: {rho.space.dims} vs {m.space.dims}")


def trace_product(rho_matrix: np.ndarray, op_matrix: np.ndarray) -> complex:
    """tr(rho @ op) without forming the product matrix."""
    return complex(np.einsum("ij,ji->", rho_matrix, op_matrix))


def real_part(z: complex) -> float:
    """Real part of an expectation value; raises if the imaginary part is not noise."""
    if abs(z.imag) >= IMAG_TOL:
        raise ValueError(f"expectation value has imaginary part {z.imag}")
    return z.real


def real_trace_product(rho_matrix: np.ndarray, op_matrix: np.ndarray) -> float:
    """Re tr(rho @ op) for Hermitian op; raises if the imaginary part is not noise."""
    return real_part(trace_product(rho_matrix, op_matrix))


def clamp_variance(var: float) -> float:
    """A variance raised to 0 if within PSD_TOL below it; raises further below."""
    if var < -PSD_TOL:
        raise ValueError(f"variance {var} negative beyond tolerance")
    return max(var, 0.0)


def expectation(rho: DensityMatrix, m: Observable) -> float:
    """Re tr(rho M); asserts the imaginary part is numerical noise."""
    require_same_space(rho, m)
    return real_trace_product(rho.matrix, m.matrix)


def moments(rho_matrix: np.ndarray, op_matrix: np.ndarray) -> tuple[float, float]:
    """Mean Re tr(rho M) and variance tr(rho M^2) - mean^2 of a Hermitian M,
    the variance clamped to 0 if within tolerance below."""
    mean = real_trace_product(rho_matrix, op_matrix)
    second = real_trace_product(rho_matrix, op_matrix @ op_matrix)
    return mean, clamp_variance(second - mean * mean)


def variance(rho: DensityMatrix, m: Observable) -> float:
    """tr(rho M^2) - tr(rho M)^2, clamped to 0 if within tolerance below."""
    require_same_space(rho, m)
    return moments(rho.matrix, m.matrix)[1]


def commutator(m: Observable, n: Observable) -> np.ndarray:
    """MN - NM as a raw (anti-Hermitian) matrix."""
    require_same_space(m, n)
    return m.matrix @ n.matrix - n.matrix @ m.matrix


def anticommutator(m: Observable, n: Observable) -> Observable:
    """MN + NM."""
    require_same_space(m, n)
    return Observable(m.space, m.matrix @ n.matrix + n.matrix @ m.matrix)


def _hermitian_matrix(h) -> np.ndarray:
    """The matrix of an Observable, or a raw matrix checked to be Hermitian."""
    if isinstance(h, Observable):
        return h.matrix
    mat = np.asarray(h, dtype=complex)
    _require_hermitian(mat, "matrix")
    return mat


def hermitian_eigensystem(h) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of a Hermitian matrix or Observable."""
    return np.linalg.eigh(_hermitian_matrix(h))


def min_eigenvalue(h) -> float:
    """Smallest eigenvalue of a Hermitian matrix or Observable."""
    return _lowest_eigenvalue(_hermitian_matrix(h))


def density_from_pure(psi: StateVector) -> DensityMatrix:
    return DensityMatrix(psi.space, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def mix(terms: Sequence[tuple[float, DensityMatrix]]) -> DensityMatrix:
    """Convex mixture sum_i w_i rho_i."""
    if not terms:
        raise ValueError("mix needs at least one term")
    weights = [float(w) for w, _ in terms]
    if any(w < 0 for w in weights):
        raise ValueError(f"negative mixture weight in {weights}")
    total = math.fsum(weights)
    if abs(total - 1.0) > TRACE_TOL:
        raise ValueError(f"mixture weights sum to {total}, not 1")
    space = terms[0][1].space
    acc = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for w, rho in terms:
        if rho.space != space:
            raise ValueError("all mixture terms must share one space")
        acc += w * rho.matrix
    return DensityMatrix(space, acc)


def annihilation(dim: int) -> np.ndarray:
    """Truncated bosonic annihilation operator: a|n> = sqrt(n)|n-1>."""
    if dim < 2:
        raise ValueError(f"mode dimension must be >= 2, got {dim}")
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    return a


def quadratures(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled quadratures a^dag + a and i(a^dag - a) of a truncated mode."""
    low = annihilation(dim)
    return low.conj().T + low, 1j * (low.conj().T - low)


def number_operator(dim: int) -> Observable:
    if dim < 2:
        raise ValueError(f"mode dimension must be >= 2, got {dim}")
    return Observable(HilbertSpace((dim,)), np.diag(np.arange(dim, dtype=float)).astype(complex))


# --- JSON interchange -------------------------------------------------------
#
# States:      {"dims": [2, 2], "amplitudes": [[re, im], ...]}
# Operators:   {"dims": [2, 2], "matrix": [[[re, im], ...], ...]}  (row-major)
# Floats are emitted with 17 significant digits so round-trips are lossless.


def format_float(x: float) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError("cannot serialize non-finite float")
    return format(x, ".17g")


def dumps_canonical(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-significant-digit floats."""
    if isinstance(obj, dict):
        items = ",".join(f"{json.dumps(str(k))}:{dumps_canonical(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(dumps_canonical(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _complex_pairs(values: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in values]


def state_to_json(state: StateVector) -> str:
    return dumps_canonical(
        {"dims": list(state.space.dims), "amplitudes": _complex_pairs(state.amplitudes)}
    )


def observable_to_json(obs: Observable) -> str:
    return dumps_canonical(
        {"dims": list(obs.space.dims), "matrix": [_complex_pairs(row) for row in obs.matrix]}
    )


def _parse_payload(text: str, key: str):
    doc = json.loads(text)
    if not isinstance(doc, dict) or "dims" not in doc or key not in doc:
        raise ValueError(f'expected a JSON object with "dims" and "{key}"')
    space = HilbertSpace(doc["dims"])
    return space, doc[key]


def _pairs_to_complex(pairs, ndim: int) -> np.ndarray:
    """A vector (ndim=1) or matrix (ndim=2) of [re, im] pairs as complex."""
    try:
        arr = np.asarray(pairs, dtype=float)
    except TypeError as exc:
        raise ValueError(f"complex entries must be [re, im] pairs: {exc}") from exc
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise ValueError("complex entries must be [re, im] pairs")
    with np.errstate(invalid="ignore"):  # 1j * inf; the constructors reject non-finite entries
        return arr[..., 0] + 1j * arr[..., 1]


def state_from_json(text: str) -> StateVector:
    space, payload = _parse_payload(text, "amplitudes")
    return StateVector(space, _pairs_to_complex(payload, 1))


def observable_from_json(text: str) -> Observable:
    space, payload = _parse_payload(text, "matrix")
    return Observable(space, _pairs_to_complex(payload, 2))


def density_from_json(text: str) -> DensityMatrix:
    space, payload = _parse_payload(text, "matrix")
    return DensityMatrix(space, _pairs_to_complex(payload, 2))
