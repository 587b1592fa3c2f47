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
from dataclasses import dataclass
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


def _require_hermitian(matrix: np.ndarray, what: str) -> None:
    """Raise unless the max elementwise |M - M^dagger| is within HERMITICITY_TOL."""
    defect = float(np.max(np.abs(matrix - matrix.conj().T)))
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


@dataclass(frozen=True)
class StateVector:
    """Pure state: complex amplitudes over a HilbertSpace with |psi|^2 = 1 within NORM_TOL."""

    space: HilbertSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = _locked(np.asarray(self.amplitudes).reshape(-1), (self.space.total_dim,),
                      "amplitude vector")
        # summed as the diagonal of |psi><psi| is, so with NORM_TOL <= TRACE_TOL
        # every StateVector passes the DensityMatrix trace check
        norm_sq = complex(np.sum(amp * amp.conj()))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(
                f"state vector squared norm {norm_sq.real} is not 1 within {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator."""

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        d = self.space.total_dim
        mat = _locked(self.matrix, (d, d), "density matrix")
        _require_hermitian(mat, "density matrix")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} is not 1 within {TRACE_TOL}")
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


def kron_all(factors: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product of raw matrices, left to right."""
    mats = list(factors)
    if not mats:
        raise ValueError("kron_all needs at least one factor")
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


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


def moments(expect: complex, expect_sq: complex) -> tuple[float, float]:
    """Mean <M> and variance <M^2> - <M>^2 of a Hermitian M, given the
    expectation values <M> and <M^2>; the variance is clamped to 0 if within
    tolerance below."""
    mean = real_part(expect)
    return mean, clamp_variance(real_part(expect_sq) - mean * mean)


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


# --- JSON interchange -------------------------------------------------------
#
# States:      {"dims": [2, 2], "amplitudes": [[re, im], ...]}
# Operators:   {"dims": [2, 2], "matrix": [[[re, im], ...], ...]}  (row-major)
# Floats are emitted with 17 significant digits so round-trips are lossless;
# complex arrays are written by _complex_json, one % format per row, with
# -0.0 written as 0.  Reports go through dumps_canonical.  Parsing rejects
# entries that are not numbers (strings, null, booleans) and integers beyond
# float range.


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


def _complex_json(values: np.ndarray) -> str:
    """A complex vector as [[re,im],...], or a matrix as a list of such rows,
    with the same digits as format_float.  Adding 0.0 turns -0.0 into 0.0."""
    arr = np.asarray(values)
    if not np.isfinite(arr).all():
        raise ValueError("cannot serialize non-finite float")
    pairs = np.stack([arr.real, arr.imag], axis=-1) + 0.0
    row = "[" + ",".join(["[%.17g,%.17g]"] * arr.shape[-1]) + "]"
    if arr.ndim == 1:
        return row % tuple(pairs.ravel().tolist())
    return "[" + ",".join(row % tuple(r) for r in pairs.reshape(len(arr), -1).tolist()) + "]"


def _dims_json(space: HilbertSpace) -> str:
    return "[" + ",".join(map(str, space.dims)) + "]"


def state_to_json(state: StateVector) -> str:
    return f'{{"dims":{_dims_json(state.space)},"amplitudes":{_complex_json(state.amplitudes)}}}'


def observable_to_json(obs: Observable) -> str:
    return f'{{"dims":{_dims_json(obs.space)},"matrix":{_complex_json(obs.matrix)}}}'


def _parse_payload(text: str, doc, key: str, ndim: int):
    """The HilbertSpace of doc["dims"] and doc[key] as a complex array of ndim
    axes; doc is json.loads(text)."""
    if not isinstance(doc, dict) or "dims" not in doc or key not in doc:
        raise ValueError(f'expected a JSON object with "dims" and "{key}"')
    space = HilbertSpace(doc["dims"])
    # numpy reads true and false as 1 and 0, even next to floats, so a text
    # that may hold them has its entries checked one by one
    return space, _pairs_to_complex(doc[key], ndim, "true" in text or "false" in text)


def _pairs_to_complex(pairs, ndim: int, each_entry: bool) -> np.ndarray:
    """A vector (ndim=1) or matrix (ndim=2) of [re, im] pairs as complex.
    With each_entry, every entry must be an int or a float, not a bool."""
    raw = np.asarray(pairs, dtype=object if each_entry else None)
    # numpy would parse strings as numbers.  An object array comes only from
    # each_entry, null, non-numbers or integers beyond 64 bits, so files of
    # plain numbers never take this walk.
    numbers = raw.dtype.kind in "iuf" or (raw.dtype.kind == "O" and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw.flat))
    if not numbers:
        raise ValueError("complex entries must be numbers")
    try:
        arr = raw.astype(float)
    except OverflowError as exc:
        raise ValueError(f"complex entries must be within float range: {exc}") from exc
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise ValueError("complex entries must be [re, im] pairs")
    with np.errstate(invalid="ignore"):  # 1j * inf; the constructors reject non-finite entries
        return arr[..., 0] + 1j * arr[..., 1]


def state_from_json(text: str) -> StateVector:
    return StateVector(*_parse_payload(text, json.loads(text), "amplitudes", 1))


def observable_from_json(text: str) -> Observable:
    return Observable(*_parse_payload(text, json.loads(text), "matrix", 2))


def density_from_json(text: str) -> StateVector | DensityMatrix:
    """The state of a JSON payload, chosen by key: a StateVector for an
    "amplitudes" payload, whose density matrix is its projector and which is
    never validated as a DensityMatrix, or a DensityMatrix for a "matrix"
    payload.  Every evaluator in criteria takes either."""
    doc = json.loads(text)
    if isinstance(doc, dict) and "amplitudes" in doc:
        return StateVector(*_parse_payload(text, doc, "amplitudes", 1))
    return DensityMatrix(*_parse_payload(text, doc, "matrix", 2))
