"""Complex tensor algebra over multipartite Hilbert spaces.

States are numpy arrays wrapped in small frozen dataclasses that pin the
tensor structure and validate the physics invariants at construction time.
Operators are sums of Kronecker products (TermOperator): every operation
the SRPT criterion needs acts on the local factors, so a d x d matrix is
formed only when one is read.  Everything is immutable after construction
and every operation is pure, so all types are safe to share across threads.

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


class TermOperator:
    """The operator sum_t c_t F_t0 x F_t1 x ... of stacked local factors.

    factors holds one (t, d_s, d_s) stack per subsystem s, or a single
    (t, d, d) stack over the whole space: the one-slot form of a dense
    matrix (TermOperator.dense).  coeffs holds the t coefficients.  Every
    operation takes a fixed number of numpy calls per slot, never one per
    term, and none forms a d x d matrix unless the operator has one slot;
    `matrix` assembles it when read.  Operands of a product in different
    forms are both taken to one slot first.  The arrays are not copied.
    """

    __slots__ = ("space", "coeffs", "factors", "_matrix")

    def __init__(self, space: HilbertSpace, coeffs, factors: Sequence):
        coeffs = np.asarray(coeffs, dtype=complex).reshape(-1)
        factors = tuple(np.asarray(f, dtype=complex) for f in factors)
        if len(factors) == len(space.dims):
            slot_dims = space.dims
        elif len(factors) == 1:
            slot_dims = (space.total_dim,)
        else:
            raise ValueError(f"{len(factors)} factor stacks for dims {space.dims}: need one "
                             "per subsystem or one over the whole space")
        for dim, f in zip(slot_dims, factors):
            if f.shape != (len(coeffs), dim, dim):
                raise ValueError(f"factor shape {f.shape} does not match {len(coeffs)} terms "
                                 f"on a slot of dimension {dim}")
        self.space, self.coeffs, self.factors = space, coeffs, factors
        self._matrix = None

    def _like(self, coeffs: np.ndarray, factors: tuple) -> "TermOperator":
        """An operator on this space and form, unvalidated, from arrays built here."""
        out = object.__new__(TermOperator)
        out.space, out.coeffs, out.factors = self.space, coeffs, factors
        out._matrix = None
        return out

    @classmethod
    def dense(cls, space: HilbertSpace, matrix: np.ndarray) -> "TermOperator":
        """The one-slot operator of a d x d matrix, whose `matrix` is that array."""
        op = cls(space, _ONE, (matrix[None],))
        op._matrix = matrix
        return op

    @staticmethod
    def concatenate(ops: Sequence["TermOperator"]) -> "TermOperator":
        """The operator holding every term of ops, which share one space and form."""
        first = ops[0]
        for op in ops:
            require_same_space(op, first)
            if len(op.factors) != len(first.factors):
                raise ValueError("concatenate needs operators in one form")
        return first._like(np.concatenate([op.coeffs for op in ops]),
                           tuple(np.concatenate(fs) for fs in zip(*(op.factors for op in ops))))

    @property
    def matrix(self) -> np.ndarray:
        """The d x d matrix, assembled on first read and kept, read-only."""
        if self._matrix is None:
            t = len(self.coeffs)
            out = self.coeffs[:, None, None] * self.factors[0]
            for f in self.factors[1:]:
                m, n = out.shape[-1], f.shape[-1]
                out = (out[:, :, None, :, None] * f[:, None, :, None, :]).reshape(t, m * n, m * n)
            # summed from -0.0, the identity that keeps the sign of a lone -0.0 term
            out = np.add.reduce(out, axis=0, initial=_NEG_ZERO) if t else out.sum(axis=0)
            out.setflags(write=False)
            self._matrix = out
        return self._matrix

    @property
    def _is_one_slot(self) -> bool:
        """True if the operator is one stack over a space of several subsystems."""
        return len(self.factors) < len(self.space.dims)

    def _as_one_slot(self) -> "TermOperator":
        return self if len(self.factors) == 1 else TermOperator.dense(self.space, self.matrix)

    def _slot_of(self, k: int) -> int:
        """The slot holding subsystem k."""
        require_subsystem(self.space.dims, k)
        return 0 if self._is_one_slot else k

    def __matmul__(self, other: "TermOperator") -> "TermOperator":
        """The product: term t of self times term u of other is term t*u + u."""
        a, b = aligned(self, other)
        coeffs = (a.coeffs[:, None] * b.coeffs).reshape(-1)
        return a._like(coeffs, tuple((f[:, None] @ g).reshape(-1, *f.shape[1:])
                                     for f, g in zip(a.factors, b.factors)))

    def adjoint(self) -> "TermOperator":
        return self._like(self.coeffs.conj(), tuple(f.conj().swapaxes(1, 2) for f in self.factors))

    def is_exactly_hermitian(self) -> bool:
        """True if T^dagger holds exactly the terms of T in some order, -0.0
        read as 0.0: at once for terms Hermitian one by one, else by sorting
        both.  False does not rule out a T Hermitian up to rounding."""
        if not self.coeffs.imag.any() and all(
                (f == f.conj().swapaxes(1, 2)).all() for f in self.factors):
            return True
        return _sorted_terms(self) == _sorted_terms(self.adjoint())

    def _transposed_at(self, k: int, stack: np.ndarray | None = None) -> tuple[int, np.ndarray]:
        """The slot s holding k and the partial transpose at k of a stack on
        it, by default factors[s]: its two axes swapped if k is alone in s."""
        s = self._slot_of(k)
        stack = self.factors[s] if stack is None else stack
        if self._is_one_slot:
            return s, partial_transpose_matrix(stack, self.space.dims, k)
        return s, stack.swapaxes(1, 2)

    def partial_transpose(self, k: int) -> "TermOperator":
        """The partial transpose at subsystem k: one transpose, of the slot holding k."""
        s, transposed = self._transposed_at(k)
        return self._like(self.coeffs, self.factors[:s] + (transposed,) + self.factors[s + 1:])

    def pt_square_defect(self, k: int, pt_square: "TermOperator") -> float:
        """||(T^G)^2 - (T^2)^G||_F at subsystem k, given pt_square = T^G @ T^G.

        The two squares have the same terms, in the same order, on every slot
        but the one holding k, so their difference is taken in that slot
        alone, term by term: factors that agree there cancel to exact zeros
        instead of leaving the rounding of a difference of two sums (see
        norm_sq).  A single term whose slot at k holds k alone has no defect,
        as (F^T)^2 = (F^2)^T.
        """
        s = self._slot_of(k)
        if len(self.coeffs) == 1 and not self._is_one_slot:
            return 0.0
        f = self.factors[s]
        _, square_pt = self._transposed_at(k, (f[:, None] @ f).reshape(-1, *f.shape[1:]))
        factors = list(pt_square.factors)
        factors[s] = factors[s] - square_pt
        return math.sqrt(pt_square._like(pt_square.coeffs, tuple(factors)).norm_sq())

    def term_traces(self) -> np.ndarray:
        """tr(F_t0 x F_t1 x ...) per term: the product of the factor traces."""
        out = np.einsum("tii->t", self.factors[0])
        for f in self.factors[1:]:
            out = out * np.einsum("tii->t", f)
        return out

    def trace(self) -> complex:
        return complex(self.coeffs @ self.term_traces())

    def term_expectations(self, state: "StateVector | DensityMatrix") -> np.ndarray:
        """<psi|F_t0 x F_t1 x ...|psi> or tr(rho F_t0 x F_t1 x ...) per term.

        A pure state is taken as its amplitudes, never as |psi><psi|: slot by
        slot from the last, its factors are applied to psi reshaped to the
        slots' dimensions with one batched matmul, whose output axis then
        moves to the front.  A DensityMatrix is read as the vector of its
        transpose with the row and column index of each slot side by side;
        slot by slot from the first, one matmul contracts that index pair
        with the vectorised factors, which shrinks the array by D_s^2.  The
        terms go through in chunks whose first product has at most
        max(d^2, _CHUNK_ENTRIES) entries, so a long stack on a large space
        needs no more memory than rho does; below that, in one chunk.
        """
        require_same_space(state, self)
        t = len(self.coeffs)
        if t == 0:
            return np.zeros(0, dtype=complex)
        if isinstance(state, StateVector):
            amp = state.amplitudes
            y = amp[None]
            for f in reversed(self.factors):
                y = (y.reshape(len(y), -1, f.shape[-1]) @ f.swapaxes(1, 2)).swapaxes(1, 2)
            return y.reshape(t, -1) @ amp.conj()
        dims = tuple(f.shape[-1] for f in self.factors)
        n = len(dims)
        # r[b_0, a_0, b_1, a_1, ...] = rho[(a_0, a_1, ...), (b_0, b_1, ...)]
        r = state.matrix.reshape(dims + dims).transpose(
            [axis for s in range(n) for axis in (n + s, s)])
        rho = r.reshape(dims[0] ** 2, -1)
        chunk = max(rho.size, _CHUNK_ENTRIES) // rho.shape[1]
        out = []
        for lo in range(0, t, chunk):
            r = self.factors[0][lo:lo + chunk].reshape(-1, dims[0] ** 2) @ rho
            for f, dim in zip(self.factors[1:], dims[1:]):
                c = len(r)
                r = (f[lo:lo + chunk].reshape(c, 1, dim * dim)
                     @ r.reshape(c, dim * dim, -1)).reshape(c, -1)
            out.append(r.reshape(-1))
        return np.concatenate(out)

    def norm_sq(self) -> float:
        """The squared Frobenius norm, from the Gram matrix of the terms: the
        sum over t, u of c_t conj(c_u) prod_s tr(F_ts F_us^dagger).  The
        products are summed exactly (math.fsum), so terms that cancel bit for
        bit give 0.0; terms that cancel only up to rounding leave about
        sqrt(eps) times the norm of the parts, so a difference of two
        near-equal operators belongs in one slot (pt_square_defect) before
        its norm is taken.  An operator with a slot of zero factors is 0.0 at once."""
        if not all(f.any() for f in self.factors):
            return 0.0
        gram = self.coeffs[:, None] * self.coeffs.conj()
        for f in self.factors:
            flat = f.reshape(len(f), -1)
            gram = gram * np.einsum("ti,ui->tu", flat, flat.conj())
        return max(math.fsum(gram.real.ravel().tolist()), 0.0)


# entries of the largest intermediate a density contraction may make beyond rho's size
_CHUNK_ENTRIES = 1 << 22
_ONE = np.ones(1, dtype=complex)
_ONE.setflags(write=False)
_NEG_ZERO = complex(-0.0, -0.0)


def _sorted_terms(op: TermOperator) -> list[bytes]:
    """Each term of op, its coefficient and factors with -0.0 as 0.0, as bytes, sorted."""
    rows = np.hstack([op.coeffs[:, None]] + [f.reshape(len(f), -1) for f in op.factors]) + 0.0
    return sorted(row.tobytes() for row in rows)


def aligned(a: TermOperator, b: TermOperator) -> tuple[TermOperator, TermOperator]:
    """a and b in one form: as they are if they share one, else both as one slot."""
    require_same_space(a, b)
    if len(a.factors) == len(b.factors):
        return a, b
    return a._as_one_slot(), b._as_one_slot()


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian operator over a HilbertSpace, held as a TermOperator.

    terms is a d x d matrix, held as the one-slot operator, or a
    TermOperator on space, whose arrays are copied.  Either is checked
    entry by entry (max |M - M^dagger| within HERMITICITY_TOL), except a
    TermOperator whose adjoint holds exactly its terms
    (TermOperator.is_exactly_hermitian), which needs no d x d matrix.
    `matrix` is the d x d matrix, assembled from the terms when first read.
    """

    space: HilbertSpace
    terms: TermOperator

    def __post_init__(self):
        terms = self.terms
        if isinstance(terms, TermOperator):
            require_same_space(terms, self)
            coeffs = _locked(terms.coeffs, terms.coeffs.shape, "observable coefficient")
            terms = TermOperator(self.space, coeffs, [
                _locked(f, f.shape, "observable factor") for f in terms.factors])
            if not terms.is_exactly_hermitian():
                _require_hermitian(terms.matrix, "observable")
        else:
            d = self.space.total_dim
            mat = _locked(terms, (d, d), "observable")
            _require_hermitian(mat, "observable")
            terms = TermOperator.dense(self.space, mat)
        object.__setattr__(self, "terms", terms)

    @property
    def matrix(self) -> np.ndarray:
        return self.terms.matrix


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
    """Transpose the bra/ket indices of subsystem k only, on a raw matrix or
    on each matrix of a stack of shape (..., d, d)."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    require_subsystem(dims, k)
    d = math.prod(dims)
    lead = matrix.shape[:-2]
    if matrix.shape[-2:] != (d, d):
        raise ValueError(f"matrix shape {matrix.shape} does not match dims {dims}")
    t = matrix.reshape(lead + dims + dims)
    t = t.swapaxes(len(lead) + k, len(lead) + n + k)
    return np.ascontiguousarray(t.reshape(lead + (d, d)))


def require_subsystem(dims: tuple[int, ...], k: int) -> None:
    """Raise ValueError unless 0 <= k < len(dims); a negative k is not counted from the end."""
    if not 0 <= k < len(dims):
        raise ValueError(f"subsystem index {k} out of range for dims {dims}")


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
    """A raw matrix as a complex array, checked to be Hermitian."""
    mat = np.asarray(h, dtype=complex)
    _require_hermitian(mat, "matrix")
    return mat


def hermitian_eigensystem(h) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of a raw Hermitian matrix."""
    return np.linalg.eigh(_hermitian_matrix(h))


def min_eigenvalue(h) -> float:
    """Smallest eigenvalue of a raw Hermitian matrix."""
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
