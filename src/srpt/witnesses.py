"""Observable constructors for the SRPT criterion.

Every constructor returns observables that are admissible at subsystem 0,
i.e. their squares commute with the partial transpose, so a reported
violation is a valid entanglement certificate.  Most pairs follow one
pattern, a projector onto chosen basis kets plus a symmetric flip between
basis kets, and are built by the one constructor projector_flip_pair:
prop1_pair, prop3_triple, oscillator2d_pair, oscillator3d_pair,
multiphoton_pair and werner_multipartite_pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hilbert import (
    HilbertSpace,
    ID2,
    Observable,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    basis_index,
    quadratures,
)

_PAULI_VECTOR = (PAULI_X, PAULI_Y, PAULI_Z)
MINOR_TOL = 1e-10


@dataclass(frozen=True)
class Prop2Params:
    """Coefficients of the general admissible two-qubit observable
    (a.sigma) x (b.sigma) + 1 x (c.sigma) + (d.sigma + eta 1) x 1."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    eta: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            vec = np.array(getattr(self, name), dtype=float).reshape(3)
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"non-finite entries in vector {name}")
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)
        if not math.isfinite(self.eta):
            raise ValueError("eta must be finite")
        object.__setattr__(self, "eta", float(self.eta))

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.a, self.b, self.c, self.d, [self.eta]])

    @staticmethod
    def from_array(values) -> "Prop2Params":
        v = np.asarray(values, dtype=float).reshape(13)
        return Prop2Params(v[0:3], v[3:6], v[6:9], v[9:12], v[12])


class NotRepresentable(ValueError):
    """The observable is outside the admissible two-qubit family."""

    def __init__(self, max_minor: float):
        self.max_minor = max_minor
        super().__init__(
            f"correlation block has rank > 1: largest 2x2 minor {max_minor:.3e}"
        )


def projector_flip_pair(
    space: HilbertSpace, project: Sequence[Sequence[int]],
    flips: Sequence[tuple[Sequence[int], Sequence[int]]],
) -> tuple[Observable, Observable]:
    """A = sum_p |p><p| over the kets in project, B = sum |u><v| + |v><u|
    over the ket pairs (u, v) in flips; kets are per-subsystem level tuples."""
    dim = space.total_dim
    a = np.zeros((dim, dim), dtype=complex)
    for levels in project:
        i = basis_index(space, levels)
        a[i, i] += 1.0
    b = np.zeros((dim, dim), dtype=complex)
    for u, v in flips:
        i, j = basis_index(space, u), basis_index(space, v)
        b[i, j] += 1.0
        b[j, i] += 1.0
    return Observable(space, a), Observable(space, b)


def _double_flip(i: int, j: int, rest: tuple[int, ...] = ()) -> list:
    """Ket pairs of (|i><j| + |j><i|) x (|i><j| + |j><i|) on the first two
    subsystems, with the remaining subsystems pinned at the levels rest."""
    return [((i, i, *rest), (j, j, *rest)), ((i, j, *rest), (j, i, *rest))]


def prop1_pair(space: HilbertSpace, i0: int, i1: int) -> tuple[Observable, Observable]:
    """Projector/double-flip pair detecting any state with two nonzero
    coefficients at levels (i0, i1) of a diagonal bipartite decomposition."""
    if space.num_subsystems != 2:
        raise ValueError(f"need a bipartite space, got dims {space.dims}")
    if i0 == i1:
        raise ValueError("the two levels must differ")
    for level in (i0, i1):
        if not 0 <= level < min(space.dims):
            raise ValueError(f"level {level} out of range for dims {space.dims}")
    return projector_flip_pair(space, [(i0, i1)], _double_flip(i0, i1))


def prop2_observable(p: Prop2Params) -> Observable:
    """Construct the general admissible two-qubit observable from its coefficients."""
    first = sum(p.d[i] * _PAULI_VECTOR[i] for i in range(3)) + p.eta * ID2
    second = sum(p.c[i] * _PAULI_VECTOR[i] for i in range(3))
    corr = np.kron(
        sum(p.a[i] * _PAULI_VECTOR[i] for i in range(3)),
        sum(p.b[i] * _PAULI_VECTOR[i] for i in range(3)),
    )
    mat = corr + np.kron(ID2, second) + np.kron(first, ID2)
    return Observable(HilbertSpace((2, 2)), mat)


def prop2_check(m: Observable) -> Prop2Params:
    """Decompose a two-qubit observable into the admissible family.

    Extracts the Pauli coefficients a_{mu nu} = tr(M sigma_mu x sigma_nu)/4
    and requires the 3x3 correlation block to have rank <= 1 (all nine 2x2
    minors below tolerance); raises NotRepresentable otherwise.  The rank-1
    block is factored along its dominant singular direction, with the sign
    fixed so the first nonzero entry of a is positive.
    """
    if m.space.dims != (2, 2):
        raise ValueError(f"need a two-qubit observable, got dims {m.space.dims}")
    paulis = (ID2,) + _PAULI_VECTOR
    coeff = np.empty((4, 4), dtype=float)
    for mu in range(4):
        for nu in range(4):
            z = np.trace(m.matrix @ np.kron(paulis[mu], paulis[nu])) / 4.0
            coeff[mu, nu] = z.real
    block = coeff[1:, 1:]

    max_minor = 0.0
    for r0, r1 in ((0, 1), (0, 2), (1, 2)):
        for c0, c1 in ((0, 1), (0, 2), (1, 2)):
            minor = block[r0, c0] * block[r1, c1] - block[r0, c1] * block[r1, c0]
            max_minor = max(max_minor, abs(minor))
    if max_minor > MINOR_TOL:
        raise NotRepresentable(max_minor)

    u, s, vt = np.linalg.svd(block)
    if s[0] > 1e-14:
        a_vec = u[:, 0] * math.sqrt(s[0])
        b_vec = vt[0, :] * math.sqrt(s[0])
        for entry in a_vec:
            if abs(entry) > 1e-12:
                if entry < 0:
                    a_vec, b_vec = -a_vec, -b_vec
                break
    else:
        a_vec = np.zeros(3)
        b_vec = np.zeros(3)
    return Prop2Params(a_vec, b_vec, coeff[0, 1:], coeff[1:, 0], coeff[0, 0])


# selector -> (projected ket, subsystems sigma_x acts on)
_PROP3_TABLE = {
    1: ((0, 0, 1), (0, 2)),
    2: ((0, 1, 0), (0, 1)),
    3: ((0, 1, 1), (0, 1, 2)),
}


def prop3_triple(which: int) -> tuple[Observable, Observable]:
    """One of the three projector/flip pairs that jointly detect every
    entangled three-qubit pure state in canonical form."""
    if which not in _PROP3_TABLE:
        raise ValueError(f"selector must be 1, 2 or 3, got {which}")
    projected, flipped = _PROP3_TABLE[which]
    flips = []
    for u in itertools.product((0, 1), repeat=3):
        v = tuple(1 - level if s in flipped else level for s, level in enumerate(u))
        if u < v:
            flips.append((u, v))
    return projector_flip_pair(HilbertSpace((2, 2, 2)), [projected], flips)


def oscillator2d_pair(n: int) -> tuple[Observable, Observable]:
    """Vacuum projector plus top-level double flip on the fixed-n 2D subspace."""
    if n < 1:
        raise ValueError(f"need total quanta >= 1, got {n}")
    return projector_flip_pair(HilbertSpace((n + 1, n + 1)), [(0, 0)], _double_flip(0, n))


def oscillator3d_pair(n: int, m: int) -> tuple[Observable, Observable]:
    """Designated witness pair for a 3D oscillator eigenstate with L_z value m.

    The flip span is 2 levels for m = 0 and |m| levels otherwise; the third
    mode is pinned at its remaining quanta.
    """
    step = 2 if m == 0 else abs(m)
    if m == 0:
        if n < 2:
            raise ValueError(f"the m=0 pair needs n >= 2, got n={n}")
    elif not 1 <= abs(m) <= n:
        raise ValueError(f"need 1 <= |m| <= n, got m={m}, n={n}")
    rest = (n - step,)
    return projector_flip_pair(HilbertSpace((n + 1,) * 3), [(0, 0, *rest)],
                               _double_flip(0, step, rest))


def multiphoton_pair() -> tuple[Observable, Observable]:
    """Two-projector witness for two-photon polarization states: the
    transposed anticommutator is the difference of two Bell-like projectors.
    The pair is the n = 2 oscillator pair."""
    return oscillator2d_pair(2)


def cat_quadratures(a1: float, a2: float, b1: float, b2: float,
                    truncation: int) -> tuple[Observable, Observable]:
    """Quadrature pair A = a1(x-quad mode 1) + b1(x-quad mode 2),
    B = a2(p-quad mode 1) + b2(p-quad mode 2), on truncated modes."""
    if truncation < 4:
        raise ValueError(f"truncation must be >= 4, got {truncation}")
    space = HilbertSpace((truncation, truncation))
    x_quad, p_quad = quadratures(truncation)
    eye = np.eye(truncation, dtype=complex)
    a = Observable(space, a1 * np.kron(x_quad, eye) + b1 * np.kron(eye, x_quad))
    b = Observable(space, a2 * np.kron(p_quad, eye) + b2 * np.kron(eye, p_quad))
    return a, b


def werner_bipartite_pair(phi: float) -> tuple[Observable, Observable]:
    """sigma_z x sigma_z together with sigma_x x (cos(phi) sigma_x + sin(phi) sigma_y)."""
    space = HilbertSpace((2, 2))
    a = Observable(space, np.kron(PAULI_Z, PAULI_Z))
    rotated = math.cos(phi) * PAULI_X + math.sin(phi) * PAULI_Y
    b = Observable(space, np.kron(PAULI_X, rotated))
    return a, b


def werner_multipartite_pair(n_parties: int) -> tuple[Observable, Observable]:
    """Rank-2 projector on {|01...1>, |10...0>} plus the four-dyad flip
    connecting them with |0...0> and |1...1>."""
    if n_parties < 2:
        raise ValueError(f"need at least two parties, got {n_parties}")
    head0 = (0,) + (1,) * (n_parties - 1)
    head1 = (1,) + (0,) * (n_parties - 1)
    return projector_flip_pair(HilbertSpace((2,) * n_parties), [head0, head1],
                               [((0,) * n_parties, (1,) * n_parties), (head0, head1)])
