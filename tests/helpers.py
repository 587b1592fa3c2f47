"""Small constructors shared by the test modules."""

import math
from functools import reduce

import numpy as np

from srpt.hilbert import DensityMatrix, HilbertSpace, Observable, StateVector, basis_index


def basis_state(space: HilbertSpace, levels) -> StateVector:
    """The product basis state |levels> of space."""
    amp = np.zeros(space.total_dim, dtype=complex)
    amp[basis_index(space, levels)] = 1.0
    return StateVector(space, amp)


def assert_same_report(got: dict, want: dict, rel: float = 1e-12) -> None:
    """got equals want, UncertaintyReport dicts, up to rounding: every flag
    exactly and every number within rel times the largest of lhs, comm_term,
    anticomm_term and rhs.  A pure state read as its amplitudes and its
    projector read as a DensityMatrix reach a report by different sums."""
    assert got.keys() == want.keys()
    scale = max(abs(want[key]) for key in ("lhs", "comm_term", "anticomm_term", "rhs"))
    for key, value in want.items():
        if isinstance(value, bool):
            assert got[key] is value, key
        else:
            assert abs(got[key] - value) <= rel * scale, (key, got[key], value)


def kron_observable(*mats) -> Observable:
    """The observable m1 (x) m2 (x) ... of square matrices, one per subsystem."""
    return Observable(HilbertSpace(tuple(len(m) for m in mats)), reduce(np.kron, mats))


def horodecki_3x3(a: float) -> DensityMatrix:
    """P. Horodecki's 3 x 3 state (Phys. Lett. A 232, 333 (1997)), entangled
    and PPT for 0 < a < 1, in the basis |00>, |01>, ..., |22>."""
    rho = a * np.eye(9)
    rho[np.ix_([0, 4, 8], [0, 4, 8])] = a
    b = math.sqrt(1.0 - a * a) / 2.0
    rho[np.ix_([6, 8], [6, 8])] = [[(1.0 + a) / 2.0, b], [b, (1.0 + a) / 2.0]]
    return DensityMatrix(HilbertSpace((3, 3)), rho / (8.0 * a + 1.0))
