"""Small constructors shared by the test modules."""

from functools import reduce

import numpy as np

from srpt.hilbert import HilbertSpace, Observable, StateVector, basis_index


def basis_state(space: HilbertSpace, levels) -> StateVector:
    """The product basis state |levels> of space."""
    amp = np.zeros(space.total_dim, dtype=complex)
    amp[basis_index(space, levels)] = 1.0
    return StateVector(space, amp)


def kron_observable(*mats) -> Observable:
    """The observable m1 (x) m2 (x) ... of square matrices, one per subsystem."""
    return Observable(HilbertSpace(tuple(len(m) for m in mats)), reduce(np.kron, mats))
