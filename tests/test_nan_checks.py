"""Tolerance checks refuse NaN: each is written as not (dev <= tol), since
dev > tol is False for NaN and would let the value through."""

import math

import numpy as np
import pytest

from semiq import (GlialField, QuantumSystem, QuenchedCouplings,
                   ek_reduced_hamiltonian, hamiltonian_quenched)
from semiq.clock import CoherenceTrajectory

NAN = math.nan
UNIT = np.array([1.0, 0.0])

CASES = {
    "glial_antisymmetry": (lambda: GlialField(np.full((1, 2, 2), NAN)),
                           "antisymmetric"),
    "ek_reduced_antisymmetry": (
        lambda: ek_reduced_hamiltonian(UNIT, np.full((2, 2), NAN)),
        "antisymmetric"),
    "ek_reduced_unit_norm": (
        lambda: ek_reduced_hamiltonian(np.array([NAN, 0.0]), np.zeros((2, 2))),
        "unit vector"),
    "quenched_unit_norm": (
        lambda: hamiltonian_quenched(np.array([NAN, 0.0]),
                                     QuenchedCouplings(np.zeros((2, 2)))),
        "unit vector"),
    "density_hermitian": (
        lambda: QuantumSystem([0.0, 1.0], 1.0, np.full((2, 2), NAN)),
        "Hermitian"),
    "trajectory_trace": (
        lambda: CoherenceTrajectory(np.full((3, 2, 2), NAN), np.arange(3.0),
                                    np.ones(2), 0.1, []),
        "trace not preserved at step 0"),
}


@pytest.mark.parametrize("case", CASES)
def test_tolerance_check_refuses_nan(case):
    build, message = CASES[case]
    with pytest.raises(ValueError, match=message):
        build()
