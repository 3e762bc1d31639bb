"""semiq: semiclassical time, tunneling, and observer-network toolkit.

Four physics layers plus I/O utilities:

- ``clock``: stochastic reparametrization clocks and the dephasing they
  imprint on quantum coherences; retention times and equivalence classes.
- ``wkb``: barrier penetration through an inverted-parabola interaction,
  closed form against quadrature, matched semiclassical wavefunctions.
- ``oracle``: independent transfer-matrix transmission for capped
  potentials, used to cross-check the semiclassical rates.
- ``network``: gauge-covariant couplings on a ring of units, reduced
  single-site comparisons, quenched pattern memories, spike entropy.
- ``minisuperspace``: phase/amplitude transport for a one-dimensional
  constraint, clock maps, driven matter evolution, residual scaling.
"""

from .clock import (
    ClockModel,
    CoherenceTrajectory,
    QuantumClassRecord,
    QuantumSystem,
    Reparametrization,
    TimeDecomposition,
    classify,
    evolve_analytic,
    evolve_monte_carlo,
    reparametrize_events,
    rescale_class,
    retention_time,
    sample_increments,
)
from .minisuperspace import (
    ClockMap,
    MatterTrajectory,
    MiniSuperspaceModel,
    ResidualReport,
    SemiclassicalBranch,
    amplitude_transport,
    build_branch,
    clock_map,
    evolve_matter,
    hamilton_jacobi_phase,
    wdw_residual,
)
from .network import (
    EkComparison,
    GaugeTransformation,
    GlialField,
    NeuralState,
    ObserverTriple,
    QuenchedCouplings,
    RolldownResult,
    covariant_difference,
    difference_operator,
    ek_comparison,
    ek_reduced_hamiltonian,
    entropy_rate,
    gauge_transform,
    hamiltonian_full,
    hamiltonian_quenched,
    hebbian_couplings,
    observer_triple,
    rolldown,
    window_counts,
)
from .oracle import (
    PiecewisePotential,
    TransmissionEstimate,
    cap_barrier,
    constraint_residual,
    scattering_wavefunction,
    transfer_matrix_transmission,
)
from .wkb import (
    BarrierColumns,
    BarrierProblem,
    WkbSolution,
    activation_rate,
    barrier_exponent,
    barrier_exponent_closed,
    barrier_exponents,
    barrier_exponents_closed,
    current_ratio,
    current_ratios,
    momenta,
    solve_barrier,
    transmissions,
    turning_points,
    wkb_wavefunction,
    wkb_wavefunctions,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # clock
    "ClockModel", "TimeDecomposition", "sample_increments", "QuantumSystem",
    "CoherenceTrajectory", "evolve_analytic", "evolve_monte_carlo",
    "QuantumClassRecord", "retention_time", "rescale_class",
    "Reparametrization", "reparametrize_events", "classify",
    # wkb
    "BarrierProblem", "turning_points", "momenta", "barrier_exponent",
    "barrier_exponent_closed", "activation_rate", "WkbSolution",
    "solve_barrier", "wkb_wavefunction", "current_ratio", "BarrierColumns",
    "barrier_exponents", "barrier_exponents_closed", "transmissions",
    "wkb_wavefunctions", "current_ratios",
    # oracle
    "PiecewisePotential", "TransmissionEstimate", "cap_barrier",
    "transfer_matrix_transmission", "scattering_wavefunction",
    "constraint_residual",
    # network
    "NeuralState", "GlialField", "GaugeTransformation",
    "covariant_difference", "difference_operator", "hamiltonian_full",
    "gauge_transform", "ek_reduced_hamiltonian", "EkComparison",
    "ek_comparison", "QuenchedCouplings", "hamiltonian_quenched",
    "hebbian_couplings", "RolldownResult", "rolldown", "entropy_rate",
    "window_counts", "ObserverTriple", "observer_triple",
    # minisuperspace
    "MiniSuperspaceModel", "hamilton_jacobi_phase", "amplitude_transport",
    "ClockMap", "clock_map", "MatterTrajectory", "evolve_matter",
    "SemiclassicalBranch", "build_branch", "ResidualReport", "wdw_residual",
]
