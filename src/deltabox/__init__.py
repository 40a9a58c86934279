"""deltabox: a quantum particle in a 1D box driven by a time-dependent point
interaction at the origin.

The dynamics is carried by a single complex charge function solving an
oscillatory Volterra equation on the cosine-mode sector; the wavefunction is
assembled spectrally from it.  The package also provides the static spectrum
of the coupled box via Green's-function conditions and first-order control
synthesis through a trigonometric moment problem.
"""

__version__ = "0.1.0"

from .charge import (
    ChargeTrajectory,
    CouplingProfile,
    apply_U,
    initial_charge,
    lipschitz_probe,
    solve_charge,
    solve_charge_general,
)
from .control import (
    ControlTarget,
    apply_linearized,
    controllability_experiment,
    gamma,
    moment_residual,
    solve_moment,
    synthesize_control,
)
from .greens import (
    SpectralShift,
    green_closed,
    green_coefficients,
    green_origin,
    green_series,
    static_eigenvalues,
)
from .propagator import (
    DomainState,
    EvolutionResult,
    apply_hamiltonian,
    assemble_F,
    decompose,
    diagnostics,
    evolve,
)
from .spectral import (
    DEFAULT_K_MAX,
    SpectralCoefficients,
    TimeGrid,
    evaluate_state,
    free_evolve,
    origin_trace,
    project_function,
)

__all__ = [
    "ChargeTrajectory",
    "ControlTarget",
    "CouplingProfile",
    "DEFAULT_K_MAX",
    "DomainState",
    "EvolutionResult",
    "SpectralCoefficients",
    "SpectralShift",
    "TimeGrid",
    "apply_U",
    "apply_hamiltonian",
    "apply_linearized",
    "assemble_F",
    "controllability_experiment",
    "decompose",
    "diagnostics",
    "evaluate_state",
    "evolve",
    "free_evolve",
    "gamma",
    "green_closed",
    "green_coefficients",
    "green_origin",
    "green_series",
    "initial_charge",
    "lipschitz_probe",
    "moment_residual",
    "origin_trace",
    "project_function",
    "solve_charge",
    "solve_charge_general",
    "solve_moment",
    "static_eigenvalues",
    "synthesize_control",
]
