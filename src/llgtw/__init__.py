"""Travelling-wave domain walls of the 1D Landau-Lifshitz-Gilbert equation.

A numpy/scipy library for constructing, continuing, and verifying
travelling-wave domain-wall solutions in a thin ferromagnetic nanowire:
static Bloch and transverse-field walls, a Newton solver with parameter
continuation for the travelling-wave boundary-value problem, spectra of the
linearization's Schrodinger operators, and time integration of the full
magnetization dynamics.
"""

from .model import (
    Grid,
    Params,
    PolarProfile,
    CartesianProfile,
    Regime,
    TWSolution,
    angles_to_cartesian,
    polar_from_cartesian,
    to_cartesian,
    validate,
)
from .energetics import (
    EquilibriumPair,
    energy_cartesian,
    equilibria,
    micromagnetic_energy,
    potential,
    potential_gradient,
    torques,
)
from .walls import base_profile, bloch_wall, transverse_wall
from .spectral import (
    SchrodingerOp,
    bloch_azimuth_operator,
    lowest_eigenpairs,
    rayleigh_bound_check,
    transverse_azimuth_operator,
    transverse_tilt_operator,
)
from .solver import (
    NewtonOptions,
    ReferenceProfile,
    SwitchingFunction,
    continue_branch,
    linearized_operator,
    reference_profile,
    residual,
    solve_tw,
    velocity_identity,
)
from .dynamics import Trajectory, integrate, llg_rhs, track_wall

__all__ = [
    "Grid", "Params", "PolarProfile", "CartesianProfile", "Regime", "TWSolution",
    "angles_to_cartesian", "polar_from_cartesian", "to_cartesian", "validate",
    "EquilibriumPair", "energy_cartesian", "equilibria",
    "micromagnetic_energy", "potential", "potential_gradient", "torques",
    "base_profile", "bloch_wall", "transverse_wall",
    "SchrodingerOp", "bloch_azimuth_operator", "transverse_azimuth_operator",
    "transverse_tilt_operator", "lowest_eigenpairs", "rayleigh_bound_check",
    "NewtonOptions", "ReferenceProfile", "SwitchingFunction", "continue_branch",
    "linearized_operator", "reference_profile", "residual", "solve_tw",
    "velocity_identity",
    "Trajectory", "integrate", "llg_rhs", "track_wall",
]

__version__ = "0.1.0"
