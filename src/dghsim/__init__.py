"""Pseudospectral simulation and breakdown analysis for a two-component
shallow-water wave system on the unit circle.

The velocity u couples to a transported density rho through

    u_t + (u - gamma) u_x = -d/dx G * (u^2 + u_x^2 / 2 + (gamma - A) u
                                       + rho^2 / 2)
    rho_t + (u rho)_x = 0

where G is the periodic kernel inverting 1 - d^2/dx^2.  The package
integrates this system spectrally, tracks the minimal slope of u, and
evaluates the closed-form criteria that decide between finite-time slope
breakdown and global existence.

The package root re-exports the names a library user needs to build
initial data, run it and read the verdicts; everything else lives in its
module (grid, model, stepping, characteristics, criteria, scenarios,
oracles, cli).
"""

from .criteria import estimate_blowup_rate, evaluate_criteria, name_outcome
from .grid import PeriodicGrid
from .model import ModelParams, State
from .scenarios import build_initial_data
from .stepping import SimConfig, run

__all__ = [
    "PeriodicGrid",
    "ModelParams",
    "State",
    "SimConfig",
    "build_initial_data",
    "run",
    "evaluate_criteria",
    "estimate_blowup_rate",
    "name_outcome",
]

__version__ = "0.1.0"
