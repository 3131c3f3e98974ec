"""Numerical laboratory for nonlocal phase transitions in periodic media.

Discretizes heterogeneous nonlocal Ginzburg-Landau energies on periodic
strips, constructs planelike constrained minimizers, measures density and
energy estimates, builds comparison barriers, computes nonlocal perimeters,
and runs sharp-interface limit experiments.
"""

from .model import (KernelSpec, PotentialSpec, eval_kernel, eval_potential,
                    eval_potential_derivative, gamma_of, psi_s,
                    validate_hypotheses)
from .lattice import (Direction, Field, StripDomain, build_domain,
                      birkhoff_shift)
from .energy import (BallWindow, BoxWindow, PERIOD, EnergyReport, WeightTable,
                     build_weights, rescale_field)

__all__ = [
    "KernelSpec", "PotentialSpec", "eval_kernel", "eval_potential",
    "eval_potential_derivative", "gamma_of", "psi_s", "validate_hypotheses",
    "Direction", "Field", "StripDomain", "build_domain", "birkhoff_shift",
    "BallWindow", "BoxWindow", "PERIOD", "EnergyReport", "WeightTable",
    "build_weights", "rescale_field",
]

__version__ = "0.1.0"
