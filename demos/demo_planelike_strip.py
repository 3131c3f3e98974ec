"""Constrained strip minimization and the planelike certificates.

Solves the periodic strip problem for the heterogeneous medium, then runs
the minimizer certificates: Birkhoff monotonicity of the level sets,
distance from the intermediate band to the upper constraint, and local
minimality under frozen-boundary ball re-solves.
"""

import numpy as np

from nlphase import Direction, build_domain, build_weights
from nlphase.geometry import interface_width
from nlphase.minimize import (Constraints, check_birkhoff, check_class_A,
                              minimize_strip, upper_distance)
from nlphase.model import KernelSpec, PotentialSpec

tau = 1.0
kernel = KernelSpec(dim=2, s=0.5, tau=tau, family="modulated")
potential = PotentialSpec(family="quartic", tau=tau, Q_modulation=True)
domain = build_domain(tau, Direction((0, 1), tau), M=16.0, h=tau / 6,
                      buffer=4.0 * tau)
weights = build_weights(kernel, domain, 8.0 * tau)

result = minimize_strip(weights, potential, Constraints(0.9))
print(f"converged: {result.converged} after {result.iterations} iterations, "
      f"F = {result.F_value:.6f}, |proj grad| = {result.grad_norm:.2e}")

width = interface_width(result.field, 0.9)
print(f"band width at level 0.9:  {width:.3f}  (width/tau = {width / tau:.2f})")
print(f"distance to upper plane:  "
      f"{upper_distance(result.field, 0.9):.3f} (want >= tau = {tau})")

birkhoff = check_birkhoff(result.field)
print(f"Birkhoff violations:      {birkhoff['worst_cells']} cells")

stability = check_class_A(weights, potential, result.field, trials=10, seed=3)
print(f"ball re-solve gain:       {stability['max_improvement']:.2e} "
      f"(tolerance {stability['tolerance']:.2e})")

result.field.dump_csv("planelike_field.csv")
print("state written to planelike_field.csv")
