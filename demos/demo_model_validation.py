"""Kernels, double-well potentials, and structure-hypothesis validation.

Builds the heterogeneous interaction kernel and the modulated quartic well,
evaluates them at a few points, and runs the sampled hypothesis checks that
gate every constrained-strip experiment.
"""

import numpy as np

from nlphase import (KernelSpec, PotentialSpec, eval_kernel, eval_potential,
                     gamma_of, psi_s, validate_hypotheses)

kernel = KernelSpec(dim=2, s=0.25, tau=1.0, family="modulated")
potential = PotentialSpec(family="quartic", tau=1.0, Q_modulation=True)

x = np.array([0.3, 0.1])
y = np.array([0.3, 2.1])
print(f"K(x, y) at |x-y| = 2:      {eval_kernel(kernel, x, y):.6f}")
print(f"envelope constants:        lambda = {kernel.lam}, Lambda = {kernel.Lam}")
print(f"W(x, 0) with Q-modulation: {eval_potential(potential, x, 0.0):.6f}")
print(f"well floor gamma(0.9):     {gamma_of(potential, 0.9):.6f}")
print(f"scaling profile Psi_s:     s=0.25: {psi_s(0.25, 16.0):g}, "
      f"s=0.5: {psi_s(0.5, np.e):g}, s=0.75: {psi_s(0.75, 100.0):g}")

report = validate_hypotheses(kernel, potential, samples=512, seed=1)
print("\nhypothesis checks:")
for check in report.checks:
    print(f"  {check.tag:7s} {'pass' if check.passed else 'FAIL'}   "
          f"worst deviation {check.worst:.2e}   {check.detail}")
print("all passed:", report.passed)
