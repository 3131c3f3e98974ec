"""Windowed energies, the per-period functional, and the operator L_K."""

from dataclasses import asdict, replace

import numpy as np

from nlphase import (BallWindow, Direction, Field, PERIOD, build_domain,
                     build_weights)
from nlphase.model import KernelSpec, PotentialSpec

kernel = KernelSpec(dim=2, s=0.25, tau=1.0, family="modulated")
potential = PotentialSpec(family="quartic", tau=1.0, Q_modulation=True)
domain = build_domain(1.0, Direction((0, 1), 1.0), M=8.0, h=0.125,
                      buffer=4.0)
weights = build_weights(kernel, domain, 8.0)

t = domain.t_centers()
field = Field(domain, np.tile(np.tanh(4.0 - t), (domain.n_p, 1)))

period = weights.window_report(field, PERIOD, potential)
print("per-period energy:")
for key, val in asdict(period).items():
    print(f"  {key:>14}: {val}")

P, T = domain.rect_centers((0, 1, domain.n_t // 2, domain.n_t // 2 + 1))
ball = BallWindow((float(P[0, 0]), float(T[0, 0])), 2.0)
rep = weights.window_report(field, ball, potential)
print(f"\nball window (R=2): total {rep.total:.6f} = "
      f"{rep.kinetic_in:.6f} + {rep.kinetic_cross:.6f} + {rep.potential:.6f}")

scaled = weights.window_report(field, ball, replace(potential, epsilon=0.25))
print(f"scaled functional (eps=1/4): potential x {scaled.potential / rep.potential:.4f}")

lk = weights.apply_lk(field)
res = np.abs(2.0 * lk + potential.q(domain.world_centers())
             * potential.profile_derivative(field.values))
print(f"\noperator L_K: range [{lk.min():.3f}, {lk.max():.3f}]")
print(f"|-2 L_K u - W_r| on this hand-made profile: max {res.max():.3f} "
      f"(nonzero: a tanh guess is not a critical point)")
