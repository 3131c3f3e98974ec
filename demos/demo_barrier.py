"""The radial comparison barrier: construction, verification, slide test."""

import numpy as np

from nlphase import Direction, build_domain, build_weights
from nlphase.barrier import (barrier_slide_test, build_barrier,
                             verify_barrier)
from nlphase.minimize import Constraints, minimize_strip
from nlphase.model import KernelSpec, PotentialSpec

kernel = KernelSpec(dim=2, s=0.25, tau=1.0)
probe = build_barrier(kernel, R=1e9, delta=0.1)
barrier = build_barrier(kernel, R=2.0 * probe.R0, delta=0.1)
print("assembled constants:")
for name in ("r1", "R0", "r", "beta", "gamma_r", "c3", "C"):
    print(f"  {name:8s} = {getattr(barrier, name):.6g}")

verdict = verify_barrier(kernel, barrier, n_samples=200, seed=0)
print(f"\noperator bound |L_K w| <= 1.05 delta (1+w): "
      f"worst ratio {verdict['worst_LKw_ratio']:.3f}")
print(f"envelope bounds with C: lower {verdict['worst_lower_C']:.3g} >= 1, "
      f"upper {verdict['worst_upper_C']:.3g} <= 1")

rho = np.linspace(0.0, 1.1 * barrier.R, 400)
np.savetxt("barrier_profile.csv",
           np.column_stack([rho, barrier.w_radial(rho),
                            barrier.grad_w_radial(rho)]),
           delimiter=",", header="radius,w,grad_w", comments="")
print("radial profile written to barrier_profile.csv")

# slide test against a converged strip state (weakly nonlocal range keeps
# the assembled threshold radius desk sized)
k75 = KernelSpec(dim=2, s=0.75, tau=1.0)
probe75 = build_barrier(k75, R=1e6, delta=1.0)
slide_bar = build_barrier(k75, R=18.0, delta=probe75.c3 * 1.05)
potential = PotentialSpec(family="quartic", tau=1.0)
domain = build_domain(1.0, Direction((0, 1), 1.0), M=36.0, h=0.5, buffer=4.0)
weights = build_weights(k75, domain, 8.0)
result = minimize_strip(weights, potential, Constraints(0.9))
u = result.field.values
it = int(np.argmin(np.abs(u.mean(axis=0))))
t0 = min(domain.t_lo + (it + 0.5) * domain.h + 0.5 * slide_bar.R,
         domain.t_hi - slide_bar.R - domain.h)
slide = barrier_slide_test(weights, potential, result.field, slide_bar,
                           (0.5 * domain.n_p * domain.h, t0))
print(f"\nslide test: E(min(u, w)) - E(u) = {slide['defect']:.4e} "
      f"(nonnegative certifies minimality)")
