"""Level-set densities, interface measure, clean balls, boundary counting.

Measures the geometric structure of a sharp transition state: phase
densities in balls, the codimension-one interface measure, the largest
phase-pure inscribed balls, and the cubic-grid boundary count of a dense
set.
"""

from nlphase import Direction, build_domain, build_weights
from nlphase.geometry import (ball_count, boundary_cube_family,
                              clean_ball_search, density_profile,
                              grid_boundary_count, interface_height,
                              interface_profile, level_mask)
from nlphase.minimize import Constraints, minimize_strip
from nlphase.model import KernelSpec, PotentialSpec

tau = 1.0
kernel = KernelSpec(dim=2, s=0.25, tau=tau, family="modulated")
potential = PotentialSpec(family="quartic", tau=tau, Q_modulation=True,
                          epsilon=1.0 / 32.0)
domain = build_domain(tau, Direction((0, 1), tau), M=24.0, h=0.125,
                      buffer=4.0)
weights = build_weights(kernel, domain, 8.0)
result = minimize_strip(weights, potential, Constraints(0.9))

center = (0.5 * domain.n_p * domain.h, interface_height(result.field))
print(f"interface-centered at frame point ({center[0]:.2f}, {center[1]:.2f})")

plus = level_mask(result.field, 0.5, "above")
print("\nphase density |{u > 1/2} ∩ B_R| / R^2:")
for R, val, tag in density_profile(plus, center, [4.0, 8.0, 12.0], xi=tau):
    print(f"  R = {R:4.1f}: {val:.4f}   [{tag}]")

print("interface measure |{|u| < 0.9} ∩ B_R| / R:")
for R, val, tag in interface_profile(result.field, 0.9, center,
                                     [4.0, 8.0, 12.0], xi=tau):
    print(f"  R = {R:4.1f}: {val:.4f}   [{tag}]")

balls = clean_ball_search(result.field, 0.5, center, 6.0)
print(f"\nclean balls inside B_6: plus r = {balls['plus']['radius']:.2f}, "
      f"minus r = {balls['minus']['radius']:.2f}")

cube = ((0.0, center[1] - 2.0), 4.0)
for k in (4, 8, 16):
    count = grid_boundary_count(plus, cube, k)
    print(f"grid boundary count k={k:2d}: {count:4d} mixed subcubes "
          f"(count/k = {count / k:.2f})")
family = boundary_cube_family(plus, cube, 8)
print(f"disjoint boundary-centered cubes after 1/9 thinning: {len(family)}")
