"""Energy growth in balls and the log-log exponent fit."""

from nlphase import BallWindow, Direction, build_domain, build_weights
from nlphase.cli import fit_exponent
from nlphase.geometry import interface_height
from nlphase.minimize import Constraints, minimize_strip
from nlphase.model import KernelSpec, PotentialSpec

tau, s, eps = 1.0, 0.25, 1.0 / 32.0
kernel = KernelSpec(dim=2, s=s, tau=tau, family="modulated")
potential = PotentialSpec(family="quartic", tau=tau, Q_modulation=True,
                          epsilon=eps)
domain = build_domain(tau, Direction((0, 1), tau), M=24.0, h=0.125,
                      buffer=4.0)
weights = build_weights(kernel, domain, 17.6)
result = minimize_strip(weights, potential, Constraints(0.9))

center = (0.5 * domain.n_p * domain.h, interface_height(result.field))

pairs = []
print("R      interior energy (kinetic_in + potential)")
for R in (2.0, 3.0, 4.0, 5.0, 6.0, 8.0):
    rep = weights.window_report(result.field, BallWindow(center, R),
                                potential)
    pairs.append((R, rep.kinetic_in + rep.potential))
    print(f"{R:<7g}{pairs[-1][1]:.6f}")

exponent, constant, residual = fit_exponent(pairs)
print(f"\nfitted exponent {exponent:.3f} (strongly nonlocal target "
      f"{2 - 2 * s:g}), residual {residual:.3f}")
