"""Slow oracle: a window energy by direct pair enumeration.

Pins the FFT window path of ``WeightTable.window_report`` to an explicit
double loop over cell pairs on a tiny strip (4 cells per period, cutoff
5h), the same setup as the brute-force test of the energy module.  Only
the pair weights and far-field tail weights come from the library's public
entry queries; the enumeration, the window membership and the in/cross
split are done here.
"""

from __future__ import annotations

import numpy as np

from nlphase.energy import BallWindow, ConfigurationError, build_weights
from nlphase.lattice import Direction, Field, build_domain
from nlphase.model import KernelSpec

CASES = [
    ("standard", 0.25, (0, 1)),
    ("modulated", 0.25, (0, 1)),
    ("standard", 0.75, (1, 1)),
    ("modulated", 0.6, (1, 1)),
]
REL = 1e-10


def brute_window(wt, fld, window) -> tuple:
    """(kinetic_in, kinetic_cross) of a window by explicit pair sums."""
    dom = wt.domain
    K = wt.k_cells
    n_p, n_t = dom.shape
    u = fld.values

    def val(ip, it):
        if it < 0:
            return fld.far_below
        if it >= n_t:
            return fld.far_above
        return u[ip % n_p, it]

    def in_win(ip, it):
        p = (ip + 0.5) * dom.h
        t = dom.t_lo + (it + 0.5) * dom.h
        return bool(window.contains(np.array(p), np.array(t)))

    kin_in = kin_cross = 0.0
    for ip in range(-3 * n_p - K, 3 * n_p + K):
        for it in range(-K, n_t + K):
            if not in_win(ip, it):
                continue
            vi = val(ip, it)
            for dp in range(-K, K + 1):
                for dt in range(-K, K + 1):
                    try:
                        w = wt.offset_weight((ip % n_p, it), dp, dt)
                    except ConfigurationError:
                        continue     # beyond the cutoff
                    if w == 0.0 or (dp, dt) == (0, 0):
                        continue
                    diff2 = (vi - val(ip + dp, it + dt)) ** 2
                    if in_win(ip + dp, it + dt):
                        kin_in += 0.5 * w * diff2
                    else:
                        kin_cross += w * diff2
            tp, tm = wt.tail_weights((ip % n_p, it))
            kin_cross += ((vi - fld.far_below) ** 2 * tp
                          + (vi - fld.far_above) ** 2 * tm)
    return kin_in, kin_cross


def pin(seed: int) -> dict:
    """Compare one small ball window with the pair enumeration."""
    family, s, direction = CASES[seed % len(CASES)]
    tau = 1.0
    d = Direction(direction, tau)
    L = tau * d.norm_p
    h = L / 4
    kernel = KernelSpec(dim=2, s=s, tau=tau, family=family)
    dom = build_domain(tau, d, M=4 * h, h=h, buffer=2 * h)
    wt = build_weights(kernel, dom, 5 * h)
    rng = np.random.default_rng(seed)
    fld = Field(dom, rng.uniform(-1, 1, dom.shape))
    window = BallWindow((rng.uniform(0.2, 0.8) * L,
                         rng.uniform(0.3, 0.7) * dom.M), 3.1 * h)
    rep = wt.window_report(fld, window)
    kin_in, kin_cross = brute_window(wt, fld, window)
    err = max(abs(rep.kinetic_in - kin_in) / abs(kin_in),
              abs(rep.kinetic_cross - kin_cross) / abs(kin_cross))
    return {"case": [family, s, list(direction)], "rel_err": err,
            "passed": bool(err <= REL)}
