"""Nonlocal perimeters and the sharp-interface limit experiments.

The K-perimeter of a set E inside a window W is the three-part interaction

    Per_K(E; W) = L(E∩W, W∖E) + L(E∩W, c(E∪W)) + L(E∖W, W∖E),

which coincides with a quarter of the kinetic energy of the signed
indicator chi_E - chi_(E^c).  The theory (and this module) restricts to
the strongly nonlocal range s < 1/2, where indicators have finite kinetic
energy.  The sharp-interface experiment minimizes the scaled functionals
over a decreasing list of epsilon values, thresholds the minimizers, and
measures the limit set: half-space inclusions, phase densities, exact
periodicity, and stability under small indicator flips.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .energy import PERIOD, PeriodWindow, WeightTable
from .geometry import (SetMask, ball_count, boundary_cells, level_mask,
                       symmetric_difference_measure)
from .minimize import CERT_RADII, Constraints, minimize_strip

DENSITY_FLOOR = 0.02   # least phase volume in a boundary ball, over R^n
FLIP_REL = 1e-10       # largest flip gain, as a fraction of per-period Per_K


class RegimeError(ValueError):
    """Operation requires the strongly nonlocal regime s < 1/2."""


@dataclass
class PerimeterResult:
    per_K: float
    parts: tuple
    window: str
    tail_estimate: float


def _require_subcritical(weights: WeightTable):
    if weights.kernel.s >= 0.5:
        raise RegimeError(
            f"K-perimeter requires s < 1/2, got s={weights.kernel.s}")


def per_K(weights: WeightTable, mask: SetMask, window) -> PerimeterResult:
    """Three-part K-perimeter of a mask inside a window.  In a box or ball
    window part1 comes from its cell box (`WeightTable.rect_operator`), and
    the other parts from the weights W1 and WE of every world cell and of
    every cell of E, for the window's rows, less part1."""
    _require_subcritical(weights)
    if isinstance(window, PeriodWindow):
        return _per_K_period(weights, mask)
    d = weights.domain
    rect, chiW = weights._window_box(window)[:2]
    chiE = d.unroll(mask.inside, mask.far_below, mask.far_above, rect)
    X1 = (chiE & chiW).astype(float)
    Y1 = (chiW & ~chiE).astype(float)
    part1 = float(np.sum(X1 * weights.rect_operator(weights._g_rect(rect))(Y1)))
    fb, fa = float(mask.far_below), float(mask.far_above)
    W1, WE = weights._world_sums(rect, (np.ones(d.shape), mask.inside.astype(float)),
                                 ((1.0, 1.0), (fb, fa)))
    tp, tm = weights._tails_for(np.arange(rect[2], rect[3]))
    tail2 = float(np.sum(X1 * ((1.0 - fb) * tp + (1.0 - fa) * tm)))
    tail3 = float(np.sum(Y1 * (fb * tp + fa * tm)))
    part2 = float(np.sum(X1 * (W1 - WE))) - part1 + tail2
    part3 = float(np.sum(Y1 * WE)) - part1 + tail3
    total = part1 + part2 + part3
    return PerimeterResult(total, (part1, part2, part3), repr(window),
                           tail2 + tail3)


def _per_K_period(weights: WeightTable, mask: SetMask) -> PerimeterResult:
    """Per-period K-perimeter (class pairs counted once)."""
    ind = mask.indicator_field()
    rep = weights.period_report(ind)
    part1 = rep.kinetic_in / 4.0
    # split the far cross term into the E-side and complement-side parts
    Fb, Fa = weights.far_weights
    chiE, fb, fa = mask.inside, float(mask.far_below), float(mask.far_above)
    part2 = float(np.sum(np.where(chiE, (1.0 - fb) * Fb + (1.0 - fa) * Fa, 0.0)))
    part3 = float(np.sum(np.where(~chiE, fb * Fb + fa * Fa, 0.0)))
    total = part1 + part2 + part3
    return PerimeterResult(total, (part1, part2, part3), "period",
                           rep.tail_estimate / 4.0)


def indicator_energy(weights: WeightTable, mask: SetMask, window) -> float:
    """Kinetic energy of the signed indicator in a window, 4 Per_K; the
    potential vanishes at the pure phases."""
    return weights.window_report(mask.indicator_field(), window).total


def gamma_sweep(weights: WeightTable, potential, constraints: Constraints,
                eps_list) -> dict:
    """Sharp-interface sweep: solve the scaled problem that ``weights``
    discretizes for each epsilon, under ``potential`` at that epsilon.

    Solutions continue from the previous epsilon; each record carries the
    solve's per-period scaled energy F, the perimeter of the thresholded set
    and the symmetric difference to the final threshold set.
    """
    _require_subcritical(weights)   # every record thresholds to a K-perimeter
    eps_list = list(eps_list)
    if any(e1 <= e2 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if any(not 0.0 < e <= weights.domain.tau for e in eps_list):
        raise ValueError("epsilon values must lie in (0, tau]")
    scaled = [replace(potential, epsilon=eps) for eps in eps_list]
    records = []
    seed = None
    for eps, pot in zip(eps_list, scaled):
        res = minimize_strip(weights, pot, constraints, seed_field=seed,
                             record_trace=False)
        seed = res.field
        mask = level_mask(res.field, 0.0, "above")
        g_thr = 4.0 * per_K(weights, mask, PERIOD).per_K
        records.append({
            "eps": float(eps), "E_eps": res.F_value, "G_threshold": g_thr,
            "converged": bool(res.converged), "mask": mask,
            "field": res.field,
        })
    final = records[-1]["mask"]
    for rec in records:
        rec["sym_diff"] = symmetric_difference_measure(rec["mask"], final)

    # recovery identity: on indicator data the scaled energy is epsilon-free
    ind, g_final = final.indicator_field(), records[-1]["G_threshold"]
    ident_gap = max(abs(weights.period_value(ind, pot) - g_final)
                    for pot in scaled)
    gaps = [abs(r["E_eps"] - r["G_threshold"]) for r in records]
    trend_ok = all(g2 <= g1 * 1.10 for g1, g2 in zip(gaps, gaps[1:]))
    sym_ok = all(r1["sym_diff"] >= r2["sym_diff"] - 1e-12
                 for r1, r2 in zip(records, records[1:]))
    return {
        "records": records,
        "recovery_identity_gap": ident_gap,
        "liminf_gaps": gaps,
        "gap_trend_nonincreasing": trend_ok,
        "sym_diff_nonincreasing": sym_ok,
    }


def minimal_surface_extract(sweep: dict, m0_ref: float | None = None,
                            density_radii=None) -> dict:
    """Limit-set surrogate from a completed sweep, with its certificates.

    Verifies the two half-space inclusions (against tau * m0_ref when a
    reference width constant is supplied), measures phase densities (at
    least `DENSITY_FLOOR`) in balls centered at boundary cells, and
    confirms exact periodicity.  Two hold by construction: the lower
    inclusion (the obstacle keeps u >= theta on t <= 0) and, on one
    period, periodicity (the generator (-p2, p1) shifts by (n_p, 0) cells).
    """
    records = sweep["records"]
    good = [r for r in records if r["converged"]]
    if len(good) < 3:
        raise ValueError("need at least 3 converged sweep records")
    mask = records[-1]["mask"]
    d = mask.domain
    t = d.t_centers()

    below_rows = t < 0.0
    incl_lower = bool(np.all(mask.inside[:, below_rows])) and mask.far_below
    sup_t = float(t[np.any(mask.inside, axis=0)].max()) if mask.inside.any() else d.t_lo
    m0_emp = sup_t / d.tau
    incl_upper = (not mask.far_above) and (
        True if m0_ref is None else sup_t <= d.tau * m0_ref + 0.5 * d.h)

    # exact periodicity under every generator of ~ (pure p-shifts)
    periodic = True
    if d.dim == 2:
        dp, dt = d.lattice_shift_cells((-d.direction.p[1], d.direction.p[0]))
        shifted = np.roll(mask.inside, dp, axis=0)
        periodic = bool(dt == 0 and np.array_equal(shifted, mask.inside))

    bnd = boundary_cells(mask, (0, d.n_p, 0, d.n_t))
    P, T = d.frame_centers()
    density_rows = []
    dens_ok = True
    if density_radii is None:
        density_radii = [3.0 * d.tau, 5.0 * d.tau]
    cells = list(zip(*np.nonzero(bnd)))
    for (ip, it) in cells[:: max(1, len(cells) // 8)]:
        center = (P[ip, it], T[ip, it])
        for R in density_radii:
            vol = R ** d.dim
            in_d = ball_count(mask, center, R) * d.cell_volume / vol
            out_d = ball_count(mask.complement(), center, R) * d.cell_volume / vol
            density_rows.append({"center": center, "R": float(R),
                                 "inside": in_d, "outside": out_d})
            dens_ok &= min(in_d, out_d) >= DENSITY_FLOOR
    return {
        "mask": mask,
        "m0_emp": m0_emp,
        "inclusion_lower": incl_lower,
        "inclusion_upper": incl_upper,
        "periodic": periodic,
        "density_rows": density_rows,
        "density_ok": bool(dens_ok),
        "passed": bool(incl_lower and incl_upper and periodic and dens_ok),
    }


def flip_gains(weights: WeightTable, mask: SetMask) -> tuple:
    """Perimeter changes of single-cell and connected two-cell flips.

    Flipping one world copy of cell i changes the perimeter by
    sum_j w_ij (2 [chi_j = chi_i] - 1) = m_i * (sum_j w_ij m_j) in terms of
    the signed indicator m; flipping two cells i, j together changes it by
    the sum of their single gains less 2 w_ij m_i m_j.  Returns the single
    gains, the pair gains along t (cells (ip, it), (ip, it + 1)) and, in
    two dimensions, along p (cells (ip, it), (ip + 1, it), periodic);
    negative values are improving flips.
    """
    _require_subcritical(weights)
    ind = mask.indicator_field()
    m = ind.values
    g = weights._g_slab
    single = m * weights.interaction_sum(m, ind.far_below, ind.far_above)
    pair_t = (single[:, :-1] + single[:, 1:] - 2.0 * m[:, :-1] * m[:, 1:]
              * weights.offset_weights(0, 1, g[:, :-1], g[:, 1:]))
    if weights.domain.dim == 1:
        return single, pair_t, None
    pair_p = (single + np.roll(single, -1, axis=0)
              - 2.0 * m * np.roll(m, -1, axis=0)
              * weights.offset_weights(1, 0, g, np.roll(g, -1, axis=0)))
    return single, pair_t, pair_p


def surface_local_min_check(weights: WeightTable, mask: SetMask,
                            trials: int = 20, seed: int = 0) -> dict:
    """Search balls for improving {1,2}-cell indicator flips.

    Radii are drawn in `nlphase.minimize.CERT_RADII`.  Balls wrap
    periodically in p, so a ball near the period boundary also holds the
    cells it reaches across it.  The bound is `FLIP_REL`.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    d = weights.domain
    rng = np.random.default_rng(seed)
    single, pair_t, pair_p = flip_gains(weights, mask)
    total = per_K(weights, mask, PERIOD).per_K
    r_lo, r_hi = CERT_RADII[0] * d.h, CERT_RADII[1] * d.tau
    P, T = d.frame_centers()
    L = d.n_p * d.h
    best = 0.0
    rows = []
    for _ in range(trials):
        r = rng.uniform(r_lo, r_hi)
        t0 = rng.uniform(d.t_lo + r, d.t_hi - r)
        p0 = rng.uniform(0.0, L)
        dP = np.mod(P - p0 + 0.5 * L, L) - 0.5 * L
        inball = dP ** 2 + (T - t0) ** 2 < r * r
        if not inball.any():
            rows.append({"note": "empty ball"})
            continue
        worst = float(np.min(single[inball]))
        pair = inball[:, :-1] & inball[:, 1:]
        if pair.any():
            worst = min(worst, float(np.min(pair_t[pair])))
        if pair_p is not None and d.n_p > 1:
            pair = inball & np.roll(inball, -1, axis=0)
            if pair.any():
                worst = min(worst, float(np.min(pair_p[pair])))
        rows.append({"center": (p0, t0), "radius": r, "best_gain": worst})
        best = min(best, worst)
    improvement = max(-best, 0.0)
    return {
        "rows": rows,
        "max_improvement": improvement,
        "per_K": total,
        "passed": improvement <= FLIP_REL * abs(total),
    }
