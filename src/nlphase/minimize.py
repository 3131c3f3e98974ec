"""Constrained strip minimization and minimizer certificates.

The strip problem minimizes the per-period functional over the admissible
class of periodic states that are >= theta below the strip (t <= 0) and
<= -theta above it (t >= M), with values in [-1, 1].  These obstacles are
box bounds, so the deterministic surrogate for the minimal minimizer is
scipy's L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16, 1995)
started from the pointwise-smallest admissible state and driven by the
fused value-and-gradient oracle `WeightTable.objective`.  Its quality is
certified a posteriori by the Birkhoff monotonicity of level sets and by
frozen-boundary ball re-solves (local minimality in the plane, not just per
period); the ``planelike`` pipeline reports both, with the upper distance.
The period-doubling consistency check `doubling_check` is a library check
that no pipeline runs, as is multi-start agreement (a second solve from
another seed field).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np
from scipy import optimize as sopt

from .energy import BallWindow, ConfigurationError, WeightTable, build_weights
from .lattice import Field, StripDomain, birkhoff_shift


@dataclass(frozen=True)
class Constraints:
    """One-sided obstacles theta / -theta on the two constrained regions."""

    theta: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must lie in (0,1), got {self.theta}")

    def bounds(self, domain: StripDomain) -> tuple:
        """The obstacle box (lo, hi) per cell: [theta, 1] on rows t <= 0,
        [-1, -theta] on rows t >= M and [-1, 1] elsewhere; ``lo`` is the
        pointwise-smallest admissible state."""
        t = domain.t_centers()
        lo = np.full(domain.shape, -1.0)
        hi = np.ones(domain.shape)
        lo[:, t <= 0.0] = self.theta
        hi[:, t >= domain.M] = -self.theta
        return lo, hi


@dataclass
class SolveOptions:
    max_iters: int = 40000
    grad_tol: float = 1e-8
    rel_decrease_tol: float = 1e-15
    epsilon: float | None = None
    record_trace: bool = True


@dataclass
class SolveResult:
    field: Field
    F_value: float
    iterations: int
    grad_norm: float
    converged: bool
    diagnostics: dict = dfield(default_factory=dict)
    trace: np.ndarray | None = None


# scipy L-BFGS-B exit messages, by prefix, and the stop reasons they mean
_STOP_REASONS = (
    ("CONVERGENCE: NORM OF PROJECTED GRADIENT", "grad_tol"),
    ("CONVERGENCE: RELATIVE REDUCTION", "stall"),
    ("ABNORMAL", "no_descent"),
    ("STOP: TOTAL NO. OF ITERATIONS", "iteration_cap"),
)


def _stop_reason(message: str) -> str:
    for prefix, reason in _STOP_REASONS:
        if message.startswith(prefix):
            return reason
    raise RuntimeError(f"L-BFGS-B stopped: {message}")


def check_strip_height(domain: StripDomain) -> None:
    """A strip solve needs a strip at least one period tau high."""
    if domain.M < domain.tau:
        raise ConfigurationError(
            f"strip height M={domain.M} must be at least tau={domain.tau}")


def minimize_strip(weights: WeightTable, potential, constraints: Constraints,
                   options: SolveOptions | None = None,
                   seed_field: Field | None = None) -> SolveResult:
    """L-BFGS-B on the per-period functional over the obstacle box
    `Constraints.bounds`, started from its lower corner (the minimal seed)
    or from ``seed_field`` clipped into the box; the far values are the
    planelike +1 below and -1 above.

    The problem is the one ``weights`` discretizes: its kernel, strip
    domain and cutoff.  The kernel and potential hypotheses are the
    caller's to check with `nlphase.model.validate_hypotheses`; the command
    line does so once per run.

    Accepted iterations never increase the objective.
    ``diagnostics["stop_reason"]`` is ``grad_tol`` (largest projected-gradient
    entry below ``grad_tol``), ``stall`` (relative reduction of F in one
    iteration below ``rel_decrease_tol``), ``no_descent`` (no admissible
    descent left at machine precision) or ``iteration_cap`` (``max_iters``
    reached, the only exit with ``converged=False``);
    ``diagnostics["nfev"]`` counts oracle evaluations.  Trace rows are
    (iteration, F, projected-gradient norm, ||x_k - x_{k-1}||).
    """
    options = options or SolveOptions()
    domain = weights.domain
    check_strip_height(domain)
    lo, hi = constraints.bounds(domain)
    u0 = lo if seed_field is None else np.clip(seed_field.values, lo, hi)
    lo, hi = lo.ravel(), hi.ravel()
    eps = options.epsilon
    oracle = weights.objective(1.0, -1.0, potential, eps)
    last = {}

    def fun(x):
        value, last["grad"] = oracle(x)
        return value, last["grad"]

    def projected_norm(x, g):
        return float(np.linalg.norm(x - np.clip(x - g, lo, hi)))

    trace = []
    x_prev = u0.ravel()

    def record(intermediate_result):
        # scipy passes the iterate by this parameter name; the accepted
        # iterate is the point of the oracle's last evaluation
        nonlocal x_prev
        x = intermediate_result.x.copy()
        trace.append((len(trace) + 1, float(intermediate_result.fun),
                      projected_norm(x, last["grad"]),
                      float(np.linalg.norm(x - x_prev))))
        x_prev = x

    res = sopt.minimize(
        fun, x_prev, jac=True, method="L-BFGS-B", bounds=sopt.Bounds(lo, hi),
        callback=record if options.record_trace else None,
        options={"maxiter": options.max_iters, "maxfun": math.inf,
                 "ftol": options.rel_decrease_tol, "gtol": options.grad_tol})
    reason = _stop_reason(res.message)

    fld = Field(domain, np.clip(res.x, lo, hi).reshape(domain.shape))
    result = SolveResult(
        field=fld,
        F_value=weights.period_value(fld, potential, eps),
        iterations=int(res.nit),
        grad_norm=projected_norm(res.x, res.jac),
        converged=reason != "iteration_cap",
        trace=np.array(trace) if options.record_trace else None,
    )
    result.diagnostics.update(
        theta=constraints.theta, stop_reason=reason, nfev=int(res.nfev),
        upper_distance=upper_distance(fld, constraints.theta))
    return result


# ---------------------------------------------------------------------------
# certificates


def check_birkhoff(field: Field, theta_levels, generators=None) -> dict:
    """Discrete Birkhoff monotonicity of super/sublevel sets under tau-shifts.

    For each level, each lattice generator k with a definite sign of
    omega.k, and both set families {u > eta} and {-u > eta}, counts the
    cells violating the required inclusion.  Generators orthogonal to
    omega must reproduce the sets exactly.
    """
    d = field.domain
    if generators is None:
        if d.dim == 1:
            generators = [(1,), (-1,)]
        else:
            generators = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    omega = d.direction.omega
    rows = []
    worst = 0
    for k in generators:
        wk = float(np.dot(omega, d.tau * np.asarray(k, dtype=float)))
        shifted = birkhoff_shift(field, k).values
        for eta in theta_levels:
            for sign in (1.0, -1.0):
                if sign * wk > 1e-12:
                    continue  # inclusion asserted only for sign*omega.k <= 0
                sv = sign * shifted
                uv = sign * field.values
                bad = int(np.count_nonzero((sv > eta) & ~(uv > eta)))
                if abs(wk) <= 1e-12:
                    # orthogonal shift: require exact set equality
                    bad = int(np.count_nonzero((sv > eta) != (uv > eta)))
                rows.append({"k": tuple(k), "eta": float(eta),
                             "family": "+u" if sign > 0 else "-u",
                             "violating_cells": bad,
                             "violation_measure": bad * d.cell_volume})
                worst = max(worst, bad)
    return {"rows": rows, "worst_cells": worst, "passed": worst == 0}


def upper_distance(field: Field, theta: float) -> float:
    """Distance from {u > -theta} to the upper constraint plane t = M."""
    d = field.domain
    t = d.t_centers()
    above = field.values > -theta
    cols = np.any(above, axis=0)
    if not cols.any():
        return d.M - d.t_lo
    return float(d.M - t[cols].max())


def ball_improvement(weights: WeightTable, potential, field: Field,
                     center, radius: float, epsilon=None,
                     maxiter: int = 400) -> float:
    """Energy gained by re-solving inside a frozen-boundary ball.

    The constraint obstacles are dropped inside the ball (only the box
    [-1, 1] remains); everything outside, including the periodic images of
    the ball itself, stays frozen at the current state.  Nonnegative by
    construction; a value at solver scale certifies local minimality.
    """
    d = weights.domain
    ball = BallWindow(tuple(center), float(radius))
    rect, V, G, P, T = weights.window_cells(field, ball)
    inball = ball.contains(P, T)
    idx = np.nonzero(inball)
    nb = idx[0].size
    if nb == 0:
        return 0.0
    gi = G[idx]
    W_bb = weights.offset_weights(idx[0][None, :] - idx[0][:, None],
                                  idx[1][None, :] - idx[1][:, None],
                                  gi[:, None], gi[None, :])

    # frozen couplings from the full-field interaction sums (periodic classes)
    rs = weights.row_sums
    cell_cols = np.mod(idx[0] + rect[0], d.n_p)
    cell_rows = idx[1] + rect[2]
    inside_slab = (cell_rows >= 0) & (cell_rows < d.n_t)
    if not inside_slab.all():
        raise ConfigurationError("perturbation ball must stay inside the slab")
    R_tot = rs[cell_cols, cell_rows]
    C_tot = weights.interaction_sum(field.values, field.far_below,
                                    field.far_above)[cell_cols, cell_rows]
    u_ball = V[idx]
    R_ball = W_bb.sum(axis=1)
    C_ball = W_bb @ u_ball
    R_out = R_tot - R_ball
    C_out = C_tot - C_ball

    x = d.world_of_frame(P[idx], T[idx])
    q = potential.q(x)
    vol = d.cell_volume
    pscale = weights._pscale(epsilon)

    def split(v):
        kin_bb = float(v @ (R_ball * v) - v @ (W_bb @ v))
        kin_out = float(np.sum(v * v * R_out - 2.0 * v * C_out))
        pot = float(np.sum(q * potential.profile(v))) * vol * pscale
        return kin_bb + kin_out + pot

    def grad(v):
        return (2.0 * (R_ball * v - W_bb @ v) + 2.0 * (R_out * v - C_out)
                + q * potential.profile_derivative(v) * vol * pscale)

    e0 = split(u_ball)
    res = sopt.minimize(split, u_ball, jac=grad, method="L-BFGS-B",
                        bounds=[(-1.0, 1.0)] * nb,
                        options={"maxiter": maxiter, "ftol": 1e-18,
                                 "gtol": 1e-12})
    return max(e0 - float(res.fun), 0.0)


def check_class_A(weights: WeightTable, potential, field: Field,
                  trials: int = 50, radius_range=(None, None),
                  seed: int = 0, epsilon=None, tol_rel: float = 1e-8) -> dict:
    """Frozen-boundary ball re-solves on random balls inside the open strip.

    Balls are sampled compactly inside {0 < t < M}, the region where the
    constrained minimizer is a free local minimizer; the one-sided
    obstacles are active on the constrained regions themselves, so balls
    crossing them would test a property that only holds asymptotically.
    """
    d = weights.domain
    rng = np.random.default_rng(seed)
    r_lo = radius_range[0] or 2.0 * d.h
    r_hi = radius_range[1] or 2.0 * d.tau
    F_ref = abs(weights.period_value(field, potential, epsilon))
    rows = []
    worst = 0.0
    for _ in range(trials):
        r = rng.uniform(r_lo, r_hi)
        t_min = max(d.t_lo + r + d.h, r + d.h)
        t_max = min(d.t_hi - r - d.h, d.M - r - d.h)
        if t_max <= t_min:
            rows.append({"skipped": True,
                         "note": "ball outside the simulated region"})
            continue
        t0 = rng.uniform(t_min, t_max)
        p0 = rng.uniform(0.0, d.n_p * d.h)
        gain = ball_improvement(weights, potential, field, (p0, t0), r,
                                epsilon)
        rows.append({"center": (p0, t0), "radius": r, "improvement": gain})
        worst = max(worst, gain)
    return {
        "rows": rows,
        "max_improvement": worst,
        "F_reference": F_ref,
        "tolerance": tol_rel * F_ref,
        "passed": worst <= tol_rel * F_ref,
    }


def doubling_check(weights: WeightTable, potential, result: SolveResult,
                   m: int, options: SolveOptions | None = None) -> dict:
    """Re-solve on the m-fold fundamental domain from the tiled seed.

    ``weights`` is the table ``result`` was solved with; the m-fold table
    is built from its kernel and cutoff.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    base = result.field
    d = base.domain
    constraints = Constraints(result.diagnostics["theta"])
    if m == 1:
        return {"m": 1, "l1_gap_per_period": 0.0, "F_gap": 0.0}
    dom2 = StripDomain(tau=d.tau, direction=d.direction, M=d.M, h=d.h,
                       buffer=d.buffer, periods=d.periods * m)
    tiled = Field(dom2, np.tile(base.values, (m, 1)),
                  base.far_below, base.far_above)
    res2 = minimize_strip(build_weights(weights.kernel, dom2, weights.r_cut),
                          potential, constraints, options=options,
                          seed_field=tiled)
    gap = float(np.abs(res2.field.values - tiled.values).sum()
                * d.cell_volume / m)
    return {
        "m": m,
        "l1_gap_per_period": gap,
        "F_gap": res2.F_value / m - result.F_value / d.periods,
        "converged": res2.converged,
    }
