"""Constrained strip minimization and minimizer certificates.

The strip problem minimizes the per-period functional over the admissible
class of periodic states that are >= theta below the strip (t <= 0) and
<= -theta above it (t >= M), with values in [-1, 1].  These obstacles are
box bounds, so the deterministic surrogate for the minimal minimizer is
scipy's L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16, 1995)
started from the pointwise-smallest admissible state.  Its quality is
certified a posteriori by the Birkhoff monotonicity of level sets and by
frozen-boundary ball re-solves (local minimality in the plane, not just per
period); the ``planelike`` pipeline reports both, with the upper distance.
The strip solve and the ball re-solves go through one driver, `_descend`,
which minimizes the energy anchored at the start point: the start energy
plus an energy difference exact to a few ulp of the change of the values
rather than of the energy itself, so a ball's class-A improvement is that
difference.  The solver tolerances and iteration caps of both, the
certificate ball radii and the class-A bound are module constants.
Every solve is on a one-period strip; the ball re-solves are where the
period is broken, since each one changes a single world copy.  Multi-start
agreement (a second solve from another seed field) is a library check that
no pipeline runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize as sopt

from .energy import BallWindow, ConfigurationError, WeightTable
from .lattice import Field, StripDomain, birkhoff_shift

# L-BFGS-B stopping rules: projected-gradient and relative-decrease-of-F
# tolerances, and the iteration cap
GRAD_TOL = 1e-8
REL_DECREASE_TOL = 1e-15
MAX_ITERS = 40000
# the same for a ball re-solve, whose F is an energy difference near 0
BALL_GRAD_TOL, BALL_REL_DECREASE_TOL, BALL_MAX_ITERS = 1e-12, 1e-18, 400
# certificate balls have radii in [2h, 2tau]: (factor of h, factor of tau)
CERT_RADII = (2.0, 2.0)
CLASS_A_REL = 1e-8   # largest ball re-solve gain, as a fraction of |F|


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
class SolveResult:
    field: Field
    F_value: float
    iterations: int
    grad_norm: float
    converged: bool
    stop_reason: str
    nfev: int
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


def _descend(kinetic_grad, qv, potential, x0, F0, bounds, options,
             on_iterate=None):
    """L-BFGS-B on F(v) = F0 + [E(v) - E(x0)] over the box ``bounds``,
    started from ``x0``; returns scipy's result.

    E is the kinetic quadratic form with gradient ``kinetic_grad`` plus the
    potential sum(qv w0(v)).  The difference is anchored at x0, exact to a
    few ulp of v - x0 rather than of E: its kinetic part is
    (v - x0).(g(v) + g(x0))/2, exact for a quadratic form with gradient g,
    and its potential part sums `PotentialSpec.profile_difference`.  The
    offset F0 keeps F at the scale of E, so that scipy's relative-decrease
    test stays relative.  ``on_iterate(x, F, grad)`` sees each accepted
    iterate with its value and gradient.
    """
    g0 = kinetic_grad(x0)
    last = {}

    def fun(v):
        g = kinetic_grad(v)
        value = (F0 + 0.5 * float((v - x0) @ (g + g0))
                 + float(np.sum(qv * potential.profile_difference(v, x0))))
        last["grad"] = g + qv * potential.profile_derivative(v)
        return value, last["grad"]

    # scipy passes the iterate by this parameter name; the accepted iterate
    # is the point of the oracle's last evaluation
    callback = None if on_iterate is None else (
        lambda intermediate_result: on_iterate(
            intermediate_result.x, float(intermediate_result.fun),
            last["grad"]))
    return sopt.minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                         callback=callback, options=options)


def minimize_strip(weights: WeightTable, potential, constraints: Constraints,
                   seed_field: Field | None = None, epsilon=None,
                   record_trace: bool = True) -> SolveResult:
    """L-BFGS-B on the per-period functional over the obstacle box
    `Constraints.bounds`, started from its lower corner (the minimal seed)
    or from ``seed_field`` clipped into the box; the far values are the
    planelike +1 below and -1 above.  ``epsilon`` scales the potential
    (None: unscaled).

    The problem is the one ``weights`` discretizes: its kernel, strip
    domain and cutoff.  The kernel and potential hypotheses are the
    caller's to check with `nlphase.model.validate_hypotheses`; the command
    line does so once per run.

    The solver minimizes the energy anchored at the start (`_descend`).
    Accepted iterations never increase the objective.  ``stop_reason`` is
    ``grad_tol`` (largest projected-gradient entry below `GRAD_TOL`),
    ``stall`` (relative reduction of F in one iteration below
    `REL_DECREASE_TOL`), ``no_descent`` (no admissible descent left at
    machine precision) or ``iteration_cap`` (`MAX_ITERS` reached, the only
    exit with ``converged=False``); ``nfev`` counts oracle evaluations.
    With ``record_trace`` the trace rows are (iteration, F,
    projected-gradient norm, ||x_k - x_{k-1}||).
    """
    domain = weights.domain
    check_strip_height(domain)
    lo, hi = constraints.bounds(domain)
    start = Field(domain, lo if seed_field is None
                  else np.clip(seed_field.values, lo, hi))
    lo, hi = lo.ravel(), hi.ravel()

    def kinetic_grad(x):
        return weights._kinetic(x.reshape(domain.shape), start.far_below,
                                start.far_above)[0].ravel()

    def projected_norm(x, g):
        return float(np.linalg.norm(x - np.clip(x - g, lo, hi)))

    trace = []
    x_prev = start.values.ravel()

    def record(x, F, grad):
        nonlocal x_prev
        x = x.copy()
        trace.append((len(trace) + 1, F, projected_norm(x, grad),
                      float(np.linalg.norm(x - x_prev))))
        x_prev = x

    res = _descend(
        kinetic_grad, weights._potential_weights(potential, epsilon).ravel(),
        potential, x_prev, weights.period_value(start, potential, epsilon),
        sopt.Bounds(lo, hi),
        {"maxiter": MAX_ITERS, "maxfun": math.inf,
         "ftol": REL_DECREASE_TOL, "gtol": GRAD_TOL},
        record if record_trace else None)
    reason = _stop_reason(res.message)

    fld = Field(domain, np.clip(res.x, lo, hi).reshape(domain.shape))
    return SolveResult(
        field=fld,
        F_value=weights.period_value(fld, potential, epsilon),
        iterations=int(res.nit),
        grad_norm=projected_norm(res.x, res.jac),
        converged=reason != "iteration_cap",
        stop_reason=reason,
        nfev=int(res.nfev),
        trace=np.array(trace) if record_trace else None,
    )


# ---------------------------------------------------------------------------
# certificates


def check_birkhoff(field: Field,
                   theta_levels=(-0.9, -0.5, 0.0, 0.5, 0.9)) -> dict:
    """Discrete Birkhoff monotonicity of super/sublevel sets under tau-shifts.

    For each level, each axis generator +-e_i of the lattice with a definite
    sign of omega.k, and both set families {u > eta} and {-u > eta}, counts
    the cells violating the required inclusion.  Generators orthogonal to
    omega must reproduce the sets exactly.
    """
    d = field.domain
    generators = ([(1,), (-1,)] if d.dim == 1
                  else [(1, 0), (-1, 0), (0, 1), (0, -1)])
    rows = []
    worst = 0
    for k in generators:
        # omega.(tau k) = tau^2 p.k, and tau > 0: the integer p.k has its sign
        wk = int(np.dot(d.direction.p, k))
        shifted = birkhoff_shift(field, k).values
        for eta in theta_levels:
            for sign in (1.0, -1.0):
                if sign * wk > 0:
                    continue  # inclusion asserted only for sign*omega.k <= 0
                sv = sign * shifted
                uv = sign * field.values
                bad = int(np.count_nonzero((sv > eta) & ~(uv > eta)))
                if wk == 0:
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
                     center, radius: float, epsilon=None) -> float:
    """Energy gained by re-solving inside a frozen-boundary ball.

    The constraint obstacles are dropped inside the ball (only the box
    [-1, 1] remains); everything outside, including the periodic images of
    the ball itself, stays frozen at the current state.  The ball's cells
    are single copies (`WeightTable.ball_operator`).

    `_descend` minimizes the anchored difference f(v) = E(v) - E(u) from
    the current values u (start energy 0), and the gain is -min f,
    nonnegative by construction since f(u) = 0.  A value at solver scale
    certifies local minimality.
    """
    d = weights.domain
    ball = BallWindow(tuple(center), float(radius))
    rect, inball, op = weights.ball_operator(ball)
    if not inball.any():
        return 0.0
    idx = np.nonzero(inball)
    cell_cols = np.mod(idx[0] + rect[0], d.n_p)
    cell_rows = idx[1] + rect[2]
    if not np.all((cell_rows >= 0) & (cell_rows < d.n_t)):
        raise ConfigurationError("perturbation ball must stay inside the slab")

    # E(v) = sum [v^2 R_tot - v (W v) - 2 v C_out] + potential: the row
    # sums and interaction sums over every world cell (periodic classes),
    # less the ball's own couplings C_ball = W u
    u_ball = field.values[cell_cols, cell_rows]
    R_tot = weights.row_sums[cell_cols, cell_rows]
    C_out = weights.interaction_sum(field.values, field.far_below,
                                    field.far_above)[cell_cols, cell_rows]
    C_out -= op(u_ball)

    P, T = d.rect_centers(rect)
    qv = (potential.q(d.world_of_frame(P[idx], T[idx])) * d.cell_volume
          * weights._pscale(epsilon))

    res = _descend(lambda v: 2.0 * (R_tot * v - op(v) - C_out), qv,
                   potential, u_ball, 0.0, sopt.Bounds(-1.0, 1.0),
                   {"maxiter": BALL_MAX_ITERS, "ftol": BALL_REL_DECREASE_TOL,
                    "gtol": BALL_GRAD_TOL})
    return max(0.0, -float(res.fun))


def check_class_A(weights: WeightTable, potential, field: Field,
                  trials: int = 12, seed: int = 0, epsilon=None) -> dict:
    """Frozen-boundary ball re-solves on random balls inside the open strip.

    Radii are drawn in `CERT_RADII`, and balls compactly inside
    {0 < t < M}, the region where the constrained minimizer is a free local
    minimizer; the one-sided obstacles are active on the constrained
    regions themselves, so balls crossing them would test a property that
    only holds asymptotically.  The bound is `CLASS_A_REL`.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    d = weights.domain
    rng = np.random.default_rng(seed)
    r_lo, r_hi = CERT_RADII[0] * d.h, CERT_RADII[1] * d.tau
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
        "tolerance": CLASS_A_REL * F_ref,
        "passed": worst <= CLASS_A_REL * F_ref,
    }
