"""Explicit radial comparison barrier and its verification.

The barrier is a radially non-decreasing C^{1,1} function w equal to 1
outside B_R and pinned near -1 on B_{R/2}, built from the profile chain

    ell(t) = (r - t)^(-2s)
    h      = 0,  gamma_r (ell(t) - ell(r/2) - ell'(r/2)(t - r/2)),  1
             on [0, r/2), [r/2, r-1), [r-1, inf)
    g      = eta h + 1 - eta        (smooth cutoff supported in [r-7/4, r-5/4])
    v(x)   = g(|x|)
    w(x)   = (2 - beta) v(r x / R) + beta - 1,     beta = 32 r^(-2s),

with r = r1 R / R0, r1 = 2^(3/s), and R0 assembled from the measured
operator constant c3 so that |L_K w| <= delta (1 + w) holds on B_R with

    R0 = (c3 / delta)^(1/(1 - nu_bar)) r1,
    nu_bar = 1 - 2s  (s < 1/2)  or the kernel regularity exponent nu.

L_K pairs +-z; in 2D the half-circle angle nodes are mirrored bitwise,
cos phi_(N-1-k) = -cos phi_k, so the profile at |x - z| is the profile at
|x + z| in reverse angle order, and each node is evaluated once.

The operator constant c3 is measured, not proved: it is the sampled
supremum of |L v| / (v + 16 r^(-2s)) times a 1.2 safety factor, clamped
from below by delta; it depends on (n, s, r) alone, and each measurement
is cached by those.  The two-sided envelope constant C is likewise
assembled from measured admissible values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .energy import BallWindow, WeightTable
from .lattice import Field


class BarrierRangeError(ValueError):
    """Requested outer radius below the assembled threshold."""


# _lk_radial: Gauss-Legendre on geometric radial panels, midpoint in angle
_N_PANELS, _N_PHI = 96, 96
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)
_COS_PHI = np.cos((np.arange(_N_PHI // 2) + 0.5) * (math.pi / _N_PHI))
_COS_PHI = np.concatenate([_COS_PHI, -_COS_PHI[::-1]])


def _smoothstep(x):
    x = np.clip(x, 0.0, 1.0)
    return x * x * x * (10.0 + x * (-15.0 + 6.0 * x))


def _smoothstep_d(x):
    x = np.clip(x, 0.0, 1.0)
    return 30.0 * x * x * (1.0 - x) ** 2


@dataclass
class BarrierFn:
    """Assembled barrier with all internal constants exposed."""

    n: int
    s: float
    R: float
    delta: float
    r1: float
    R0: float
    r: float
    beta: float
    gamma_r: float
    c3: float
    nu_bar: float
    C: float

    # -- profile chain (variables at the unscaled radius t in [0, r]) ------

    def ell(self, t):
        return (self.r - np.asarray(t, dtype=float)) ** (-2.0 * self.s)

    def ell_d(self, t):
        return 2.0 * self.s * (self.r - np.asarray(t, dtype=float)) \
            ** (-2.0 * self.s - 1.0)

    def eta(self, t):
        return 1.0 - _smoothstep((np.asarray(t, dtype=float)
                                  - (self.r - 1.75)) / 0.5)

    def eta_d(self, t):
        return -_smoothstep_d((np.asarray(t, dtype=float)
                               - (self.r - 1.75)) / 0.5) / 0.5

    def _h_mid(self, t):
        half = 0.5 * self.r
        return self.gamma_r * (self.ell(t) - self.ell(half)
                               - self.ell_d(half) * (t - half))

    def _on_band(self, t, above, chain):
        """chain(t, eta(t)) on the band [r/2, r - 9/8), which holds every t
        where g varies (up to r - 5/4); 0 below it, ``above`` beyond.  The
        band stops short of r - 1, so h on it is its middle formula _h_mid
        (r >= r1 > 8 puts r/2 far below r - 7/4)."""
        t = np.asarray(t, dtype=float)
        half = 0.5 * self.r
        band = ~((t < half) | (t >= self.r - 1.125))   # NaN stays in the chain
        out = np.where(t >= half, above, 0.0)
        if band.any():
            tb = t if t.ndim == 0 else t[band]   # 0-d keeps the scalar power
            out[band] = chain(tb, self.eta(tb))
        return out[()]

    def g_profile(self, t):
        """Radial profile g = eta h + 1 - eta of the unscaled barrier."""
        return self._on_band(t, 1.0,
                             lambda t, e: e * self._h_mid(t) + 1.0 - e)

    def g_profile_d(self, t):
        return self._on_band(t, 0.0, lambda t, e: (
            self.eta_d(t) * (self._h_mid(t) - 1.0)
            + e * (self.gamma_r * (self.ell_d(t) - self.ell_d(0.5 * self.r)))))

    # -- the scaled barrier -------------------------------------------------

    def w_radial(self, rho):
        rho = np.asarray(rho, dtype=float)
        return (2.0 - self.beta) * self.g_profile(self.r * rho / self.R) \
            + self.beta - 1.0

    def grad_w_radial(self, rho):
        rho = np.asarray(rho, dtype=float)
        return (2.0 - self.beta) * (self.r / self.R) \
            * self.g_profile_d(self.r * rho / self.R)

    @property
    def floor(self) -> float:
        """Guaranteed lower bound -1 + C^(-1) R^(-2s)."""
        return -1.0 + self.R ** (-2.0 * self.s) / self.C


def _lk_radial(profile, rho, s, n, r_inner, r_outer, absolute=False):
    """L_K at radius rho for a radial profile, standard kernel.

    Antisymmetric +-z pairing over the half circle cancels the odd singular
    part exactly; the region beyond r_outer, where the profile equals 1,
    is added in closed form.  With ``absolute`` each
    difference enters by its modulus, which gives the envelope integral
    int |w(x) - w(y)| |x-y|^(-n-2s) dy (finite for s < 1/2) instead.
    """
    rho = float(rho)
    edges = np.geomspace(r_inner, r_outer, _N_PANELS + 1)
    a, b = edges[:-1], edges[1:]
    rr = (0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _GAUSS_X).ravel()
    ww = (0.5 * (b - a)[:, None] * _GAUSS_W).ravel()
    w0 = float(profile(rho))
    gap = abs(w0 - 1.0) if absolute else w0 - 1.0

    def pair(w_plus, w_minus):
        if absolute:
            return np.abs(w0 - w_plus) + np.abs(w0 - w_minus)
        return 2.0 * w0 - w_plus - w_minus

    if n == 2:
        sq = rho * rho + rr[:, None] ** 2
        cross = 2.0 * rho * rr[:, None] * _COS_PHI[None, :]
        w_plus = profile(np.sqrt(sq + cross))
        # sq - cross is sq + cross at the mirrored angle, bitwise
        ang = pair(w_plus, w_plus[:, ::-1]).sum(axis=1) * (math.pi / _N_PHI)
        val = float(np.sum(ww * rr ** (-1.0 - 2.0 * s) * ang))
        tail = gap * 2.0 * math.pi * r_outer ** (-2.0 * s) / (2.0 * s)
    else:
        val = float(np.sum(ww * rr ** (-1.0 - 2.0 * s)
                           * pair(profile(np.abs(rho + rr)),
                                  profile(np.abs(rho - rr)))))
        tail = gap * 2.0 * r_outer ** (-2.0 * s) / (2.0 * s)
    return val + tail


def _assemble(n, s, r, R=math.nan, delta=math.nan, nu_bar=math.nan):
    """Barrier at working radius r; build_barrier sets R0, c3 and C."""
    ell = lambda t: (r - t) ** (-2.0 * s)
    ell_d = lambda t: 2.0 * s * (r - t) ** (-2.0 * s - 1.0)
    gamma_r = 1.0 / (ell(r - 1.0) - ell(r / 2.0)
                     - ell_d(r / 2.0) * (r / 2.0 - 1.0))
    return BarrierFn(n=n, s=s, R=R, delta=delta, r1=2.0 ** (3.0 / s),
                     R0=math.nan, r=r, beta=32.0 * r ** (-2.0 * s),
                     gamma_r=gamma_r, c3=math.nan, nu_bar=nu_bar, C=math.nan)


@functools.lru_cache(maxsize=64)
def _measure_c3(n, s, r) -> float:
    """Sampled sup of |L v| / (v + 16 r^(-2s)) over B_r, with 1.2 safety."""
    proto = _assemble(n, s, r)
    # dense radial samples concentrated near the profile features
    base = np.concatenate([
        np.linspace(0.0, r, 80),
        r - np.geomspace(1e-3, max(r / 2.0, 1e-2), 80),
    ])
    base = np.unique(np.clip(base, 0.0, r * (1.0 - 1e-9)))
    denom_floor = 16.0 * r ** (-2.0 * s)
    worst = 0.0
    for rho in base:
        lk = _lk_radial(proto.g_profile, rho, s, n, 1e-6, rho + r)
        ratio = abs(lk) / (float(proto.g_profile(rho)) + denom_floor)
        worst = max(worst, ratio)
    return 1.2 * worst


def build_barrier(kernel, R: float, delta: float) -> BarrierFn:
    """Assemble the barrier at outer radius R with operator bound delta."""
    for name, value in (("R", R), ("delta", delta)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive: {value}")
    n, s = kernel.dim, kernel.s
    nu_bar = 1.0 - 2.0 * s if s < 0.5 else kernel.nu
    r1 = 2.0 ** (3.0 / s)

    # fixed point: c3 measured at the working radius r = r1 R / R0(c3)
    r = r1
    for _ in range(2):
        c3 = max(_measure_c3(n, s, r), delta)
        R0 = (c3 / delta) ** (1.0 / (1.0 - nu_bar)) * r1
        r = r1 * max(R, R0) / R0
    if R < R0:
        raise BarrierRangeError(
            f"outer radius R={R} is below the assembled threshold "
            f"C(delta)={R0}; increase R or delta")
    bar = _assemble(n, s, r1 * R / R0, R, delta, nu_bar)
    bar.R0 = R0
    bar.c3 = c3
    if not 1.0 < bar.gamma_r <= 2.0:
        raise BarrierRangeError(
            f"profile normalization gamma_r={bar.gamma_r} left (1, 2]")

    # envelope constant: measured admissible values on a dense radial grid
    rho = np.unique(np.concatenate([
        np.linspace(0.0, R * (1.0 - 1e-9), 4096),
        R - np.geomspace(1e-6 * R, R / 2.0, 2048),
    ]))
    rho = rho[(rho >= 0.0) & (rho < R)]
    ratio = (1.0 + bar.w_radial(rho)) / (R + 1.0 - rho) ** (-2.0 * s)
    c4 = float(ratio.max()) * 1.0001
    c5 = float(ratio.min()) * 0.9999
    bar.C = max(R0, (r1 / R0) ** (2.0 * s) / 32.0, c4, 1.0 / c5)
    return bar


def verify_barrier(kernel, barrier: BarrierFn, n_samples: int = 200,
                   seed: int = 0) -> dict:
    """Check the operator and envelope inequalities at radial samples.

    For the standard kernel the principal value is evaluated with the
    antisymmetric radial quadrature; heterogeneous kernels in the strongly
    nonlocal range are checked against the Lambda-envelope bound
    Lambda * int |w(x)-w(y)| |x-y|^(-n-2s) dy instead.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n, s, R = barrier.n, barrier.s, barrier.R
    rng = np.random.default_rng(seed)
    rho = np.unique(np.concatenate([
        rng.uniform(0.0, R, n_samples // 2),
        R - np.geomspace(1e-4 * R, R * 0.75, n_samples - n_samples // 2),
    ]))
    rho = rho[(rho >= 0.0) & (rho < R)]
    envelope_only = kernel.family != "standard"
    if envelope_only and s >= 0.5:
        raise ValueError("envelope verification requires s < 1/2")
    worst_op = 0.0
    worst_lo = math.inf
    worst_hi = 0.0
    prof = barrier.w_radial
    for p in rho:
        lk = _lk_radial(prof, float(p), s, n, 1e-7 * max(R, 1.0), p + R,
                        absolute=envelope_only)
        lk = kernel.Lam * lk if envelope_only else abs(lk)
        wv = float(prof(p))
        worst_op = max(worst_op, lk / (barrier.delta * (1.0 + wv)))
        ratio = (1.0 + wv) / (R + 1.0 - p) ** (-2.0 * s)
        worst_lo = min(worst_lo, ratio * barrier.C)      # need >= 1
        worst_hi = max(worst_hi, ratio / barrier.C)      # need <= 1
    return {
        "worst_LKw_ratio": worst_op,
        "worst_lower_C": worst_lo,
        "worst_upper_C": worst_hi,
        "samples": int(rho.size),
        "envelope_only": envelope_only,
        "passed": bool(worst_op <= 1.05 and worst_lo >= 1.0 - 1e-9
                       and worst_hi <= 1.0 + 1e-9),
    }


def barrier_slide_test(weights: WeightTable, potential, field: Field,
                       barrier: BarrierFn, center, epsilon=None) -> dict:
    """Energy comparison against v = min(u, w(. - center)).

    For a minimizer the defect E(v; B_R) - E(u; B_R) cannot be negative
    beyond solver tolerance; the comparison is local (one world copy is
    modified, periodic images stay frozen).
    """
    d = weights.domain
    R = barrier.R
    p0, t0 = center
    if t0 - R < d.t_lo or t0 + R > d.t_hi:
        raise BarrierRangeError(
            "barrier ball does not fit inside the simulated region")
    window = BallWindow((p0, t0), R)

    def clipped(V, P, T):
        rho = np.hypot(P - p0, T - t0)
        return np.minimum(V, barrier.w_radial(rho))

    base = weights.window_report(field, window, potential, epsilon)
    slid = weights.window_report(field, window, potential, epsilon,
                                 transform=clipped)
    defect = slid.total - base.total
    return {
        "E_u": base.total,
        "E_v": slid.total,
        "defect": defect,
        "relative_defect": defect / max(abs(base.total), 1e-300),
    }
