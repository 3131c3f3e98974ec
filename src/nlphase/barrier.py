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

L_K of a radial profile is one radial integral for n = 1 and 2, against
the kernel summed over the sphere of radius t: its two points in 1D, a
closed-form angular kernel in 2D.

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
from scipy.special import gamma, hyp2f1

from .energy import BallWindow, WeightTable
from .lattice import Field


class BarrierRangeError(ValueError):
    """Requested outer radius below the assembled threshold."""


# _lk_radial: Gauss-Legendre on radial panels geometric in the offset
_N_PANELS = 32
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)
_S_GAP = 2.0 ** -13     # _angular_kernel interpolates in s within this of 1/2
_RHO_BLOCK = 64         # radii per vectorized pass, so memory stays bounded


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

    def eta(self, t):       # 1 - smoothstep over [r - 7/4, r - 5/4]
        x = np.clip((np.asarray(t, dtype=float) - (self.r - 1.75)) / 0.5,
                    0.0, 1.0)
        return 1.0 - x * x * x * (10.0 + x * (-15.0 + 6.0 * x))

    def eta_d(self, t):
        x = np.clip((np.asarray(t, dtype=float) - (self.r - 1.75)) / 0.5,
                    0.0, 1.0)
        return -30.0 * x * x * (1.0 - x) ** 2 / 0.5

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

    def w_radial(self, rho):
        rho = np.asarray(rho, dtype=float)
        return (2.0 - self.beta) * self.g_profile(self.r * rho / self.R) \
            + self.beta - 1.0

    def grad_w_radial(self, rho):
        rho = np.asarray(rho, dtype=float)
        return (2.0 - self.beta) * (self.r / self.R) \
            * self.g_profile_d(self.r * rho / self.R)

    def knots(self, scale):
        """Profile knots at outer radius ``scale``: r/2, r - t geometric to
        the eta band (ell is singular at r), the band edges, ``scale``."""
        r = self.r
        t = r - np.geomspace(0.5 * r, 1.75, math.ceil(math.log2(r / 3.5)) + 1)
        return np.append(np.append(t, r - 1.25) * (scale / r), scale)


def _angular_kernel(rho, d, s):
    """int_0^2pi (rho^2 + t^2 - 2 rho t cos phi)^(-1-s) dphi at t = rho + d,
    2 pi |d|^(-1-2s) (rho + t)^(-1) 2F1(-s, 1/2; 1; 1 - y), y = (d/(rho + t))^2;
    for y < 1/2, the 1 - x connection formula (interpolated in s near 1/2)."""
    if abs(s - 0.5) < _S_GAP:
        lo, hi = (_angular_kernel(rho, d, 0.5 + e) for e in (-_S_GAP, _S_GAP))
        return lo + (hi - lo) * (s - 0.5 + _S_GAP) / (2.0 * _S_GAP)
    y = (d / (2.0 * rho + d)) ** 2
    f, near = np.empty_like(y), y < 0.5
    f[~near] = hyp2f1(-s, 0.5, 1.0, 1.0 - y[~near])
    y = y[near]
    f[near] = (gamma(0.5 + s) / gamma(1.0 + s) * hyp2f1(-s, 0.5, 0.5 - s, y)
               + gamma(-0.5 - s) / gamma(-s) * y ** (0.5 + s)
               * hyp2f1(1.0 + s, 0.5, 1.5 + s, y)) / math.sqrt(math.pi)
    return 2.0 * math.pi * np.abs(d) ** (-1.0 - 2.0 * s) / (2.0 * rho + d) * f


def _lk_radial(profile, rho, s, n, r_inner, knots, absolute=False):
    """L_K at radius rho (a scalar, or an array in blocks of `_RHO_BLOCK`)
    for a radial profile, standard kernel, as int_0^inf (w(rho) - w(t))
    k(rho, t) dt with k the kernel summed over the sphere of radius t:
    |t - rho|^(-1-2s) + (t + rho)^(-1-2s) in 1D and t A(rho, t) with the
    angular kernel A in 2D.

    ``knots``: array of ascending radii where the profile changes formula
    or length scale; beyond the last it is flat, added in closed form.  The
    Gauss-Legendre panels are geometric in the offset z = t - rho, from
    r_inner on, and break at the knots; they pair rho +- z, which cancels
    the odd singular part, and t is one-sided beyond 2 rho.  Each radius's
    breaks are clipped to [r_inner, top - rho] and sorted along one row; a
    repeated or clipped break is a panel of length 0, left out of the row's
    sum.  w(rho) and the tail are scalars per radius, as numpy's scalar
    and array powers round apart, so a radius gets the same value alone
    as in any array.  With
    ``absolute``, the envelope int |w(x) - w(y)| |x-y|^(-n-2s) dy (finite
    for s < 1/2).
    """
    rhos = np.atleast_1d(np.asarray(rho, dtype=float))
    w_top = float(profile(knots[-1]))
    out = np.empty(rhos.size)
    for lo in range(0, rhos.size, _RHO_BLOCK):
        r = rhos[lo:lo + _RHO_BLOCK]
        w0 = np.array([float(profile(x)) for x in r])
        top = np.maximum(knots[-1], 2.0 * r)
        z = np.concatenate([np.geomspace(r_inner, top - r, _N_PANELS + 1,
                                         axis=1), r[:, None],
                            np.abs(knots - r[:, None])], axis=1)
        z = np.sort(np.clip(z, r_inner, (top - r)[:, None]), axis=1)
        a, b = z[:, :-1, None], z[:, 1:, None]
        live = np.repeat(z[:, 1:] > z[:, :-1], _GAUSS_X.size, axis=1)
        z = (0.5 * (a + b) + 0.5 * (b - a) * _GAUSS_X).reshape(live.shape)
        wz = (0.5 * (b - a) * _GAUSS_W).reshape(z.shape)
        z = (r[:, None] + z) - r[:, None]   # so rho +- z are exact: exact pairs
        pair = z < r[:, None]
        rows = np.broadcast_to(np.arange(r.size)[:, None], z.shape)
        row = np.concatenate([rows.ravel(), rows[pair]])
        d = np.concatenate([z.ravel(), -z[pair]])
        rr = r[row]
        dw = w0[row] - profile(rr + d)
        dw = np.abs(dw) if absolute else dw
        if n == 1:
            f = dw * (np.abs(d) ** (-1.0 - 2.0 * s)
                      + (2.0 * rr + d) ** (-1.0 - 2.0 * s))
        else:
            f = dw * (rr + d) * _angular_kernel(rr, d, s)
        f, f_mirror = f[:z.size].reshape(z.shape), f[z.size:]
        f[pair] += f_mirror
        f *= wz
        for i, (rho_i, top_i, gap) in enumerate(zip(r, top, w0 - w_top)):
            gap = abs(gap) if absolute else gap
            if n == 1:
                # int over t > top of |t - rho|^(-1-2s) + (t + rho)^(-1-2s)
                far = gap * ((top_i - rho_i) ** (-2.0 * s)
                             + (top_i + rho_i) ** (-2.0 * s)) / (2.0 * s)
            else:
                # int |x - y|^(-2-2s) over |y| > top, for |x| = rho <= top / 2
                far = gap * math.pi / s * top_i ** (-2.0 * s) \
                    * hyp2f1(1.0 + s, s, 1.0, (rho_i / top_i) ** 2)
            out[lo + i] = np.sum(f[i][live[i]]) + far
    return float(out[0]) if np.ndim(rho) == 0 else out


def _assemble(n, s, r, R=math.nan, delta=math.nan, nu_bar=math.nan):
    """Barrier at working radius r; build_barrier sets R0, c3 and C."""
    bar = BarrierFn(n=n, s=s, R=R, delta=delta, r1=2.0 ** (3.0 / s),
                    R0=math.nan, r=r, beta=32.0 * r ** (-2.0 * s),
                    gamma_r=math.nan, c3=math.nan, nu_bar=nu_bar, C=math.nan)
    bar.gamma_r = 1.0 / (bar.ell(r - 1.0) - bar.ell(r / 2.0)
                         - bar.ell_d(r / 2.0) * (r / 2.0 - 1.0))
    return bar


@functools.lru_cache(maxsize=64)
def _measure_c3(n, s, r) -> float:
    """Sampled sup of |L v| / (v + 16 r^(-2s)) over B_r, with 1.2 safety;
    one `_lk_radial` call over the 160 sample radii."""
    proto = _assemble(n, s, r)
    # dense radial samples concentrated near the profile features
    base = np.unique(np.clip(np.concatenate([
        np.linspace(0.0, r, 80), r - np.geomspace(1e-3, max(r / 2.0, 1e-2), 80),
    ]), 0.0, r * (1.0 - 1e-9)))
    lk = _lk_radial(proto.g_profile, base, s, n, 1e-6, proto.knots(r))
    return 1.2 * float(np.max(np.abs(lk) / (proto.g_profile(base)
                                            + 16.0 * r ** (-2.0 * s))))


def build_barrier(kernel, R: float, delta: float) -> BarrierFn:
    """Assemble the barrier at outer radius R with operator bound delta.

    R0 depends on R through the two-step fixed point for r = r1 R / R0, so
    a probe's R0 does not guarantee that a build at R >= R0 clears its own.
    """
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

    For the standard kernel the principal value is the paired radial
    quadrature of `_lk_radial`; heterogeneous kernels in the strongly
    nonlocal range are checked against the Lambda-envelope bound
    Lambda * int |w(x)-w(y)| |x-y|^(-n-2s) dy instead.  One `_lk_radial`
    call evaluates every sample radius.
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
    lk = _lk_radial(barrier.w_radial, rho, s, n, 1e-7 * max(R, 1.0),
                    barrier.knots(R), absolute=envelope_only)
    lk = kernel.Lam * lk if envelope_only else np.abs(lk)
    wv = barrier.w_radial(rho)
    worst_op = float(np.max(lk / (barrier.delta * (1.0 + wv))))
    ratio = (1.0 + wv) / (R + 1.0 - rho) ** (-2.0 * s)
    worst_lo = float(np.min(ratio)) * barrier.C         # need >= 1
    worst_hi = float(np.max(ratio)) / barrier.C         # need <= 1
    return {"worst_LKw_ratio": worst_op, "worst_lower_C": worst_lo,
            "worst_upper_C": worst_hi, "samples": int(rho.size),
            "envelope_only": envelope_only,
            "passed": bool(worst_op <= 1.05 and worst_lo >= 1.0 - 1e-9
                           and worst_hi <= 1.0 + 1e-9)}


def barrier_slide_test(weights: WeightTable, potential, field: Field,
                       barrier: BarrierFn, center) -> dict:
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

    base = weights.window_report(field, window, potential)
    slid = weights.window_report(field, window, potential, transform=clipped)
    defect = slid.total - base.total
    return {
        "E_u": base.total,
        "E_v": slid.total,
        "defect": defect,
        "relative_defect": defect / max(abs(base.total), 1e-300),
    }
