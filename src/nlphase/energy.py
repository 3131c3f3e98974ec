"""Discrete energies: pair-weight assembly, windowed sums, operator, gradient.

The kinetic part of the energy is realized as a lattice quadratic form

    (1/2) sum_{pairs} w_ij |u_i - u_j|^2,
    w_ij ~ int_{C_i} int_{C_j} K(x, y) dx dy,

with weights assembled from a translation-structured stencil:

* offsets up to ``NEAR_EXACT_CELLS`` cells use the cell-pair integral of
  the radial envelope against the cell autocorrelation ("tent") profile:
  in closed form in 1D, in 2D summed over Gauss-Legendre radii and 512
  midpoint angles (1024 for touching cells), whose relative error against
  split adaptive quadrature is -4.5e-4 at offset (6,0), +3.0e-5 at (2,1)
  and at most 4.3e-6 near the diagonal; each class of
  offsets under the 8 lattice symmetries is integrated once, and its
  angular tent profile, which does not depend on s, is shared across s;
  the tent sum runs only over the angles whose ray meets the square
  support of the tent (`_tent_window`), since every other term is 0;
* longer offsets use midpoint quadrature with the leading curvature
  correction, whose relative error at the crossover radius is below 1e-3;
* pairs of touching cells (and the self pair, which never enters any energy
  because its difference factor vanishes) exclude the singular core
  |x - y| < h/16, making their value a well-defined finite convention for
  every s in (0, 1);
* the heterogeneous amplitude a(x, y) = 1 + (g(x) + g(y))/4 multiplies the
  envelope integral at cell centers, exact to O((h/tau)^2).

Interactions beyond the cutoff radius with the two constant far-field
half-planes are bounded with the Lambda-envelope (exact for the standard
kernel) and carried as flagged tail estimates; the envelope's half-plane
integral is in closed form (`scipy.special.hyp2f1` for rows within the
cutoff of the half-plane's edge), exact to rounding.

Every kinetic and perimeter quantity goes through three `WeightTable`
primitives built on the one modulated weight w_ij = a(Delta)(1 + (g_i + g_j)/4):

* `offset_weights` -- pair weights for arrays of offsets and modulation
  values (entry queries, two-cell flips);
* `interaction_sum` -- sum_j w_ij u_j over every world cell, from the
  slab values and the two far values: the periodic slab sum plus the far
  values times `far_weights` (per-period energy, gradient, L_K, flip
  gains, frozen ball couplings, row sums);
* `rect_operator` -- the matvec X -> sum_j w_ij X_j over the cells of a
  materialized single-copy rectangle (window energies, windowed
  K-perimeters, and, through `ball_operator`, the class-A ball re-solves).

All sums evaluate through FFTs, so the cutoff radius can be taken
comparable to the simulated region at negligible cost.  The far weights
(Fb, Fa) and the row sums are attributes built once with the table; the
per-period value, its parts, its gradient and L_K share one kinetic pass
(`WeightTable._kinetic`), which is also the kinetic gradient of the strip
solver (`nlphase.minimize._descend`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft as sfft
from scipy.special import gamma as _gamma_fn, hyp2f1 as _hyp2f1

from .lattice import Field, StripDomain

NEAR_EXACT_CELLS = 6          # pair integrals out to this many cells
CORE_FRACTION = 1.0 / 16.0    # singular-core exclusion radius, in cells
R_CUT_FACTOR = 8.0            # default cutoff radius, in units of tau


class ConfigurationError(ValueError):
    """A rejected configuration; ``tag`` names the violated condition."""

    def __init__(self, message, tag="config"):
        super().__init__(message)
        self.tag = tag


class WindowError(ValueError):
    pass


# ---------------------------------------------------------------------------
# unit-cell pair integrals (h = 1)


def _gauss_panels(edges, order=16):
    """Gauss-Legendre nodes and weights on the panels between ``edges``."""
    x, w = np.polynomial.legendre.leggauss(order)
    a, b = edges[:-1, None], edges[1:, None]
    return ((0.5 * (a + b) + 0.5 * (b - a) * x).ravel(),
            (0.5 * (b - a) * w).ravel())


def _tent_window(cs, sn, d1, d2, r_lo, r_hi):
    """Indices of the angle nodes (cos, sin) = (cs, sn) whose ray meets the
    open square |z - d|_inf < 1 at some radius in [r_lo, r_hi]: on each
    axis the slab |r c - d| < 1 is an interval of r, and the tent term is
    0 wherever the two intervals and [r_lo, r_hi] have no common point.
    Each slab interval is widened by 1e-12 (|d| + 2)/|c|, far more than
    the rounding of the term's |r c - d|, so only exact zeros drop."""
    lo, hi = np.full(cs.shape, float(r_lo)), np.full(cs.shape, float(r_hi))
    with np.errstate(divide="ignore", invalid="ignore"):
        for c, dd in ((cs, d1), (sn, d2)):
            a, b = (dd - 1.0) / c, (dd + 1.0) / c
            pad = 1e-12 * (abs(dd) + 2.0) / np.abs(c)
            lo = np.maximum(lo, np.minimum(a, b) - pad)
            hi = np.minimum(hi, np.maximum(a, b) + pad)
    return np.nonzero(lo <= hi)[0]


def _angular_tent(rr, d1, d2, n_phi):
    """(2 pi / n_phi) sum_phi (1-|r cos phi - d1|)_+ (1-|r sin phi - d2|)_+
    at each radius r of ``rr``, in chunks of 256 radii; the sum runs over
    the nodes of `_tent_window` only, since every other term is 0."""
    phi = (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
    cs, sn = np.cos(phi), np.sin(phi)
    keep = _tent_window(cs, sn, d1, d2, rr.min(), rr.max())
    cs, sn = cs[keep], sn[keep]
    ang = np.empty_like(rr)
    for lo in range(0, rr.size, 256):
        r = rr[lo:lo + 256, None]
        v = (np.maximum(1.0 - np.abs(r * cs - d1), 0.0)
             * np.maximum(1.0 - np.abs(r * sn - d2), 0.0))
        ang[lo:lo + 256] = v.sum(axis=1) * (2.0 * math.pi / n_phi)
    return ang


@lru_cache(maxsize=None)
def _radial_profile(d1, d2, rmin):
    """The s-free part of a 2D pair integral: radial Gauss nodes and weights
    on [rmin, |d| + sqrt 2] and the angular tent sums at the nodes."""
    touching = max(d1, d2) <= 1
    edges = np.geomspace(rmin, math.hypot(d1, d2) + math.sqrt(2.0),
                         161 if touching else 49)
    rr, rw = _gauss_panels(edges)
    ang = _angular_tent(rr, d1, d2, 1024 if touching else 512)
    for a in (rr, rw, ang):
        a.flags.writeable = False  # the cache hands them to every s
    return rr, rw, ang


def _seg_1d(a, b, c0, c1, q):
    """int_a^b z^(-q) (c0 + c1 z) dz for 0 <= a < b (c0 = 0 when a = 0)."""
    if b <= a:
        return 0.0
    t0 = 0.0
    if c0 != 0.0:
        t0 = c0 * (b ** (1.0 - q) - a ** (1.0 - q)) / (1.0 - q)
    if abs(q - 2.0) < 1e-14:
        t1 = c1 * math.log(b / a) if a > 0.0 else math.inf
    else:
        t1 = c1 * (b ** (2.0 - q) - a ** (2.0 - q)) / (2.0 - q)
    return t0 + t1


def _unit_integral_1d(s, d, core):
    q = 1.0 + 2.0 * s
    d = abs(float(d))
    if d == 0:
        return 2.0 * _seg_1d(max(core, 1e-300), 1.0, 1.0, -1.0, q)
    lo = max(d - 1.0, core)
    return (_seg_1d(lo, d, 1.0 - d, 1.0, q)
            + _seg_1d(d, d + 1.0, 1.0 + d, -1.0, q))


def pair_core_exclusion(n: int, s: float, d1: int, d2: int = 0) -> float:
    """Singular-core radius (in cells) applied to a unit-cell pair.

    The self pair diverges for every s and always excludes |z| < 1/16.
    Touching pairs diverge only in the weakly nonlocal range s >= 1/2 and
    carry the exclusion there; in the strongly nonlocal range s < 1/2 every
    nonzero offset is absolutely convergent and integrated in full, so the
    lattice perimeter of a set agrees with the continuum one.
    """
    d1, d2 = abs(int(d1)), abs(int(d2))
    if d1 == 0 and d2 == 0:
        return CORE_FRACTION
    if max(d1, d2) <= 1 and s >= 0.5:
        return CORE_FRACTION
    return 0.0


def unit_pair_integral(n: int, s: float, d1: int, d2: int = 0) -> float:
    """Envelope integral for unit cells at an integer offset (closed form
    in 1D, quadrature in 2D), with the singular-core convention of
    `pair_core_exclusion`.  The offset is folded onto 0 <= d2 <= d1 before
    the cache lookup, so each lattice symmetry class is integrated once
    per s."""
    d1, d2 = abs(int(d1)), abs(int(d2))
    if d2 > d1:
        d1, d2 = d2, d1
    return _folded_pair_integral(n, s, d1, d2)


@lru_cache(maxsize=None)
def _folded_pair_integral(n, s, d1, d2):
    """`unit_pair_integral` for 0 <= d2 <= d1; in 2D the integral of
    |z|^(-2-2s) (1-|z1-d1|)_+ (1-|z2-d2|)_+ over |z| >= core."""
    core = pair_core_exclusion(n, s, d1, d2)
    if n == 1:
        return _unit_integral_1d(s, d1, core)
    q = 2.0 + 2.0 * s
    rr, rw, ang = _radial_profile(
        d1, d2, max(math.hypot(d1, d2) - math.sqrt(2.0), core, 1e-9))
    total = 0.0
    for lo in range(0, rr.size, 256):
        total += float(np.sum(rw[lo:lo + 256] * rr[lo:lo + 256] ** (1.0 - q)
                              * ang[lo:lo + 256]))
    return total


def _unit_stencil(n: int, s: float, k_cells: int, rmax_cells: float) -> np.ndarray:
    """Unit-cell weights on the offset grid (a single p row in 1D), zero
    beyond rmax_cells and at the self pair, which never enters sums."""
    q = n + 2.0 * s
    dt = np.arange(-k_cells, k_cells + 1)
    DP, DT = np.meshgrid(dt if n == 2 else [0], dt, indexing="ij")
    R = np.hypot(DP, DT).astype(float)
    out = np.zeros_like(R)
    far = R > NEAR_EXACT_CELLS
    out[far] = R[far] ** (-q) + (q * (q + 2 - n) / 12.0) * R[far] ** (-q - 2)
    for i, j in zip(*np.nonzero((~far) & (R > 0))):
        out[i, j] = unit_pair_integral(n, s, int(DP[i, j]), int(DT[i, j]))
    out[R > rmax_cells + 1e-12] = 0.0
    return out


# ---------------------------------------------------------------------------
# analytic far-field tails


def _halfplane_tail_2d(s, d, r_cut):
    """int over {z_t > d, |z| > r_cut} of |z|^(-2-2s) dz, for each d, in
    closed form: in polar coordinates the angle at radius r > |d| is
    pi - 2 arcsin(d/r), and for |d| < r_cut its radial integral is a
    hypergeometric function of (d/r_cut)^2; a half-plane beyond -r_cut is
    the whole annulus less the mirrored half-plane."""
    d = np.asarray(d, dtype=float)
    c = math.sqrt(math.pi) * _gamma_fn(s + 0.5) / (2.0 * s * _gamma_fn(s + 1.0))
    inner = r_cut ** (-2.0 * s) / s
    far = c * np.maximum(np.abs(d), r_cut) ** (-2.0 * s)
    a = np.where(np.abs(d) < r_cut, d / r_cut, 0.0)
    near = inner * (0.5 * math.pi - np.arcsin(a)
                    + a * _hyp2f1(0.5, s + 0.5, s + 1.5, a * a) / (2.0 * s + 1.0))
    return np.where(d >= r_cut, far,
                    np.where(d <= -r_cut, math.pi * inner - far, near))


def _halfplane_tail_1d(s, d, r_cut):
    """int over {z > d, |z| > r_cut} of |z|^(-1-2s) dz, for each d."""
    d = np.asarray(d, dtype=float)
    inner = r_cut ** (-2.0 * s)
    outer = np.maximum(np.abs(d), r_cut) ** (-2.0 * s)
    return np.where(d <= -r_cut, 2.0 * inner - outer, outer) / (2.0 * s)


# ---------------------------------------------------------------------------
# windows


@dataclass(frozen=True)
class BallWindow:
    """Euclidean ball; center in frame coordinates (p, t)."""
    center: tuple
    radius: float

    def contains(self, P, T):
        p0, t0 = self.center
        return (P - p0) ** 2 + (T - t0) ** 2 < self.radius ** 2

    def bounds(self):
        p0, t0 = self.center
        r = self.radius
        return (p0 - r, p0 + r, t0 - r, t0 + r)


@dataclass(frozen=True)
class BoxWindow:
    p_lo: float
    p_hi: float
    t_lo: float
    t_hi: float

    def contains(self, P, T):
        return ((P >= self.p_lo) & (P < self.p_hi)
                & (T >= self.t_lo) & (T < self.t_hi))

    def bounds(self):
        return (self.p_lo, self.p_hi, self.t_lo, self.t_hi)


class PeriodWindow:
    """One full period column of the simulated strip."""

    def __repr__(self):
        return "PeriodWindow()"


PERIOD = PeriodWindow()


# ---------------------------------------------------------------------------
# energy report


@dataclass
class EnergyReport:
    kinetic_in: float
    kinetic_cross: float
    potential: float
    total: float
    tail_estimate: float


# ---------------------------------------------------------------------------
# weight table


def check_r_cut(r_cut: float, domain: StripDomain) -> None:
    """A cutoff radius spans at least four cells."""
    if r_cut < 4.0 * domain.h:
        raise ConfigurationError(
            f"r_cut={r_cut} must be at least 4h={4 * domain.h}")


class WeightTable:
    """Stencil-backed pair weights bound to a kernel and a strip domain.

    The per-period data are built once: the stencil spectrum on the period
    grid (p circular; t linear on n_t + 2K points, alias-free for the slab
    with K far rows on each side), the tail weights of the slab rows,
    ``far_weights`` = (Fb, Fa), the per-cell total weight to the far
    half-plane below and above the slab (far rows within the cutoff plus
    tails), ``R_in``, the per-cell weight to the slab, and ``row_sums``,
    the per-cell total weight R_in + Fb + Fa.
    """

    def __init__(self, kernel, domain: StripDomain, r_cut: float):
        check_r_cut(r_cut, domain)
        if kernel.dim != domain.dim:
            raise ConfigurationError("kernel and domain dimension differ")
        if kernel.tau != domain.tau:
            raise ConfigurationError(
                f"kernel tau={kernel.tau} differs from strip tau={domain.tau}")
        self.kernel = kernel
        self.domain = domain
        self.r_cut = float(r_cut)
        n, s, h = domain.dim, kernel.s, domain.h
        K = self.k_cells = int(math.floor(self.r_cut / h + 1e-12))
        self.stencil = (h ** (n - 2.0 * s)) * _unit_stencil(
            n, s, K, self.r_cut / h)
        self._fft_size = (domain.n_p, sfft.next_fast_len(domain.n_t + 2 * K))
        self._spectrum = np.conj(sfft.rfftn(self._embed(self._fft_size)))
        ext = (0, domain.n_p, -K, domain.n_t + K)
        g_ext = self._g_rect(ext)
        self._g_slab = g_ext[:, K:K + domain.n_t]
        zero = np.zeros(domain.shape)
        far_rows = np.stack([domain.unroll(zero, 1.0, 0.0, ext),
                             domain.unroll(zero, 0.0, 1.0, ext)])
        near_b, near_a = self._weighted_sum(far_rows, g_ext)[
            ..., K:K + domain.n_t]
        self._slab_tails = tp, tm = self._tails_for(np.arange(domain.n_t))
        self.far_weights = Fb, Fa = near_b + tp, near_a + tm
        # bitwise the interaction sum of the constant state 1, so that
        # row_sums * u - interaction_sum(u, u, u) vanishes bitwise at u = +-1
        self._r_in = self._weighted_sum(np.ones(domain.shape), self._g_slab)
        self.row_sums = self._r_in + Fb + Fa

    # -- tails -----------------------------------------------------------

    def _tails_for(self, its) -> tuple:
        """(T_plus, T_minus) for the rows with absolute indices ``its``."""
        d = self.domain
        tc = d.t_lo + (np.asarray(its) + 0.5) * d.h
        tail = _halfplane_tail_2d if d.dim == 2 else _halfplane_tail_1d
        amp = self.kernel.Lam * d.cell_volume
        return (amp * tail(self.kernel.s, tc - d.t_lo, self.r_cut),
                amp * tail(self.kernel.s, d.t_hi - tc, self.r_cut))

    def tail_weights(self, index: tuple) -> tuple:
        """Beyond-cutoff far-field tail weights (T_plus, T_minus) of a cell."""
        tp, tm = self._tails_for([index[1]])
        return float(tp[0]), float(tm[0])

    # -- pair weights -------------------------------------------------------

    def offset_weights(self, dp, dt, g_i, g_j) -> np.ndarray:
        """Pair weights a(Delta) (1 + (g_i + g_j)/4) at cell offsets
        (dp, dt) between cells with modulation values g_i and g_j, broadcast
        over arrays; zero for the self pair and beyond the stencil."""
        K = self.k_cells
        near = (np.abs(dp) <= K) & (np.abs(dt) <= K)
        row = np.where(near, dp, 0) + K if self.domain.dim == 2 else 0
        a = np.where(near, self.stencil[row, np.where(near, dt, 0) + K], 0.0)
        return a * (1.0 + 0.25 * (g_i + g_j))

    def offset_weight(self, index: tuple, dp_cells: int, dt_cells: int) -> float:
        """Weight between cell ``index`` and the lattice site at that offset."""
        d = self.domain
        if max(abs(dp_cells), abs(dt_cells)) > self.k_cells:
            raise ConfigurationError("offset beyond r_cut")
        ip, it = index
        gi = self._g_rect((ip, ip + 1, it, it + 1))[0, 0]
        gj = self._g_rect((ip + dp_cells, ip + dp_cells + 1,
                           it + dt_cells, it + dt_cells + 1))[0, 0]
        if (dp_cells, dt_cells) == (0, 0):
            a = (d.h ** (d.dim - 2.0 * self.kernel.s)
                 * unit_pair_integral(d.dim, self.kernel.s, 0, 0))
            return float(a * (1.0 + 0.25 * (gi + gj)))
        w = float(self.offset_weights(dp_cells, dt_cells, gi, gj))
        if w == 0.0:
            raise ConfigurationError("offset beyond r_cut")
        return w

    # -- heterogeneity ------------------------------------------------------

    def _g_rect(self, rect) -> np.ndarray:
        """Modulation g over a cell-index rectangle, evaluated on the
        fundamental columns (so periodic images agree bitwise)."""
        ip0, ip1, it0, it1 = rect
        if self.kernel.family == "standard":
            return np.zeros((ip1 - ip0, it1 - it0))
        d = self.domain
        P, T = d.rect_centers((0, d.n_p, it0, it1))
        g = self.kernel.modulation(d.world_of_frame(P, T))
        return g[np.mod(np.arange(ip0, ip1), d.n_p)]

    # -- spectral helpers -----------------------------------------------------

    def _embed(self, shape, reach=None) -> np.ndarray:
        """The stencil on an FFT grid, offset 0 at index 0, cut to offsets
        of at most ``reach`` = (rp, rt) cells per axis (default: all);
        offsets that wrap onto one index (the periodic p axis,
        n_p < 2K + 1) add up."""
        K = self.k_cells
        rp, rt = (K, K) if reach is None else (min(r, K) for r in reach)
        block = self.stencil[:, K - rt:K + rt + 1]
        if self.domain.dim == 1:
            rows = np.zeros((1, 1), dtype=int)
        else:
            block = block[K - rp:K + rp + 1]
            rows = np.arange(-rp, rp + 1)[:, None] % shape[0]
        A = np.zeros(shape)
        np.add.at(A, (rows, np.arange(-rt, rt + 1)[None, :] % shape[1]), block)
        return A

    def _weighted_sum(self, X: np.ndarray, G: np.ndarray, size=None,
                      spectrum=None) -> np.ndarray:
        """sum_j w_ij X_j for each cell i of the rows ``X`` (p periodic,
        rows beyond them zero); ``G`` is the modulation on those rows.  A
        transform ``size`` and stencil ``spectrum`` other than the period
        grid's (`rect_operator`) correlate a single-copy rectangle."""
        size = size or self._fft_size
        spectrum = self._spectrum if spectrum is None else spectrum

        def corr(Y):
            FY = sfft.rfftn(Y, s=size, axes=(-2, -1))
            return sfft.irfftn(FY * spectrum, s=size, axes=(-2, -1))[
                ..., :X.shape[-2], :X.shape[-1]]

        if self.kernel.family == "standard":
            return corr(X)
        conv, conv_g = corr(np.stack([X, G * X]))
        return (1.0 + 0.25 * G) * conv + 0.25 * conv_g

    def interaction_sum(self, u: np.ndarray, far_below: float,
                        far_above: float) -> np.ndarray:
        """sum_j w_ij u_j over every world cell j, for each slab cell i.

        ``u`` holds the slab values; the far half-planes, within the cutoff
        and beyond it, enter through `far_weights` with the values
        ``far_below``/``far_above``.
        """
        Fb, Fa = self.far_weights
        return (self._weighted_sum(u, self._g_slab)
                + far_below * Fb + far_above * Fa)

    def ball_operator(self, ball: BallWindow) -> tuple:
        """The cells of a ball and the matvec of its own pair weights.

        Returns (rect, inball, op): the cell-index rectangle that covers the
        ball (unpadded, single copy, so periodic images of one slab cell are
        separate cells), the mask of the ball's cells in it, and
        op(v) = sum_{j in ball} w_ij v_j for each ball cell i, with ``v``
        and the result ordered as ``rect``'s cells under ``inball``.

        The matvec is a linear correlation on next_fast_len(2n - 1) points
        per axis of an n-cell rectangle, against the stencil cut to lags of
        at most n - 1, the largest lag inside the rectangle; longer lags
        would wrap onto real ones.
        """
        d = self.domain
        rect = d.cover(ball.bounds(), 0)
        inball = ball.contains(*d.rect_centers(rect))
        matvec = self.rect_operator(
            self._g_rect(rect),
            tuple(sfft.next_fast_len(2 * n - 1) for n in inball.shape),
            tuple(n - 1 for n in inball.shape))

        def op(v):
            X = np.zeros(inball.shape)
            X[inball] = v
            return matvec(X)[inball]

        return rect, inball, op

    def rect_operator(self, G: np.ndarray, size=None, reach=None):
        """The matvec X -> sum_j w_ij X_j for each cell i of a materialized
        (single copy, non-periodic) rectangle whose modulation values are
        ``G``: a correlation on ``size`` points per axis (default
        `_fft_shape`) against the stencil cut to lags of at most ``reach``
        cells per axis (default all)."""
        size = size or self._fft_shape(G.shape)
        spectrum = np.conj(sfft.rfftn(self._embed(size, reach)))
        return lambda X: self._weighted_sum(X, G, size, spectrum)

    # -- per-period functional, gradient, operator ----------------------------

    def _pscale(self, epsilon) -> float:
        return 1.0 if epsilon is None else float(epsilon) ** (-2.0 * self.kernel.s)

    def _potential_weights(self, potential, epsilon) -> np.ndarray:
        """Per-cell factor Q(x) h^n eps^(-2s) of the potential profile."""
        d = self.domain
        return (potential.q(d.world_centers()) * d.cell_volume
                * self._pscale(epsilon))

    def _kinetic(self, u, far_below, far_above) -> tuple:
        """Gradient and slab sum of the kinetic part of the per-period
        functional at slab values ``u``: with the slab sum
        S_in = sum_{j in slab} w_ij u_j the gradient is
        2 (row_sums u - S_in - f_b Fb - f_a Fa)."""
        s_in = self._weighted_sum(u, self._g_slab)
        Fb, Fa = self.far_weights
        grad = 2.0 * (u * self.row_sums
                      - (s_in + far_below * Fb + far_above * Fa))
        return grad, s_in

    def period_value(self, field: Field, potential, epsilon=None) -> float:
        return self.period_report(field, potential, epsilon).total

    def period_report(self, field: Field, potential=None,
                      epsilon=None) -> EnergyReport:
        """Per-period energy, decomposed.

        Pairs are counted once per equivalence class of ~, so the kinetic
        value is the energy content of one period of the infinite strip;
        ``kinetic_in`` = sum u (u R_in - S_in) collects class pairs with both
        ends in the slab (exactly 0 on a constant slab at +-1), and
        ``kinetic_cross`` the far pairs plus the analytic beyond-cutoff tail.
        """
        u, fb, fa = field.values, field.far_below, field.far_above
        grad, s_in = self._kinetic(u, fb, fa)
        Fb, Fa = self.far_weights
        # the kinetic form is quadratic in u with the far values fixed
        kin = float(np.sum(0.5 * u * grad - fb * (u - fb) * Fb
                           - fa * (u - fa) * Fa))
        tp, tm = self._slab_tails
        kin_cross = float(np.sum((u - fb) ** 2 * Fb + (u - fa) ** 2 * Fa))
        tail = float(np.sum((u - fb) ** 2 * tp + (u - fa) ** 2 * tm))
        pot = 0.0 if potential is None else float(np.sum(
            self._potential_weights(potential, epsilon) * potential.profile(u)))
        kin_in = float(np.sum(u * (u * self._r_in - s_in)))
        return EnergyReport(kin_in, kin_cross, pot, kin + pot, tail)

    def gradient(self, field: Field, potential, epsilon=None) -> np.ndarray:
        """Gradient of the per-period functional in the cell values."""
        u = field.values
        grad = self._kinetic(u, field.far_below, field.far_above)[0]
        if potential is not None:
            grad = grad + (self._potential_weights(potential, epsilon)
                           * potential.profile_derivative(u))
        return grad

    def apply_lk(self, field: Field) -> np.ndarray:
        """Discrete L_K u = sum_j (u_i - u_j) w_ij / h^n (tails included),
        half the kinetic gradient per cell volume."""
        grad = self._kinetic(field.values, field.far_below, field.far_above)[0]
        return grad / (2.0 * self.domain.cell_volume)

    # -- windowed energies ------------------------------------------------------

    def window_report(self, field: Field, window, potential=None,
                      epsilon=None, transform=None) -> EnergyReport:
        """Energy over a window; ``transform(V, P, T)`` may edit the values
        of the materialized (single copy, non-periodic) grid first.

        The period window counts pairs once per equivalence class of ~ and
        is the per-period functional; box and ball windows are honest plane
        windows, in which pairs straddling the window boundary enter the
        cross term once per world copy.
        """
        if isinstance(window, PeriodWindow):
            return self.period_report(field, potential, epsilon)
        d = self.domain
        V, G, P, T, tp, tm = self.window_cells(field, window)
        if transform is not None:
            V = transform(V, P, T)
        inside = window.contains(P, T)
        if not inside.any():
            raise WindowError("window contains no cells")
        chi = inside.astype(float)
        chiV = chi * V
        # chi and chi V vanish within K cells of the rectangle's edges and
        # op(1) is read only where chi is 1, so no term aliases (`_fft_shape`)
        op = self.rect_operator(G)
        y1, y2 = op(chi), op(chiV)
        kin_in = float(np.sum(chiV * V * y1)) - float(np.sum(chiV * y2))
        # all pairs with one end in the window, less those with both ends
        kin_cross = (float(np.sum(chiV * V * op(np.ones_like(V))))
                     - 2.0 * float(np.sum(V * y2))
                     + float(np.sum(V * V * y1)) - 2.0 * kin_in)
        tail = float(np.sum(chi * ((V - field.far_below) ** 2 * tp
                                   + (V - field.far_above) ** 2 * tm)))
        kin_cross += tail

        pot = 0.0
        if potential is not None:
            x = d.world_of_frame(P[inside], T[inside])
            pot = float(np.sum(potential.q(x) * potential.profile(V[inside]))) \
                * d.cell_volume * self._pscale(epsilon)
        total = kin_in + kin_cross + pot
        return EnergyReport(kin_in, kin_cross, pot, total, tail)

    def window_cells(self, field: Field, window) -> tuple:
        """(values, g, P, T, tp, tm) over the cell-index rectangle that
        covers a box or ball window grown by the stencil radius: a single
        copy of the plane, not folded by the periodicity; (tp, tm) are the
        far tail weights of its rows, shaped to broadcast over it."""
        d = self.domain
        p_lo, p_hi, t_lo, t_hi = bounds = window.bounds()
        if t_hi <= t_lo or (d.dim == 2 and p_hi <= p_lo):
            raise WindowError("empty window")
        if t_hi <= d.t_lo or t_lo >= d.t_hi:
            raise WindowError("window lies outside the simulated region")
        rect = d.cover(bounds, self.k_cells)
        V = d.unroll(field.values, field.far_below, field.far_above, rect)
        tp, tm = self._tails_for(np.arange(rect[2], rect[3]))
        return (V, self._g_rect(rect), *d.rect_centers(rect),
                tp[None, :], tm[None, :])

    @staticmethod
    def _fft_shape(grid_shape) -> tuple:
        """Circular transform shape of `rect_operator` for a rectangle of n
        cells per axis.  Where the argument vanishes within K cells of the
        rectangle's edges, or the result is read only at cells at least K
        from them, a pair has lag |j - i| <= n - 1 - K, and a circular lag
        aliases only lags of at least N - K > n - 1 - K, so
        N = next_fast_len(n) >= n is exact.  Otherwise N >= n + K is needed."""
        return tuple(sfft.next_fast_len(n) for n in grid_shape)


# ---------------------------------------------------------------------------
# public operation wrappers


def build_weights(kernel, domain: StripDomain, r_cut: float) -> WeightTable:
    return WeightTable(kernel, domain, r_cut)

