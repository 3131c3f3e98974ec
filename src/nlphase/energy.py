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
  single-copy box, cut to its own lags (the inside pairs of windowed
  K-perimeters, and, through `ball_operator`, the class-A ball re-solves).

All sums evaluate through FFTs, so the cutoff radius can be taken
comparable to the simulated region at negligible cost.  The far weights
(Fb, Fa) and the row sums are attributes built once with the table; the
per-period value, its parts, its gradient and L_K share one kinetic pass
(`WeightTable._kinetic`), which is also the kinetic gradient of the strip
solver (`nlphase.minimize._descend`).  A box or ball window takes its
inside pairs from correlations with the plain stencil A on its cell box
(the size rule of `rect_operator`), the g_j part of each modulated weight
moved onto cell i as A is symmetric, and the pairs with one end in it from
sums over every world cell for its rows, periodic in p and so one
correlation over the fundamental columns (`WeightTable._world_sums`).
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
    the nodes of `_tent_window` only, since every other term is 0; the two
    tent factors fill two preallocated buffers in place."""
    phi = (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
    cs, sn = np.cos(phi), np.sin(phi)
    keep = _tent_window(cs, sn, d1, d2, rr.min(), rr.max())
    bufs = np.empty((2, 256, keep.size))
    ang = np.empty_like(rr)
    for lo in range(0, rr.size, 256):
        r = rr[lo:lo + 256, None]
        x, y = bufs[:, :r.size]
        for out, c, d in ((x, cs[keep], d1), (y, sn[keep], d2)):
            np.subtract(np.multiply(r, c, out=out), d, out=out)
            np.maximum(np.subtract(1.0, np.abs(out, out=out), out=out), 0.0,
                       out=out)
        ang[lo:lo + 256] = np.multiply(x, y, out=x).sum(axis=1) \
            * (2.0 * math.pi / n_phi)
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

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:    # NaN fails too
            raise WindowError(
                f"ball radius must be finite and positive, got {self.radius!r}")
        if not np.all(np.isfinite(self.center)):
            raise WindowError(f"ball centre must be finite, got {self.center!r}")

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

    def __post_init__(self):
        for lo, hi in ((self.p_lo, self.p_hi), (self.t_lo, self.t_hi)):
            if not -math.inf < lo < hi < math.inf:    # NaN fails too
                raise WindowError(f"box bounds need finite lo < hi on each "
                                  f"axis, got {lo!r} and {hi!r}")

    def contains(self, P, T):
        return ((P >= self.p_lo) & (P < self.p_hi)
                & (T >= self.t_lo) & (T < self.t_hi))

    def bounds(self):
        return (self.p_lo, self.p_hi, self.t_lo, self.t_hi)


def window_centers(domain: StripDomain, window, rect) -> tuple:
    """Frame centres (P, T) of a cell-index rectangle as a box or ball
    window reads them: a 1D strip has no p axis, so a 1D window is an
    interval in t and its cells sit at the middle of its p range."""
    P, T = domain.rect_centers(rect)
    if domain.dim == 1:
        p_lo, p_hi = window.bounds()[:2]
        P = np.full_like(P, 0.5 * (p_lo + p_hi))
    return P, T


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
        self._g_slab = self._g_rect((0, domain.n_p, 0, domain.n_t))
        zero = np.zeros(domain.shape)
        near_b, near_a = self._world_sums((0, domain.n_p, 0, domain.n_t),
                                          (zero, zero), ((1.0, 0.0), (0.0, 1.0)))
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
        over arrays; zero for the self pair and beyond the stencil, whose
        p reach is K in 2D and 0 in 1D (a 1D strip has no p axis)."""
        K, Kp = self.k_cells, self.stencil.shape[0] // 2
        near = (np.abs(dp) <= Kp) & (np.abs(dt) <= K)
        a = np.where(near, self.stencil[np.where(near, dp, 0) + Kp,
                                        np.where(near, dt, 0) + K], 0.0)
        return a * (1.0 + 0.25 * (g_i + g_j))

    def offset_weight(self, index: tuple, dp_cells: int, dt_cells: int) -> float:
        """Weight between cell ``index`` and the lattice site at that offset;
        an offset with no pair weight (beyond r_cut, or dp != 0 in 1D)
        raises `ConfigurationError`."""
        d = self.domain
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
            raise ConfigurationError(
                f"no pair weight at offset {(dp_cells, dt_cells)} (beyond "
                f"r_cut, or dp != 0 on a 1D strip)")
        return w

    # -- heterogeneity ------------------------------------------------------

    def _periodic_rect(self, rect, f) -> np.ndarray:
        """f(x) at the world centres of a cell-index rectangle, evaluated on
        the fundamental columns (so periodic images agree bitwise)."""
        d = self.domain
        ip0, ip1, it0, it1 = rect
        P, T = d.rect_centers((0, d.n_p, it0, it1))
        return f(d.world_of_frame(P, T))[np.mod(np.arange(ip0, ip1), d.n_p)]

    def _g_rect(self, rect) -> np.ndarray:
        """Modulation g over a cell-index rectangle (`_periodic_rect`)."""
        return self._periodic_rect(rect, self.kernel.modulation)

    # -- spectral helpers -----------------------------------------------------

    def _embed(self, shape, reach=None) -> np.ndarray:
        """The stencil on an FFT grid, offset 0 at index 0, cut to offsets
        of at most ``reach`` = (rp, rt) cells per axis (default: all; the
        1D stencil is the one row of p reach 0); offsets that wrap onto one
        index (the periodic p axis, n_p < 2K + 1) add up, in the order of
        `np.add.at`."""
        K, Kp = self.k_cells, self.stencil.shape[0] // 2
        rp, rt = ((Kp, K) if reach is None
                  else (min(reach[0], Kp), min(reach[1], K)))
        block = self.stencil[Kp - rp:Kp + rp + 1, K - rt:K + rt + 1]
        rows = np.arange(-rp, rp + 1)[:, None] % shape[0]
        flat = rows * shape[1] + np.arange(-rt, rt + 1)[None, :] % shape[1]
        return np.bincount(flat.ravel(), block.ravel(),
                           shape[0] * shape[1]).reshape(shape)

    def _weighted_sum(self, X: np.ndarray, G: np.ndarray, size=None,
                      spectrum=None) -> np.ndarray:
        """sum_j w_ij X_j for each cell i of the rows ``X`` (p periodic,
        rows beyond them zero); ``G`` is the modulation on those rows.  A
        transform ``size`` and stencil ``spectrum`` other than the period
        grid's correlate other rows (`_world_sums`) or a single-copy box
        (`rect_operator`)."""
        size = size or self._fft_size
        spectrum = self._spectrum if spectrum is None else spectrum
        if self.kernel.family == "standard":
            return self._correlate(X, size, spectrum)
        conv, conv_g = self._correlate(np.stack([X, G * X]), size, spectrum)
        return (1.0 + 0.25 * G) * conv + 0.25 * conv_g

    @staticmethod
    def _correlate(Y, size, spectrum) -> np.ndarray:
        """sum_j a_ij Y_j with the plain stencil a (no modulation) over the
        last two axes of ``Y``, on a transform of ``size``."""
        FY = sfft.rfftn(Y, s=size, axes=(-2, -1))
        return sfft.irfftn(FY * spectrum, s=size, axes=(-2, -1))[
            ..., :Y.shape[-2], :Y.shape[-1]]

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

    def _world_sums(self, rect, values, far) -> np.ndarray:
        """sum_j w_ij X_j over every world cell j within the cutoff, at the
        cells i of a cell-index rectangle (rows past the slab too), for each
        X with slab values ``values[k]`` and far values ``far[k]``: one
        correlation over the fundamental columns of its rows grown by K, on
        n_p x next_fast_len(rows + 2K) points, circular in p."""
        d, K, (it0, it1) = self.domain, self.k_cells, rect[2:]
        ext = (0, d.n_p, it0 - K, it1 + K)
        X = np.stack([d.unroll(v, *f, ext) for v, f in zip(values, far)])
        size = (d.n_p, sfft.next_fast_len(it1 - it0 + 2 * K))
        spectrum = (self._spectrum if size == self._fft_size
                    else np.conj(sfft.rfftn(self._embed(size))))
        S = self._weighted_sum(X, self._g_rect(ext), size, spectrum)
        return S[..., np.mod(np.arange(*rect[:2]), d.n_p), K:K + it1 - it0]

    def ball_operator(self, ball: BallWindow) -> tuple:
        """The cells of a ball and the matvec of its own pair weights.

        Returns (rect, inball, op): the cell-index rectangle that covers the
        ball (`StripDomain.cover`, single copy, so periodic images of one
        slab cell are separate cells), the mask of the ball's cells in it, and
        op(v) = sum_{j in ball} w_ij v_j for each ball cell i (`rect_operator`),
        with ``v`` and the result ordered as ``rect``'s cells under ``inball``.
        """
        d = self.domain
        rect = d.cover(ball.bounds())
        inball = ball.contains(*window_centers(d, ball, rect))
        matvec = self.rect_operator(self._g_rect(rect))

        def op(v):
            X = np.zeros(inball.shape)
            X[inball] = v
            return matvec(X)[inball]

        return rect, inball, op

    def rect_operator(self, G: np.ndarray):
        """The matvec X -> sum_j w_ij X_j for each cell i of a single-copy
        (non-periodic) box of cells whose modulation values are ``G``, X
        stacked or not: a linear correlation on N = next_fast_len(n + r)
        points per axis of n cells, against the stencil cut to lags of at
        most r = min(K, n - 1), the longest lag within the box.  It is
        exact: a lag that wraps lands at least N - r >= n, past the box."""
        size, spectrum = self._box_spectrum(G.shape)
        return lambda X: self._weighted_sum(X, G, size, spectrum)

    def _box_spectrum(self, shape) -> tuple:
        """(size, spectrum) of `rect_operator` for a box of ``shape``."""
        reach = tuple(min(self.k_cells, n - 1) for n in shape)
        size = tuple(sfft.next_fast_len(n + r) for n, r in zip(shape, reach))
        return size, np.conj(sfft.rfftn(self._embed(size, reach)))

    # -- per-period functional, gradient, operator ----------------------------

    def _potential_weights(self, potential, x=None) -> np.ndarray:
        """Per-cell factor Q(x) h^n eps^(-2s), eps = ``potential.epsilon``,
        of the potential profile at world points ``x`` (default: slab
        centres); the one evaluation of Q outside `nlphase.model`."""
        d, eps = self.domain, potential.epsilon
        if potential.Q_modulation and potential.tau != d.tau:
            raise ConfigurationError(
                f"potential tau={potential.tau} differs from strip tau={d.tau}")
        scale = 1.0 if eps is None else float(eps) ** (-2.0 * self.kernel.s)
        return (potential.q(d.world_centers() if x is None else x)
                * d.cell_volume * scale)

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

    def period_value(self, field: Field, potential) -> float:
        return self.period_report(field, potential).total

    def period_report(self, field: Field, potential=None) -> EnergyReport:
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
            self._potential_weights(potential) * potential.profile(u)))
        kin_in = float(np.sum(u * (u * self._r_in - s_in)))
        return EnergyReport(kin_in, kin_cross, pot, kin + pot, tail)

    def gradient(self, field: Field, potential) -> np.ndarray:
        """Gradient of the per-period functional in the cell values."""
        u = field.values
        grad = self._kinetic(u, field.far_below, field.far_above)[0]
        if potential is not None:
            grad = grad + (self._potential_weights(potential)
                           * potential.profile_derivative(u))
        return grad

    def apply_lk(self, field: Field) -> np.ndarray:
        """Discrete L_K u = sum_j (u_i - u_j) w_ij / h^n (tails included),
        half the kinetic gradient per cell volume."""
        grad = self._kinetic(field.values, field.far_below, field.far_above)[0]
        return grad / (2.0 * self.domain.cell_volume)

    # -- windowed energies ------------------------------------------------------

    def window_report(self, field: Field, window, potential=None,
                      transform=None) -> EnergyReport:
        """Energy over a window; ``transform(V, P, T)`` may first edit the
        values V at the frame centres (P, T) of the window's cell box, of
        which only the window's cells are read: outside it the field's
        values U stand, as for a local competitor.

        The period window counts pairs once per equivalence class of ~ and
        is the per-period functional; box and ball windows are honest plane
        windows, in which pairs straddling the window boundary enter the
        cross term once per world copy: sum_{i in W} sum_j w_ij (V_i - U_j)^2
        over every world cell j (`_world_sums` of 1, U, U^2) less the pairs
        with j in W.  Those and the inside pairs are summed per window cell
        from the plain stencil A correlated on the box, the g_j part of each
        modulated weight w_ij = a_ij (1 + (g_i + g_j)/4) moved onto cell i.
        """
        if isinstance(window, PeriodWindow):
            return self.period_report(field, potential)
        d = self.domain
        rect, inside, P, T = self._window_box(window)
        u, fb, fa = field.values, field.far_below, field.far_above
        U = d.unroll(u, fb, fa, rect)
        V = U if transform is None else transform(U.copy(), P, T)
        chi, G = inside.astype(float), self._g_rect(rect)
        std, edited = self.kernel.family == "standard", transform is not None
        # A X, A the plain stencil, for X = chi, chiV, chiU and, modulated,
        # chiV^2, chiU^2; U's slots are V's when it is unedited
        X = [chi, chi * V] + [chi * U] * edited
        X += [] if std else [chi * V * V] + [chi * U * U] * edited
        AX = self._correlate(np.stack(X), *self._box_spectrum(G.shape))
        A1, AV, AU = AX[0], AX[1], AX[1 + edited]
        # cell i's shares sum_{j in W} w_ij (V_i^2 - V_i V_j) and
        # w_ij (V_i - U_j)^2, the g_j part of w_ij moved onto i (a_ij = a_ji)
        in_in = V * V * A1 - V * AV
        in_cross = (V * V + U * U) * A1 - 2.0 * V * AU
        if not std:
            AV2, AU2 = AX[-1 - edited], AX[-1]
            in_in = (1.0 + 0.25 * G) * in_in + 0.25 * G * (AV2 - V * AV)
            in_cross = ((1.0 + 0.25 * G) * in_cross
                        + 0.25 * G * (AV2 - 2.0 * U * AV + AU2))
        kin_in = float(np.sum(chi * in_in))
        W1, WU, WU2 = self._world_sums(rect, (np.ones(d.shape), u, u * u),
                                       ((1.0, 1.0), (fb, fa), (fb * fb, fa * fa)))
        tp, tm = self._tails_for(np.arange(rect[2], rect[3]))
        tail = float(np.sum(chi * ((V - fb) ** 2 * tp + (V - fa) ** 2 * tm)))
        kin_cross = float(np.sum(chi * (V * V * W1 - 2.0 * V * WU + WU2
                                        - in_cross))) + tail
        pot = 0.0 if potential is None else float(np.sum(self._periodic_rect(
            rect, lambda x: self._potential_weights(potential, x))[inside]
            * potential.profile(V[inside])))
        total = kin_in + kin_cross + pot
        return EnergyReport(kin_in, kin_cross, pot, total, tail)

    def _window_box(self, window) -> tuple:
        """(rect, inside, P, T): the single-copy cell-index box of a box or
        ball window, the mask of the window's cells and the frame centres."""
        d = self.domain
        _, _, t_lo, t_hi = bounds = window.bounds()
        if t_hi <= d.t_lo or t_lo >= d.t_hi:
            raise WindowError("window lies outside the simulated region")
        rect = d.cover(bounds)
        P, T = window_centers(d, window, rect)
        inside = window.contains(P, T)
        if not inside.any():
            raise WindowError("window contains no cells")
        return rect, inside, P, T


# ---------------------------------------------------------------------------
# public operation wrappers


def build_weights(kernel, domain: StripDomain, r_cut: float) -> WeightTable:
    return WeightTable(kernel, domain, r_cut)

