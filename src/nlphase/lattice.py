"""Discrete periodic strip geometry.

A strip problem is posed in a rotated frame whose last axis points along
the unit direction e_t = omega/|omega| and whose first axis (in dimension
two) points along the orthogonal lattice generator z = tau*(-p2, p1).  In
this frame the strip is axis aligned: the constrained region is
0 <= t <= M, a buffer of depth B is simulated on both sides, and the state
is frozen at the pure phases beyond the buffer,

    u = +1  for t < -B,        u = -1  for t > M + B.

Cells are axis-aligned squares of side h in the frame.  The fundamental
domain covers one period L = |z| across the strip and the interval
[-B, M+B] along it; every other point of the plane is either a periodic
image of a fundamental cell (shift by a multiple of L in p) or lies in one
of the two far-field half-planes; `StripDomain.unroll` applies that rule to
any rectangle of cells.

Dimension one is supported as the degenerate case with a single column and
a trivial equivalence relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BUFFER_FACTOR = 4.0   # default buffer depth B, in units of tau

class GeometryError(ValueError):
    pass


def whole_number(value, what: str) -> int:
    """``value`` as an int; a string or a number that is not whole raises
    `GeometryError` naming ``what``."""
    if isinstance(value, (str, bytes)) or not float(value).is_integer():
        raise GeometryError(
            f"{what} must be a whole number, got {value!r}")
    return int(value)


def write_csv(path, header: str, rows) -> None:
    """``header``, then one line per row: strings as they are, numbers
    with 17 significant digits."""
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(
                v if isinstance(v, str) else f"{v:.17g}" for v in row) + "\n")


@dataclass(frozen=True)
class Direction:
    """Rational direction omega = tau * p with integer p, gcd(p) = 1."""

    p: tuple
    tau: float = 1.0

    def __post_init__(self):
        p = tuple(whole_number(v, "direction component") for v in self.p)
        if all(v == 0 for v in p):
            raise GeometryError("direction must be nonzero")
        if math.gcd(*p) != 1:
            raise GeometryError(f"integer components of {p} must have gcd 1")
        if not 0.0 < self.tau < math.inf:
            raise GeometryError(f"tau must be finite and positive, got {self.tau!r}")
        object.__setattr__(self, "p", p)

    @property
    def dim(self) -> int:
        return len(self.p)

    @property
    def norm_p(self) -> float:
        return math.sqrt(sum(v * v for v in self.p))

    @property
    def unit(self) -> np.ndarray:
        return np.asarray(self.p, dtype=float) / self.norm_p

    @property
    def p_sq(self) -> int:
        return sum(v * v for v in self.p)

    def frame(self) -> np.ndarray:
        """Columns are the frame axes (e_p..., e_t) in world coordinates."""
        if self.dim == 1:
            return np.array([[float(self.p[0])]])
        e_t = self.unit
        e_p = np.array([-e_t[1], e_t[0]])
        return np.stack([e_p, e_t], axis=1)


@dataclass(frozen=True)
class StripDomain:
    """Discretized fundamental domain of the periodic strip: one period
    |z| = tau*|p| across it, so n_p*h is that period in 2D."""

    tau: float
    direction: Direction
    M: float
    h: float
    buffer: float
    n_p: int = field(init=False)
    n_t: int = field(init=False)

    def __post_init__(self):
        for what, v in (("tau", self.tau), ("M", self.M), ("h", self.h)):
            if not 0.0 < v < math.inf:
                raise GeometryError(f"{what} must be finite and positive, got {v!r}")
        if not 0.0 <= self.buffer < math.inf:
            raise GeometryError(
                f"buffer must be finite and nonnegative, got {self.buffer!r}")
        if (dir_tau := self.direction.tau) != self.tau:
            raise GeometryError(f"direction tau {dir_tau!r} != tau {self.tau!r}")
        n_p = 1 if self.direction.dim == 1 else _divide_exactly(
            self.tau * self.direction.norm_p, self.h, "period length")
        n_t = _divide_exactly(self.M + 2.0 * self.buffer, self.h, "strip depth M+2B")
        object.__setattr__(self, "n_p", n_p)
        object.__setattr__(self, "n_t", n_t)

    @property
    def dim(self) -> int:
        return self.direction.dim

    @property
    def shape(self) -> tuple:
        return (self.n_p, self.n_t)

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    @property
    def t_lo(self) -> float:
        return -self.buffer

    @property
    def t_hi(self) -> float:
        return self.M + self.buffer

    def t_centers(self) -> np.ndarray:
        return self.rect_centers((0, 1, 0, self.n_t))[1][0]

    def frame_centers(self) -> tuple:
        """Meshgrid (P, T) of cell-center frame coordinates, shape (n_p, n_t)."""
        return self.rect_centers((0, self.n_p, 0, self.n_t))

    # -- the cell grid beyond the fundamental domain ---------------------------
    # An absolute cell index (ip, it) names a cell of the plane: ip wraps
    # with the period and rows it < 0 or it >= n_t lie in the far
    # half-planes.  A rectangle (ip0, ip1, it0, it1) is half-open.

    def cover(self, bounds) -> tuple:
        """Cell-index rectangle of the cells meeting the frame box
        (p_lo, p_hi, t_lo, t_hi); the single column in 1D."""
        p_lo, p_hi, t_lo, t_hi = bounds
        h = self.h
        it0 = math.floor((t_lo - self.t_lo) / h)
        it1 = math.ceil((t_hi - self.t_lo) / h)
        if self.dim == 1:
            return 0, 1, it0, it1
        return math.floor(p_lo / h), math.ceil(p_hi / h), it0, it1

    def rect_centers(self, rect) -> tuple:
        """Meshgrid (P, T) of the frame centers of a cell-index rectangle."""
        ip0, ip1, it0, it1 = rect
        p = (np.arange(ip0, ip1) + 0.5) * self.h
        t = self.t_lo + (np.arange(it0, it1) + 0.5) * self.h
        return np.meshgrid(p, t, indexing="ij")

    def unroll(self, values, far_below, far_above, rect) -> np.ndarray:
        """Slab ``values`` (float or bool) over a cell-index rectangle:
        columns wrap with the period, rows past the slab take the far
        values."""
        ip0, ip1, it0, it1 = rect
        its = np.arange(it0, it1)
        cols = np.mod(np.arange(ip0, ip1), self.n_p)
        inside = (its >= 0) & (its < self.n_t)
        out = np.empty((cols.size, its.size), dtype=values.dtype)
        out[:, ~inside] = np.where(its[~inside] < 0, far_below, far_above)
        out[:, inside] = values[np.ix_(cols, its[inside])]
        return out

    def world_centers(self) -> np.ndarray:
        """Cell centers in world coordinates, shape (n_p, n_t, dim)."""
        return self.world_of_frame(*self.frame_centers())

    def world_of_frame(self, p, t) -> np.ndarray:
        F = self.direction.frame()
        if self.dim == 1:
            return np.asarray(t, dtype=float)[..., None] * F[0, 0]
        return (np.asarray(p, dtype=float)[..., None] * F[:, 0]
                + np.asarray(t, dtype=float)[..., None] * F[:, 1])

    def dump_csv(self, path, column: str, values) -> None:
        """One CSV line per cell: its world center, then its entry of
        ``values`` under the header ``column``."""
        header = ",".join([f"x{k + 1}" for k in range(self.dim)] + [column])
        xy = self.world_centers().reshape(-1, self.dim)
        write_csv(path, header,
                  ([*row, v] for row, v in zip(xy, np.reshape(values, -1))))

    def lattice_shift_cells(self, k) -> tuple:
        """Frame shift, in whole cells, induced by the lattice vector tau*k.

        Integer for every integer k when n_p is a multiple of |p|^2; raises
        otherwise since the shift then leaves the cell grid.
        """
        k = np.asarray(k, dtype=float)
        if self.dim == 1:
            dt = self.tau * k[0] * self.direction.p[0] / self.h
            dp = 0.0
        else:
            p1, p2 = self.direction.p
            psq = self.direction.p_sq
            dp = self.n_p * (k[1] * p1 - k[0] * p2) / psq
            dt = self.n_p * (k[0] * p1 + k[1] * p2) / psq
        dpi, dti = round(dp), round(dt)
        if abs(dp - dpi) > 1e-9 or abs(dt - dti) > 1e-9:
            raise GeometryError(
                f"lattice shift by tau*{tuple(int(v) for v in k)} is not cell "
                f"aligned; choose n_p divisible by |p|^2 = {self.direction.p_sq}")
        return int(dpi), int(dti)


def _divide_exactly(length: float, h: float, what: str) -> int:
    n = length / h
    ni = round(n)
    if ni < 1 or abs(n - ni) > 1e-12 * max(1.0, n):
        near = length / max(ni, 1)
        raise GeometryError(
            f"cell size h={h!r} does not divide the {what} {length!r}; "
            f"nearest valid h is {near!r}")
    return ni


def build_domain(tau: float, direction: Direction, M: float, h: float,
                 buffer: float | None = None) -> StripDomain:
    """Construct the discrete strip; buffer defaults to BUFFER_FACTOR*tau."""
    if buffer is None:
        buffer = BUFFER_FACTOR * tau
    return StripDomain(tau=tau, direction=direction, M=M, h=h, buffer=buffer)


@dataclass
class Field:
    """Cell state u in [-1, 1] on the fundamental domain.

    ``far_below``/``far_above`` are the frozen values beyond the buffers;
    the planelike convention is +1 below the strip and -1 above it, but a
    field may override them (e.g. to represent a globally constant state).
    """

    domain: StripDomain
    values: np.ndarray
    far_below: float = 1.0
    far_above: float = -1.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.domain.shape:
            raise GeometryError(
                f"values shape {self.values.shape} != domain {self.domain.shape}")
        u = np.append(self.values, (self.far_below, self.far_above))
        if (bad := u[~(np.abs(u) <= 1.0 + 1e-12)]).size:    # NaN fails too
            raise GeometryError(f"field and far values must lie in [-1, 1], "
                                f"got {float(bad[0])!r}")

    def dump_csv(self, path) -> None:
        self.domain.dump_csv(path, "u", self.values)


def birkhoff_shift(field: Field, k) -> Field:
    """Field x -> u(x - tau*k) re-expressed on the fundamental domain."""
    d = field.domain
    k = np.asarray(k, dtype=float)
    if np.any(k != np.round(k)):
        raise GeometryError("k must be an integer lattice vector")
    dp, dt = d.lattice_shift_cells(k)
    # u_new[ip, it] = u_old[ip - dp (mod n_p), it - dt], far values outside
    out = d.unroll(field.values, field.far_below, field.far_above,
                   (-dp, d.n_p - dp, -dt, d.n_t - dt))
    return Field(d, out, field.far_below, field.far_above)
