"""Geometric measurements on discrete phase fields.

Everything here is read-only measurement: level-set masks, ball densities,
interface measure profiles, cubic-grid boundary counting, clean-ball
search, interface width and height, and symmetric differences.  Masks
extend beyond the fundamental domain by periodicity across the strip and by
their far-field membership flags along it, so balls may reach past the
buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .energy import BallWindow, window_centers
from .lattice import Field, GeometryError, StripDomain


@dataclass
class SetMask:
    """Boolean phase indicator on the fundamental domain.

    ``far_below``/``far_above`` record whether the two far-field
    half-planes belong to the set.
    """

    domain: StripDomain
    inside: np.ndarray
    far_below: bool
    far_above: bool

    def __post_init__(self):
        self.inside = np.asarray(self.inside, dtype=bool)
        if self.inside.shape != self.domain.shape:
            raise GeometryError("mask shape does not match the domain")

    def complement(self) -> "SetMask":
        return SetMask(self.domain, ~self.inside,
                       not self.far_below, not self.far_above)

    def indicator_field(self) -> Field:
        """chi_E - chi_(complement) as a field."""
        vals = np.where(self.inside, 1.0, -1.0)
        return Field(self.domain, vals,
                     1.0 if self.far_below else -1.0,
                     1.0 if self.far_above else -1.0)

    def dump_csv(self, path) -> None:
        self.domain.dump_csv(path, "inside", self.inside.astype(int))


def level_mask(field: Field, eta: float, mode: str = "above") -> SetMask:
    """Strict-inequality level set {u > eta}, {u < eta} or band {|u| < eta}."""
    if not -1.0 < eta < 1.0 and mode != "band":
        raise GeometryError("eta must lie in (-1, 1)")
    u = field.values
    if mode == "above":
        return SetMask(field.domain, u > eta,
                       field.far_below > eta, field.far_above > eta)
    if mode == "below":
        return SetMask(field.domain, u < eta,
                       field.far_below < eta, field.far_above < eta)
    if mode == "band":
        return SetMask(field.domain, np.abs(u) < eta,
                       abs(field.far_below) < eta, abs(field.far_above) < eta)
    raise GeometryError(f"unknown mode {mode!r}")


def ball_count(mask: SetMask, center, radius: float) -> int:
    """Number of mask cells with center inside the ball (periodic images
    and far-field cells included)."""
    d = mask.domain
    ball = BallWindow(center, radius)
    rect = d.cover(ball.bounds())
    grid = d.unroll(mask.inside, mask.far_below, mask.far_above, rect)
    return int(np.count_nonzero(
        grid & ball.contains(*window_centers(d, ball, rect))))


def _ball_profile(mask: SetMask, center, radii, k: int, xi_bound,
                  xi_tag: str) -> list:
    """Rows (R, |mask ∩ B_R| / R^k, tag); radii above ``xi_bound`` (None:
    no bound) carry ``xi_tag``."""
    d = mask.domain
    rows = []
    for R in radii:
        tags = []
        if center[1] - R < d.t_lo or center[1] + R > d.t_hi:
            tags.append("exceeds-slab")
        if xi_bound is not None and R > xi_bound:
            tags.append(xi_tag)
        val = ball_count(mask, center, R) * d.cell_volume / R ** k
        rows.append((float(R), float(val), "+".join(tags) if tags else "ok"))
    return rows


def density_profile(mask: SetMask, center, radii, xi: float | None = None) -> list:
    """Rows (R, |mask ∩ B_R| / R^n, tag) for each requested radius."""
    return _ball_profile(mask, center, radii, mask.domain.dim,
                         None if xi is None else xi / 3.0, "R>xi/3")


def interface_profile(field: Field, theta: float, center, radii,
                      xi: float | None = None) -> list:
    """Rows (R, |{|u| < theta} ∩ B_R| / R^(n-1), tag)."""
    return _ball_profile(level_mask(field, theta, "band"), center, radii,
                         field.domain.dim - 1, xi, "R>xi")


def boundary_cells(mask: SetMask, rect) -> np.ndarray:
    """Discrete boundary on a rectangle: cells with an axis neighbor in the
    other phase (both sides of the seam)."""
    ip0, ip1, it0, it1 = rect
    grid = mask.domain.unroll(mask.inside, mask.far_below, mask.far_above,
                              (ip0 - 1, ip1 + 1, it0 - 1, it1 + 1))
    core = grid[1:-1, 1:-1]
    differs = np.zeros_like(core)
    for ax, shift in ((0, 1), (0, -1), (1, 1), (1, -1)):
        neigh = np.roll(grid, shift, axis=ax)[1:-1, 1:-1]
        differs |= neigh != core
    return differs


def _subcubes(mask: SetMask, cube, k: int) -> tuple:
    """Cells of a cube and their subcubes in a k^n partition.

    Returns (rect, P, T, incube, sub_p, sub_t, mixed): the covering cell
    rectangle, its frame-coordinate grids, the cells inside the cube, the
    subcube index of every cell and the k x k flags of the subcubes that
    meet both phases.
    """
    corner, r = cube
    d = mask.domain
    if r / k < d.h:
        raise GeometryError(
            f"subcube side {r / k} must be at least one cell h={d.h}")
    rect = d.cover((corner[0], corner[0] + r, corner[1], corner[1] + r))
    grid = d.unroll(mask.inside, mask.far_below, mask.far_above, rect)
    P, T = d.rect_centers(rect)
    inx = (P >= corner[0]) & (P < corner[0] + r) if d.dim == 2 else np.ones_like(P, bool)
    incube = inx & (T >= corner[1]) & (T < corner[1] + r)
    sub_p = np.clip(((P - corner[0]) / (r / k)).astype(int), 0, k - 1)
    sub_t = np.clip(((T - corner[1]) / (r / k)).astype(int), 0, k - 1)
    has_in = np.zeros((k, k), dtype=bool)
    has_out = np.zeros((k, k), dtype=bool)
    np.logical_or.at(has_in, (sub_p[incube & grid], sub_t[incube & grid]), True)
    np.logical_or.at(has_out, (sub_p[incube & ~grid], sub_t[incube & ~grid]),
                     True)
    return rect, P, T, incube, sub_p, sub_t, has_in & has_out


def grid_boundary_count(mask: SetMask, cube, k: int) -> int:
    """Number of subcubes of a k^n partition meeting both phases.

    ``cube`` is (corner, r) with the corner in frame coordinates.
    """
    return int(np.count_nonzero(_subcubes(mask, cube, k)[-1]))


def boundary_cube_family(mask: SetMask, cube, k: int) -> list:
    """Non-overlapping side-r/k cubes centered at discrete boundary cells.

    Mixed subcubes are thinned to a single residue class of the 3x3 index
    pattern (the largest one), which keeps at least a ninth of them and
    guarantees disjointness after recentering; all returned cubes lie in
    the doubled open cube.
    """
    rect, P, T, incube, sub_p, sub_t, has_mixed = _subcubes(mask, cube, k)
    bcells = boundary_cells(mask, rect)

    # mixed subcubes and one boundary-cell representative for each
    reps = {}
    sel = incube & bcells
    for i, j in zip(*np.nonzero(sel)):
        key = (int(sub_p[i, j]), int(sub_t[i, j]))
        if key not in reps:
            reps[key] = (float(P[i, j]), float(T[i, j]))
    mixed = {}
    for a, b in zip(*np.nonzero(has_mixed)):
        key = (int(a), int(b))
        if key in reps:
            mixed[key] = reps[key]

    best = []
    for ra in range(3):
        for rb in range(3):
            cls = [(key, c) for key, c in mixed.items()
                   if key[0] % 3 == ra and key[1] % 3 == rb]
            if len(cls) > len(best):
                best = cls
    side = cube[1] / k
    return [{"center": c, "side": side, "subcube": key} for key, c in best]


def clean_ball_search(field: Field, theta: float, center, R: float) -> dict:
    """Largest phase-pure inscribed balls inside B_R for both phases."""
    d = field.domain
    ball = BallWindow(center, R)
    rect = d.cover(ball.bounds())
    P, T = window_centers(d, ball, rect)
    dist_to_edge = R - np.hypot(P - center[0], T - center[1])
    inball = dist_to_edge > 0.0
    out = {}
    for tag, mode in (("plus", "above"), ("minus", "below")):
        mask = level_mask(field, theta if tag == "plus" else -theta, mode)
        grid = d.unroll(mask.inside, mask.far_below, mask.far_above, rect)
        if not np.any(grid & inball):
            out[tag] = {"radius": 0.0, "center": None}
            continue
        # distance from each phase cell to the nearest non-phase cell center
        edt = ndimage.distance_transform_edt(grid, sampling=d.h)
        score = np.minimum(edt, dist_to_edge)
        score[~(grid & inball)] = -np.inf
        i, j = np.unravel_index(int(np.argmax(score)), score.shape)
        out[tag] = {"radius": float(score[i, j]),
                    "center": (float(P[i, j]), float(T[i, j]))}
    return out


def interface_width(field: Field, theta: float) -> float:
    """Extent along the strip normal of the band {|u| < theta}."""
    band = np.abs(field.values) < theta
    cols = np.any(band, axis=0)
    if not cols.any():
        return 0.0
    t = field.domain.t_centers()[cols]
    return float(t.max() - t.min())


def interface_height(field: Field) -> float:
    """Height at which the p-averaged profile, extended by the far values one
    row beyond the slab, first changes sign: linear between the two rows."""
    d = field.domain
    rect = (0, d.n_p, -1, d.n_t + 1)
    m = d.unroll(field.values, field.far_below, field.far_above,
                 rect).mean(axis=0)
    cross = np.flatnonzero((m[:-1] >= 0.0) != (m[1:] >= 0.0))
    if cross.size == 0:
        raise GeometryError("the p-averaged profile has no sign change")
    i = cross[0]   # rows i - 1 and i of the slab bracket the crossing
    return float(d.t_lo + (i - 0.5 + m[i] / (m[i] - m[i + 1])) * d.h)


def symmetric_difference_measure(mask_a: SetMask, mask_b: SetMask) -> float:
    if mask_a.domain is not mask_b.domain and mask_a.domain != mask_b.domain:
        raise GeometryError("masks live on different domains")
    return (float(np.count_nonzero(mask_a.inside != mask_b.inside))
            * mask_a.domain.cell_volume)
