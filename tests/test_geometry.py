import math

import numpy as np
import pytest

from nlphase.geometry import (SetMask, boundary_cube_family, ball_count,
                              clean_ball_search, density_profile,
                              grid_boundary_count, interface_height,
                              interface_profile, interface_width, level_mask,
                              symmetric_difference_measure)
from nlphase.lattice import Direction, Field, GeometryError, build_domain


def axis_domain(M=4.0, h=0.125, B=2.0):
    return build_domain(1.0, Direction((0, 1), 1.0), M=M, h=h, buffer=B)


def measure(mask):
    """Measure of the mask within the fundamental slab."""
    return np.count_nonzero(mask.inside) * mask.domain.cell_volume


def step_field(domain, level=2.0):
    t = domain.t_centers()
    vals = np.where(t < level, 1.0, -1.0)
    return Field(domain, np.tile(vals, (domain.n_p, 1)))


class TestLevelMask:
    def test_constant_field_full(self):
        dom = axis_domain()
        mask = level_mask(Field(dom, np.full(dom.shape, 1.0), 1.0, 1.0), 0.0)
        assert mask.inside.all() and mask.far_below and mask.far_above
        assert measure(mask) == pytest.approx(dom.n_p * dom.n_t * dom.cell_volume)

    def test_step_half(self):
        dom = axis_domain()
        mask = level_mask(step_field(dom), 0.0)
        frac = measure(mask) / (dom.n_p * dom.n_t * dom.cell_volume)
        assert abs(frac - 0.5) <= 1.0 / dom.n_t

    def test_band_of_sharp_step_is_empty(self):
        dom = axis_domain()
        mask = level_mask(step_field(dom), 0.9, "band")
        assert measure(mask) == 0.0

    def test_complement_algebra(self):
        dom = axis_domain()
        rng = np.random.default_rng(0)
        f = Field(dom, rng.uniform(-1, 1, dom.shape))
        mask = level_mask(f, 0.2)
        total = dom.n_p * dom.n_t * dom.cell_volume
        assert measure(mask) + measure(mask.complement()) == pytest.approx(total)

    def test_strict_inequalities(self):
        dom = axis_domain()
        f = Field(dom, np.full(dom.shape, 0.5))
        assert not level_mask(f, 0.5, "above").inside.any()
        assert not level_mask(f, 0.5, "below").inside.any()


class TestDensityProfile:
    def test_full_mask_ball_volume(self):
        dom = axis_domain()
        mask = level_mask(Field(dom, np.full(dom.shape, 1.0), 1.0, 1.0), 0.0)
        rows = density_profile(mask, (0.5, 2.0), [1.5, 1.9])
        for R, val, tag in rows:
            assert val == pytest.approx(math.pi, rel=0.02)

    def test_halfspace_half_volume(self):
        dom = axis_domain()
        mask = level_mask(step_field(dom), 0.0)
        rows = density_profile(mask, (0.5, 2.0), [1.0, 1.5])
        for R, val, tag in rows:
            assert val == pytest.approx(math.pi / 2, rel=0.05)

    def test_complement_relation(self):
        dom = axis_domain()
        rng = np.random.default_rng(1)
        f = Field(dom, rng.uniform(-1, 1, dom.shape))
        mask = level_mask(f, 0.0)
        center, radii = (0.5, 2.0), [1.2]
        a = density_profile(mask, center, radii)[0][1]
        b = density_profile(mask.complement(), center, radii)[0][1]
        ones = Field(dom, np.ones(dom.shape), 1.0, 1.0)
        ball = ball_count(level_mask(ones, 0.0), center, 1.2)
        assert a + b == pytest.approx(ball * dom.cell_volume / 1.2 ** 2)

    def test_far_field_extension_and_tags(self):
        dom = axis_domain(M=4.0, h=0.125, B=1.0)
        mask = level_mask(step_field(dom), 0.0)
        rows = density_profile(mask, (0.5, 2.0), [1.0, 4.0], xi=6.0)
        assert rows[0][2] == "ok"
        assert "exceeds-slab" in rows[1][2]
        assert rows[1][1] == pytest.approx(math.pi / 2, rel=0.05)

    def test_xi_tag(self):
        dom = axis_domain()
        mask = level_mask(step_field(dom), 0.0)
        rows = density_profile(mask, (0.5, 2.0), [1.5], xi=3.0)
        assert "R>xi/3" in rows[0][2]


def test_one_dimensional_ball_count_ignores_p():
    # a 1D ball is the interval (t0 - r, t0 + r), whatever its p
    dom = build_domain(1.0, Direction((1,), 1.0), M=8.0, h=0.5, buffer=2.0)
    mask = SetMask(dom, np.ones(dom.shape, bool), True, True)
    for p0 in (0.0, 0.25, 5.0):
        assert ball_count(mask, (p0, 4.0), 1.26) == 6


class TestInterfaceProfile:
    def test_no_interface(self):
        dom = axis_domain()
        f = Field(dom, np.full(dom.shape, 1.0), 1.0, 1.0)
        rows = interface_profile(f, 0.9, (0.5, 2.0), [1.0])
        assert rows[0][1] == 0.0

    def test_smooth_step_bounded(self):
        dom = axis_domain()
        t = dom.t_centers()
        f = Field(dom, np.tile(np.tanh((2.0 - t) / 0.2), (dom.n_p, 1)))
        rows = interface_profile(f, 0.9, (0.5, 2.0), [1.0, 1.5])
        vals = [v for _, v, _ in rows]
        assert min(vals) > 0.0
        width = interface_width(f, 0.9)
        for R, v, _ in rows:
            assert v <= 10.0 * width


class TestInterfaceHeight:
    def test_exact_on_linear_profile(self):
        # the p-modulation averages out; the crossing may fall on a row
        dom = axis_domain()
        P, T = dom.frame_centers()
        wave = 0.1 * np.sin(2.0 * np.pi * P / (dom.n_p * dom.h))
        for t0 in (1.3, 2.0 + 0.5 * dom.h, 0.01):
            u = np.clip((t0 - T) / 4.0 + wave, -1.0, 1.0)
            assert interface_height(Field(dom, u)) == pytest.approx(
                t0, abs=1e-12)

    def test_continuous_under_rounding(self):
        # a row sits exactly on the zero level; a perturbation at rounding
        # scale moves the height by as little, not by a cell
        dom = axis_domain()
        t0 = dom.t_centers()[20]
        f = Field(dom, np.tile(np.tanh(t0 - dom.t_centers()), (dom.n_p, 1)))
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = Field(dom, f.values + 1e-12 * rng.uniform(-1, 1, dom.shape))
            assert abs(interface_height(g) - interface_height(f)) <= 1e-9

    def test_far_values_extend_the_profile(self):
        dom = axis_domain()
        f = Field(dom, np.ones(dom.shape))      # far values +1 below, -1 above
        assert interface_height(f) == pytest.approx(dom.t_hi, abs=1e-12)
        with pytest.raises(GeometryError):
            interface_height(Field(dom, np.full(dom.shape, 1.0), 1.0, 1.0))


class TestGridBoundary:
    def test_halfplane_offset_column_count(self):
        # seam strictly inside a subcube row: one mixed subcube per column
        dom = axis_domain(M=4.0, h=0.125, B=2.0)
        level = 0.5 + dom.h
        t = dom.t_centers()
        mask = SetMask(dom, np.tile(t < level, (dom.n_p, 1)), True, False)
        assert grid_boundary_count(mask, ((0.0, 0.0), 1.0), 4) == 4
        # seam aligned with the partition: no subcube sees both phases
        aligned = SetMask(dom, np.tile(t < 0.5, (dom.n_p, 1)), True, False)
        assert grid_boundary_count(aligned, ((0.0, 0.0), 1.0), 4) == 0

    def test_checkerboard_all_mixed(self):
        dom = axis_domain(M=4.0, h=0.125, B=2.0)
        ip, it = np.meshgrid(np.arange(dom.n_p), np.arange(dom.n_t),
                             indexing="ij")
        k = 4
        # blocks of subcube size, offset by one cell so every subcube mixes
        cb = (((ip + 1) // 2 + (it + 1) // 2) % 2).astype(bool)
        mask = SetMask(dom, cb, True, False)
        assert grid_boundary_count(mask, ((0.0, 0.0), 1.0), k) == k * k

    def test_under_resolved_rejected(self):
        dom = axis_domain()
        mask = level_mask(step_field(dom), 0.0)
        with pytest.raises(GeometryError):
            grid_boundary_count(mask, ((0.0, 0.0), 1.0), 16)

    def test_family_disjoint_and_centered(self):
        dom = axis_domain(M=4.0, h=0.125, B=2.0)
        P, T = dom.frame_centers()
        wig = 1.9 + 0.3 * np.sin(2 * math.pi * P / 1.0)
        mask = SetMask(dom, T < wig, True, False)
        k = 8
        fam = boundary_cube_family(mask, ((0.0, 0.5), 2.0), k)
        count = grid_boundary_count(mask, ((0.0, 0.5), 2.0), k)
        assert len(fam) >= max(count // 9, 1)
        side = 2.0 / k
        for a in fam:
            assert mask.inside.shape  # centers live on the grid
        centers = [f["center"] for f in fam]
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                dp = abs(centers[i][0] - centers[j][0])
                dt = abs(centers[i][1] - centers[j][1])
                assert max(dp, dt) >= side - 1e-12  # non-overlapping
        # centers sit on discrete boundary cells: flanked by both phases
        for (pc, tc) in centers:
            ip = int(pc / dom.h) % dom.n_p
            it = int((tc - dom.t_lo) / dom.h)
            neigh = []
            for a, b in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                jp = (ip + a) % dom.n_p
                jt = it + b
                if 0 <= jt < dom.n_t:
                    neigh.append(mask.inside[jp, jt])
            assert any(n != mask.inside[ip, it] for n in neigh)


class TestCleanBall:
    def test_halfspace_symmetric_radii(self):
        dom = axis_domain()
        f = step_field(dom, level=2.0)
        out = clean_ball_search(f, 0.5, (0.5, 2.0), 1.5)
        assert out["plus"]["radius"] == pytest.approx(0.75, abs=2 * dom.h)
        assert out["minus"]["radius"] == pytest.approx(0.75, abs=2 * dom.h)

    def test_pure_phase_empty_side(self):
        dom = axis_domain()
        f = Field(dom, np.full(dom.shape, 1.0), 1.0, 1.0)
        out = clean_ball_search(f, 0.5, (0.5, 2.0), 1.0)
        assert out["minus"]["radius"] == 0.0
        assert out["plus"]["radius"] > 0.8


class TestWidthAndSymDiff:
    def test_sharp_step_width(self):
        dom = axis_domain()
        assert interface_width(step_field(dom), 0.9) <= dom.h

    def test_zero_field_full_height(self):
        dom = axis_domain()
        f = Field(dom, np.zeros(dom.shape))
        assert interface_width(f, 0.9) == pytest.approx(
            dom.t_hi - dom.t_lo - dom.h)

    def test_symmetric_difference(self):
        dom = axis_domain()
        m1 = level_mask(step_field(dom), 0.0)
        assert symmetric_difference_measure(m1, m1) == 0.0
        total = dom.n_p * dom.n_t * dom.cell_volume
        assert symmetric_difference_measure(
            m1, m1.complement()) == pytest.approx(total)

    def test_domain_mismatch_rejected(self):
        m1 = level_mask(step_field(axis_domain()), 0.0)
        m2 = level_mask(step_field(axis_domain(M=2.0)), 0.0)
        with pytest.raises(GeometryError):
            symmetric_difference_measure(m1, m2)
