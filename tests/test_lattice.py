import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nlphase.cli import ExperimentConfig
from nlphase.lattice import (Direction, Field, GeometryError, birkhoff_shift,
                             build_domain)


def axis_domain(M=4.0, h=0.25, B=2.0, tau=1.0):
    return build_domain(tau, Direction((0, 1), tau), M=M, h=h, buffer=B)


def diag_domain(tau=1.0, cells=8):
    d = Direction((1, 1), tau)
    L = tau * math.sqrt(2.0)
    h = L / (cells * 2)
    return build_domain(tau, d, M=4 * h * round(1.0 / h), h=h, buffer=8 * h)


class TestDirection:
    def test_gcd_validation(self):
        with pytest.raises(GeometryError):
            Direction((2, 4), 1.0)
        with pytest.raises(GeometryError):
            Direction((0, 0), 1.0)

    def test_non_whole_components_rejected(self):
        for p in ((0.7, 1), (1.5, 1), ("0", 1)):
            with pytest.raises(GeometryError, match="whole number"):
                Direction(p, 1.0)
        assert Direction((0.0, 1.0), 1.0).p == (0, 1)

    def test_frame_is_orthonormal(self):
        F = Direction((1, 1), 2.0).frame()
        assert np.allclose(F.T @ F, np.eye(2))

    @pytest.mark.parametrize("tau", [-1.0, 0.0, -0.0, math.nan, math.inf,
                                     -math.inf])
    def test_bad_tau_rejected(self, tau):
        # omega = tau p sets the sign of every Birkhoff shift, so a
        # nonpositive or non-finite tau is refused where it enters
        with pytest.raises(GeometryError,
                           match=f"tau must be finite and positive, got {tau!r}"):
            Direction((0, 1), tau)

    @pytest.mark.parametrize("tau,direction_tau", [(1.0, 2.0), (2.0, 1.0),
                                                   (1.0, 1.0 + 2e-16)])
    def test_strip_tau_must_match_direction(self, tau, direction_tau):
        with pytest.raises(GeometryError, match=(
                f"direction tau {direction_tau!r} != tau {tau!r}")):
            build_domain(tau, Direction((0, 1), direction_tau), M=4.0,
                         h=0.25, buffer=2.0)


class TestBuildDomain:
    def test_cell_count_axis(self):
        # period 1 along x1, strip depth M+2B = 8, h = 1/4 -> 4 x 32 cells
        dom = axis_domain(M=4.0, h=0.25, B=2.0)
        assert dom.shape == (4, 32)
        assert dom.n_p * dom.n_t == 128

    def test_diagonal_period_length(self):
        tau = 1.0
        d = Direction((1, 1), tau)
        h = tau * math.sqrt(2.0) / 8
        dom = build_domain(tau, d, M=8 * h, h=h, buffer=4 * h)
        assert dom.n_p * dom.h == pytest.approx(math.sqrt(2.0))
        assert dom.n_p == 8

    def test_indivisible_h_rejected(self):
        with pytest.raises(GeometryError) as err:
            build_domain(1.0, Direction((0, 1), 1.0), M=4.0, h=0.3, buffer=2.0)
        assert "nearest valid h" in str(err.value)

    def test_default_buffer(self):
        dom = build_domain(2.0, Direction((0, 1), 2.0), M=8.0, h=0.5)
        assert dom.buffer == 8.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["tau", "M", "h", "buffer"])
    def test_non_finite_extent_rejected(self, name, value):
        extents = {"tau": 1.0, "M": 4.0, "h": 0.25, "buffer": 2.0, name: value}
        with pytest.raises(GeometryError, match=f"{name} must be finite"):
            build_domain(extents["tau"], Direction((0, 1), 1.0), extents["M"],
                         extents["h"], extents["buffer"])

    def test_world_centers_roundtrip(self):
        dom = diag_domain()
        xy = dom.world_centers()
        P, T = dom.frame_centers()
        F = dom.direction.frame()
        assert np.allclose(xy @ F[:, 0], P) and np.allclose(xy @ F[:, 1], T)
        assert np.array_equal(dom.world_of_frame(P, T), xy)


class TestBirkhoffShift:
    @pytest.mark.parametrize("cells_per_tau", [3, 6])
    @pytest.mark.parametrize("p", [(0, 1), (1, 1), (1, 2), (2, 3), (1, 0)],
                             ids=lambda p: f"w{p[0]}{p[1]}")
    def test_orthogonal_generator_is_identity(self, p, cells_per_tau):
        # the strip spans one period, so every state is periodic under the
        # generator (-p2, p1) orthogonal to omega by construction
        cfg = ExperimentConfig.from_dict(
            {"schema_version": 1, "geometry": {"cells_per_tau": cells_per_tau}})
        dom = cfg.domain(direction=p)
        k = (-p[1], p[0])
        assert dom.lattice_shift_cells(k) == (dom.n_p, 0)
        rng = np.random.default_rng(2)
        f = Field(dom, rng.uniform(-1, 1, dom.shape))
        assert np.array_equal(birkhoff_shift(f, k).values, f.values)

    def test_zero_is_identity(self):
        dom = diag_domain()
        rng = np.random.default_rng(3)
        f = Field(dom, rng.uniform(-1, 1, dom.shape))
        assert np.array_equal(birkhoff_shift(f, (0, 0)).values, f.values)

    def test_monotone_step_ordering(self):
        # profiles decrease along omega (+1 far below, -1 far above), so a
        # shift with omega.k > 0 raises values pointwise and vice versa
        dom = axis_domain(M=4.0, h=0.25, B=2.0)
        t = dom.t_centers()
        prof = np.tanh(2.0 - t)
        f = Field(dom, np.tile(prof, (dom.n_p, 1)))
        up = birkhoff_shift(f, (0, 1))
        down = birkhoff_shift(f, (0, -1))
        assert np.all(up.values >= f.values - 1e-15)
        assert np.all(down.values <= f.values + 1e-15)

    def test_round_trip_inside_buffer(self):
        dom = axis_domain()
        rng = np.random.default_rng(4)
        f = Field(dom, rng.uniform(-1, 1, dom.shape))
        back = birkhoff_shift(birkhoff_shift(f, (0, 1)), (0, -1))
        shift_cells = dom.lattice_shift_cells((0, 1))[1]
        interior = slice(shift_cells, dom.n_t - shift_cells)
        assert np.allclose(back.values[:, interior], f.values[:, interior])

    def test_diagonal_direction_cell_alignment(self):
        # n_p multiple of |p|^2 makes every tau-shift cell aligned
        tau = 1.0
        d = Direction((1, 1), tau)
        h = tau * math.sqrt(2.0) / 8  # n_p = 8 = 4 * |p|^2
        dom = build_domain(tau, d, M=16 * h, h=h, buffer=8 * h)
        dp, dt = dom.lattice_shift_cells((1, 0))
        assert (dp, dt) == (-4, 4)
        rng = np.random.default_rng(5)
        f = Field(dom, rng.uniform(-1, 1, dom.shape))
        birkhoff_shift(f, (1, 0))  # must not raise

    def test_misaligned_shift_raises(self):
        tau = 1.0
        d = Direction((1, 2), tau)
        h = tau * math.sqrt(5.0) / 8  # n_p = 8 not divisible by 5
        dom = build_domain(tau, d, M=16 * h, h=h, buffer=8 * h)
        f = Field(dom, np.full(dom.shape, 0.0))
        with pytest.raises(GeometryError):
            birkhoff_shift(f, (1, 0))


def grid_domain(dim):
    """4 x 12 cells of side 1/4 in 2D, the single column in 1D."""
    if dim == 1:
        return build_domain(1.0, Direction((1,), 1.0), M=2.0, h=0.25,
                            buffer=0.5)
    return axis_domain(M=2.0, h=0.25, B=0.5)


class TestCellGrid:
    @settings(max_examples=80)
    @given(dim=st.sampled_from([1, 2]), boolean=st.booleans(),
           ip0=st.integers(-9, 5), width=st.integers(1, 14),
           it0=st.integers(-6, 14), height=st.integers(1, 24),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(dim=2, boolean=False, ip0=-5, width=14, it0=-4, height=20, seed=0)
    @example(dim=2, boolean=True, ip0=-5, width=14, it0=-4, height=20, seed=0)
    @example(dim=1, boolean=False, ip0=0, width=1, it0=-4, height=20, seed=0)
    def test_unroll_matches_cell_loop(self, dim, boolean, ip0, width, it0,
                                      height, seed):
        # rectangles may reach past both far sides and span several periods
        dom = grid_domain(dim)
        rng = np.random.default_rng(seed)
        if boolean:
            values = rng.random(dom.shape) < 0.5
            fb, fa = (bool(v) for v in rng.random(2) < 0.5)
        else:
            values = rng.uniform(-1.0, 1.0, dom.shape)
            fb, fa = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
        ip1, it1 = ip0 + width, it0 + height
        want = np.array([[fb if it < 0 else fa if it >= dom.n_t
                          else values[ip % dom.n_p, it]
                          for it in range(it0, it1)]
                         for ip in range(ip0, ip1)])
        got = dom.unroll(values, fb, fa, (ip0, ip1, it0, it1))
        assert got.dtype == values.dtype
        assert np.array_equal(got, want)

    @settings(max_examples=80)
    @given(dim=st.sampled_from([1, 2]), p_lo=st.integers(-40, 40),
           t_lo=st.integers(-40, 80), width=st.integers(1, 40),
           height=st.integers(1, 40))
    def test_cover_matches_cell_loop(self, dim, p_lo, t_lo, width, height):
        # box edges on an h/8 grid, so every comparison below is exact
        dom = grid_domain(dim)
        h, e = dom.h, dom.h / 8
        p0, t0 = p_lo * e, dom.t_lo + t_lo * e
        p1, t1 = p0 + width * e, t0 + height * e
        ips = [ip for ip in range(-40, 40) if ip * h < p1 and (ip + 1) * h > p0]
        its = [it for it in range(-40, 60)
               if dom.t_lo + it * h < t1 and dom.t_lo + (it + 1) * h > t0]
        cols = (min(ips), max(ips) + 1) if dim == 2 else (0, 1)
        assert dom.cover((p0, p1, t0, t1)) == (*cols, min(its), max(its) + 1)

    def test_rect_centers_of_fundamental_rect(self):
        dom = diag_domain()
        P, T = dom.rect_centers((0, dom.n_p, 0, dom.n_t))
        P2, T2 = dom.rect_centers((dom.n_p, 2 * dom.n_p, -1, dom.n_t - 1))
        assert np.array_equal(T[0], dom.t_centers())
        assert np.allclose(P2, P + dom.n_p * dom.h) and np.allclose(T2, T - dom.h)


class TestField:
    def test_bounds_enforced(self):
        dom = axis_domain()
        with pytest.raises(GeometryError):
            Field(dom, np.full(dom.shape, 1.5))

    @pytest.mark.parametrize("value", [math.nan, 3.0, -1.5, math.inf])
    def test_bad_cell_value_named(self, value):
        dom = axis_domain()
        values = np.zeros(dom.shape)
        values[1, 2] = value
        with pytest.raises(GeometryError, match=(
                rf"field and far values must lie in \[-1, 1\], got {value!r}")):
            Field(dom, values)

    @pytest.mark.parametrize("far", ["far_below", "far_above"])
    @pytest.mark.parametrize("value", [math.nan, 3.0, -1.5, -math.inf])
    def test_bad_far_value_named(self, far, value):
        dom = axis_domain()
        with pytest.raises(GeometryError, match=(
                rf"field and far values must lie in \[-1, 1\], got {value!r}")):
            Field(dom, np.zeros(dom.shape), **{far: value})

    def test_dump_csv(self, tmp_path):
        dom = axis_domain(M=1.0, h=0.5, B=0.5)
        f = Field(dom, np.full(dom.shape, 0.25))
        path = tmp_path / "field.csv"
        f.dump_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,u"
        assert len(lines) == dom.n_p * dom.n_t + 1
        assert lines[1].endswith(",0.25")

    def test_extended_rows(self):
        dom = axis_domain(M=1.0, h=0.5, B=0.5)
        f = Field(dom, np.full(dom.shape, 0.0))
        ext = dom.unroll(f.values, f.far_below, f.far_above,
                         (0, dom.n_p, -2, dom.n_t + 2))
        assert np.all(ext[:, :2] == 1.0) and np.all(ext[:, -2:] == -1.0)
