import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from nlphase import barrier as barrier_mod
from nlphase.barrier import (BarrierRangeError, _angular_kernel, _assemble,
                             _lk_radial, _measure_c3, barrier_slide_test,
                             build_barrier, verify_barrier)
from nlphase.energy import build_weights
from nlphase.lattice import Direction, Field, build_domain
from nlphase.minimize import Constraints, minimize_strip
from nlphase.model import KernelSpec, PotentialSpec


def _chain(bar, t):
    """g and g' with the profile chain evaluated at every t: the reference
    for the band evaluation of g_profile and g_profile_d."""
    t = np.asarray(t, dtype=float)
    r = bar.r
    mid = (t >= 0.5 * r) & (t < r - 1.0)
    tm = np.where(mid, t, 0.5 * r)
    h = np.where(mid, bar.gamma_r * (bar.ell(tm) - bar.ell(0.5 * r)
                                     - bar.ell_d(0.5 * r) * (tm - 0.5 * r)),
                 np.where(t >= r - 1.0, 1.0, 0.0))
    h_d = np.where(mid, bar.gamma_r * (bar.ell_d(tm) - bar.ell_d(0.5 * r)),
                   0.0)
    e = bar.eta(t)
    return e * h + 1.0 - e, bar.eta_d(t) * (h - 1.0) + e * h_d


@pytest.fixture(scope="module")
def barrier_quarter():
    kernel = KernelSpec(dim=2, s=0.25)
    probe = build_barrier(kernel, R=1e9, delta=0.1)
    bar = build_barrier(kernel, R=2.0 * probe.R0, delta=0.1)
    return kernel, bar


@pytest.fixture(scope="module")
def slide_barrier():
    # the s = 0.75 barrier of criterion 9's slide test
    kernel = KernelSpec(dim=2, s=0.75)
    probe = build_barrier(kernel, R=1e6, delta=1.0)
    return kernel, build_barrier(kernel, R=18.0, delta=probe.c3 * 1.05)


@pytest.fixture(scope="module")
def strip_three_quarter(slide_barrier):
    kernel, bar = slide_barrier
    potential = PotentialSpec(family="quartic")
    domain = build_domain(1.0, Direction((0, 1), 1.0), M=36.0, h=0.5,
                          buffer=4.0)
    weights = build_weights(kernel, domain, 8.0)
    result = minimize_strip(weights, potential, Constraints(0.9))
    return kernel, potential, domain, weights, result, bar


class TestConstruction:
    def test_constants(self, barrier_quarter):
        _, bar = barrier_quarter
        assert bar.r1 == 2.0 ** (3.0 / bar.s)
        assert 1.0 < bar.gamma_r <= 2.0
        assert bar.c3 >= bar.delta
        assert 0.0 < bar.beta < 1.0
        assert bar.r == pytest.approx(bar.r1 * bar.R / bar.R0)

    def test_plateau_values(self, barrier_quarter):
        _, bar = barrier_quarter
        assert bar.w_radial(bar.R) == 1.0
        assert bar.w_radial(1.3 * bar.R) == 1.0
        assert bar.w_radial(0.0) == pytest.approx(bar.beta - 1.0, abs=1e-14)
        assert bar.w_radial(0.4 * bar.R) == pytest.approx(bar.beta - 1.0,
                                                          abs=1e-14)

    def test_radially_nondecreasing_and_floored(self, barrier_quarter):
        _, bar = barrier_quarter
        rho = np.linspace(0.0, 1.2 * bar.R, 1001)
        w = bar.w_radial(rho)
        assert np.all(np.diff(w) >= -1e-12)
        assert np.min(w) >= -1.0 + bar.R ** (-2.0 * bar.s) / bar.C - 1e-12

    def test_profile_continuity_at_knots(self, barrier_quarter):
        # straddle so tightly that the C^1 variation itself is below the
        # jump budget; any true discontinuity would show at O(1)
        _, bar = barrier_quarter
        r = bar.r
        eps = 4e-10
        for knot in (0.5 * r, r - 1.75, r - 1.25, r - 1.0):
            lo, hi = knot - eps, knot + eps
            assert abs(bar.g_profile(hi) - bar.g_profile(lo)) <= 1e-9
            assert abs(bar.g_profile_d(hi) - bar.g_profile_d(lo)) <= 1e-9

    def test_derivative_bounds(self, barrier_quarter):
        # the construction guarantees |g'| <= c1 min((r-t)^(-2s-1), 1) and
        # |g''| <= c1 min((r-t)^(-2s-2), 1) with a universal c1
        _, bar = barrier_quarter
        r, s = bar.r, bar.s
        t = np.linspace(0.0, r * (1 - 1e-9), 1000)
        g1 = bar.g_profile_d(t)
        bound1 = np.minimum((r - t) ** (-2 * s - 1), 1.0)
        assert np.all(np.abs(g1) <= 40.0 * bound1 + 1e-12)
        dt = 1e-5 * r
        g2 = (bar.g_profile_d(t + dt) - bar.g_profile_d(t - dt)) / (2 * dt)
        bound2 = np.minimum((r - t) ** (-2 * s - 2), 1.0)
        assert np.all(np.abs(g2) <= 600.0 * bound2 + 1e-9)

    def test_threshold_rejection_reports_minimum(self):
        kernel = KernelSpec(dim=2, s=0.25)
        with pytest.raises(BarrierRangeError) as err:
            build_barrier(kernel, R=100.0, delta=0.1)
        assert "threshold" in str(err.value)

    def test_gamma_r_guard_range(self):
        kernel = KernelSpec(dim=2, s=0.75)
        probe = build_barrier(kernel, R=1e6, delta=1.0)
        assert 1.0 < probe.gamma_r <= 2.0

    @pytest.mark.parametrize("R,delta,name", [
        (math.nan, 0.1, "R"), (-5.0, 0.1, "R"), (math.inf, 0.1, "R"),
        (1e9, math.nan, "delta"), (1e9, math.inf, "delta"),
        (1e9, 0.0, "delta")])
    def test_bad_radius_or_bound_rejected_before_quadrature(
            self, monkeypatch, R, delta, name):
        def no_quadrature(*args):
            raise AssertionError("c3 measured for a rejected input")

        monkeypatch.setattr(barrier_mod, "_measure_c3", no_quadrature)
        with pytest.raises(ValueError, match=f"^{name} must be finite") as err:
            build_barrier(KernelSpec(dim=2, s=0.25), R=R, delta=delta)
        assert not isinstance(err.value, BarrierRangeError)

    def test_c3_measured_once_per_radius(self, barrier_quarter):
        # the first fixed-point iterate r = r1 is shared by probe and build
        kernel, bar = barrier_quarter
        _measure_c3.cache_clear()
        build_barrier(kernel, R=1e9, delta=0.1)
        again = build_barrier(kernel, R=bar.R, delta=0.1)
        info = _measure_c3.cache_info()
        assert (info.misses, info.hits) == (3, 1)
        assert again == bar


class TestProfileBand:
    @settings(max_examples=40)
    @given(s=st.one_of(st.floats(0.16, 0.49), st.floats(0.51, 0.95)),
           u=st.floats(0.0, 1.0), ulps=st.integers(1, 6))
    @example(s=0.25, u=0.0, ulps=3)
    @example(s=0.75, u=1.0, ulps=3)
    def test_band_matches_full_chain(self, s, u, ulps):
        # g and g' bitwise; r from r1 = 2^(3/s) up to 1e6; grids straddle
        # every knot of the chain, and the band edge r - 9/8, by a few ulps
        r1 = 2.0 ** (3.0 / s)
        r = r1 * (1e6 / r1) ** u
        bar = _assemble(2, s, r)
        knots = np.array([0.5 * r, r - 1.75, r - 1.25, r - 1.125, r - 1.0])
        steps = np.arange(-ulps, ulps + 1)
        near = (knots[:, None]
                + steps[None, :] * np.spacing(knots)[:, None]).ravel()
        t = np.concatenate([np.linspace(0.0, 1.1 * r, 513),
                            r - np.geomspace(1e-3, 2.5, 257), near,
                            [-1.0, math.inf, -math.inf]])
        for got, want in zip((bar.g_profile(t), bar.g_profile_d(t)),
                             _chain(bar, t)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        for p in near:          # 0-d inputs take the scalar power
            for got, want in zip((bar.g_profile(p), bar.g_profile_d(p)),
                                 _chain(bar, p)):
                assert type(got) is type(want) is np.float64
                assert got.tobytes() == want.tobytes()
        assert np.isnan(bar.g_profile(math.nan))
        assert np.isnan(bar.g_profile(np.array([math.nan]))).all()


def _lk_two_sided(profile, rho, s, r_inner, r_outer, n_panels, n_phi):
    """The 2D L_K by quadrature over the offset z = y - x, summed over +-z:
    Gauss-Legendre on n_panels panels geometric in |z| from r_inner to
    r_outer, the midpoint rule on n_phi angles of the half circle, and the
    closed-form tail beyond r_outer.  The angles are mirrored bitwise, so the
    profile at |x - z| is the profile at |x + z| in reverse angle order.
    The reference for the radial quadrature of `_lk_radial`."""
    edges = np.geomspace(r_inner, r_outer, n_panels + 1)
    a, b = edges[:-1], edges[1:]
    rr = (0.5 * (a + b)[:, None]
          + 0.5 * (b - a)[:, None] * barrier_mod._GAUSS_X).ravel()
    ww = (0.5 * (b - a)[:, None] * barrier_mod._GAUSS_W).ravel()
    cos_phi = np.cos((np.arange(n_phi // 2) + 0.5) * (math.pi / n_phi))
    cos_phi = np.concatenate([cos_phi, -cos_phi[::-1]])
    w0 = float(profile(rho))
    val = 0.0
    for rows in np.array_split(np.arange(rr.size), max(1, rr.size // 256)):
        w_plus = profile(np.sqrt(rho * rho + rr[rows, None] ** 2 + 2.0 * rho
                                 * rr[rows, None] * cos_phi[None, :]))
        pair = 2.0 * w0 - w_plus - w_plus[:, ::-1]
        val += float(np.sum(ww[rows] * rr[rows] ** (-1.0 - 2.0 * s)
                            * pair.sum(axis=1))) * (math.pi / n_phi)
    return val + (w0 - 1.0) * 2.0 * math.pi * r_outer ** (-2.0 * s) / (2.0 * s)


def _lk_1d_two_sided(profile, rho, s, r_inner, knots):
    """The 1D L_K, int (w(rho) - w(|y|)) |rho - y|^(-1-2s) dy over
    |y - rho| >= r_inner, summed over y = rho +- z: 16-point Gauss-Legendre
    on 4,000 panels geometric in z from r_inner to rho + knots[-1], split
    where rho +- z crosses a knot or 0, and the closed-form flat tail.  The
    reference for the 1D quadrature of `_lk_radial`."""
    x, w = np.polynomial.legendre.leggauss(16)
    outer = rho + knots[-1]
    edges = np.concatenate([np.geomspace(r_inner, outer, 4001),
                            np.abs(knots - rho), knots + rho, [rho]])
    edges = np.unique(edges[(edges >= r_inner) & (edges <= outer)])
    a, b = edges[:-1, None], edges[1:, None]
    z = (0.5 * (a + b) + 0.5 * (b - a) * x).ravel()
    wz = (0.5 * (b - a) * w).ravel()
    w0 = float(profile(rho))
    pair = 2.0 * w0 - profile(np.abs(rho + z)) - profile(np.abs(rho - z))
    return float(np.sum(wz * z ** (-1.0 - 2.0 * s) * pair)) \
        + (w0 - float(profile(knots[-1]))) * outer ** (-2.0 * s) / s


def _quad_angular(u, s):
    """int_0^2pi (1 + u^2 - 2 u cos phi)^(-1-s) dphi by adaptive quadrature
    at its tightest relative tolerance, which a smooth integrand meets up
    to rounding (quad then warns of roundoff; its estimate stays small)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(
            lambda phi: (1.0 + u * u - 2.0 * u * math.cos(phi)) ** (-1.0 - s),
            0.0, 2.0 * math.pi, points=[0.0, 2.0 * math.pi], epsabs=0.0,
            epsrel=50.0 * np.finfo(float).eps, limit=200)
    assert err <= 1e-12 * val
    return val


class TestRadialQuadrature:
    @pytest.mark.parametrize("s", [0.25, 0.75])
    @pytest.mark.parametrize("u", [0.1, 0.3, 0.9, 0.97, 1.03, 3.0, 10.0])
    def test_angular_kernel_matches_quad(self, s, u):
        # 0.3 ... 3 take the 1 - x connection formula, 0.1 and 10 the
        # direct series; homogeneity puts rho = 1 without loss
        got = _angular_kernel(1.0, np.array([u - 1.0]), s)[0]
        want = _quad_angular(u, s)
        assert abs(got - want) <= 1e-11 * want, (got, want)

    def test_angular_kernel_interpolated_at_one_half(self):
        # the connection formula's poles cancel at s = 1/2; there the
        # kernel is linear in s between 1/2 -+ 2^-13
        for u in (0.1, 0.3, 0.9, 0.97, 1.03, 3.0, 10.0):
            got = _angular_kernel(1.0, np.array([u - 1.0]), 0.5)[0]
            want = _quad_angular(u, 0.5)
            assert abs(got - want) <= 1e-6 * want, (u, got, want)

    @pytest.mark.parametrize("s", [0.25, 0.75])
    def test_matches_refined_two_sided(self, barrier_quarter, slide_barrier,
                                       s):
        # the unscaled g at r1 (the c3 measurement) and a built barrier's
        # w_radial (verify_barrier), against the 2D quadrature refined to
        # 384 panels x 1536 angles
        _, bar = barrier_quarter if s == 0.25 else slide_barrier
        proto = _assemble(2, s, 2.0 ** (3.0 / s))
        for profile, R, r_inner, knots in (
                (proto.g_profile, proto.r, 1e-6, proto.knots(proto.r)),
                (bar.w_radial, bar.R, 1e-7 * bar.R, bar.knots(bar.R))):
            for frac in (0.0, 0.3, 0.7, 0.9, 0.97, 0.999):
                rho = frac * R
                got = _lk_radial(profile, rho, s, 2, r_inner, knots)
                want = _lk_two_sided(profile, rho, s, r_inner, rho + R,
                                     384, 1536)
                assert abs(got - want) <= 1e-3 * abs(want), (frac, got, want)

    @pytest.mark.parametrize("s", [0.25, 0.75])
    def test_one_dimensional_matches_refined_two_sided(self, s):
        # the unscaled g at r1 and the w_radial of a 1D barrier built at
        # R = 1e9, at the r_inner of _measure_c3 and verify_barrier
        proto = _assemble(1, s, 2.0 ** (3.0 / s))
        bar = build_barrier(KernelSpec(dim=1, s=s), R=1e9, delta=0.1)
        for profile, R, r_inner, knots in (
                (proto.g_profile, proto.r, 1e-6, proto.knots(proto.r)),
                (bar.w_radial, bar.R, 1e-7 * bar.R, bar.knots(bar.R))):
            for frac in (0.0, 0.3, 0.7, 0.9, 0.97, 0.999):
                rho = frac * R
                got = _lk_radial(profile, rho, s, 1, r_inner, knots)
                want = _lk_1d_two_sided(profile, rho, s, r_inner, knots)
                assert abs(got - want) <= 1e-6 * abs(want), (frac, got, want)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("absolute", [False, True])
    def test_constant_profile_gives_zero(self, n, absolute):
        knots = np.array([0.5, 2.0, 3.0])
        for c in (1.0, -0.3):
            for rho in (0.0, 0.7, 2.5, 9.0):
                assert _lk_radial(lambda t: np.full_like(t, c), rho, 0.25, n,
                                  1e-6, knots, absolute=absolute) == 0.0

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("absolute", [False, True])
    @pytest.mark.parametrize("s", [0.25, 0.5 - barrier_mod._S_GAP / 2,
                                   0.5 + barrier_mod._S_GAP / 2, 0.75])
    def test_radius_array_matches_scalar_calls(self, n, absolute, s):
        # rho = 0, every knot, rho beyond R (top = 2 rho) and more radii
        # than one block
        proto = _assemble(n, s, 2.0 ** (3.0 / s))
        r, knots = proto.r, proto.knots(proto.r)
        rho = np.concatenate([[0.0], knots, np.linspace(0.0, 2.5 * r,
                                                        barrier_mod._RHO_BLOCK + 9)])
        got = _lk_radial(proto.g_profile, rho, s, n, 1e-6, knots, absolute)
        assert got.shape == rho.shape
        for x, g in zip(rho, got):
            want = _lk_radial(proto.g_profile, x, s, n, 1e-6, knots, absolute)
            assert isinstance(want, float)
            assert abs(g - want) <= 1e-13 * abs(want), (x, g, want)

    @pytest.mark.parametrize("s", [0.25, 0.75])
    def test_scaling(self, s):
        # L[p(./lam)](lam rho) = lam^(-2s) L[p](rho) with r_inner and the
        # knots scaled by lam; r_inner = r/1000 keeps the rounding of the
        # profile differences next to the diagonal, which the kernel
        # amplifies like r_inner^(-2s), below the bound
        proto = _assemble(2, s, 2.0 ** (3.0 / s))
        r, knots = proto.r, proto.knots(proto.r)
        for lam in (1e-3, 7.0, 1e4):
            def scaled(t):
                return proto.g_profile(np.asarray(t) / lam)

            for frac in (0.0, 0.3, 0.55, 0.7, 0.9, 0.97, 0.999, 1.5):
                want = _lk_radial(proto.g_profile, frac * r, s, 2, r / 1000,
                                  knots)
                got = _lk_radial(scaled, lam * frac * r, s, 2,
                                 lam * r / 1000, lam * knots)
                assert abs(got * lam ** (2.0 * s) - want) \
                    <= 1e-12 * abs(want), (lam, frac)

    def test_envelope_dominates_signed(self, barrier_quarter):
        _, bar = barrier_quarter
        proto = _assemble(2, bar.s, bar.r1)
        for profile, R, r_inner, knots in (
                (proto.g_profile, proto.r, 1e-6, proto.knots(proto.r)),
                (bar.w_radial, bar.R, 1e-7 * bar.R, bar.knots(bar.R))):
            for frac in np.linspace(0.0, 1.2, 25):
                args = (profile, frac * R, bar.s, 2, r_inner, knots)
                assert _lk_radial(*args, absolute=True) \
                    >= abs(_lk_radial(*args))


class TestVerification:
    def test_operator_and_envelope_bounds(self, barrier_quarter):
        kernel, bar = barrier_quarter
        rep = verify_barrier(kernel, bar, n_samples=80, seed=1)
        assert rep["worst_LKw_ratio"] <= 1.05
        assert rep["worst_lower_C"] >= 1.0 - 1e-9
        assert rep["worst_upper_C"] <= 1.0 + 1e-9
        assert rep["passed"]

    def test_rebuild_at_double_radius_keeps_bound(self, barrier_quarter):
        kernel, bar = barrier_quarter
        bar2 = build_barrier(kernel, R=2.0 * bar.R, delta=bar.delta)
        rep = verify_barrier(kernel, bar2, n_samples=40, seed=2)
        assert rep["worst_LKw_ratio"] <= 1.05

    def test_far_region_quiet(self, barrier_quarter):
        # w is locally constant far outside the support
        kernel, bar = barrier_quarter
        rho = 3.0 * bar.R
        val = _lk_radial(bar.w_radial, rho, bar.s, 2, 1e-4 * bar.R,
                         bar.knots(bar.R))
        tail_scale = bar.R ** (-2 * bar.s)
        assert abs(val) <= 4.0 * math.pi * tail_scale

    def test_modulated_envelope_only(self):
        kernel = KernelSpec(dim=2, s=0.25, family="modulated")
        std = KernelSpec(dim=2, s=0.25)
        probe = build_barrier(std, R=1e9, delta=0.5)
        bar = build_barrier(std, R=2.0 * probe.R0, delta=0.5)
        rep = verify_barrier(kernel, bar, n_samples=20, seed=3)
        assert rep["envelope_only"]


class TestSlide:
    def test_minimizer_defect_nonnegative(self, strip_three_quarter):
        kernel, potential, domain, weights, result, bar = strip_three_quarter
        u = result.field.values
        it = int(np.argmin(np.abs(u.mean(axis=0))))
        t0 = min(domain.t_lo + (it + 0.5) * domain.h + 0.5 * bar.R,
                 domain.t_hi - bar.R - domain.h)
        rep = barrier_slide_test(weights, potential, result.field, bar,
                                 (0.5 * domain.n_p * domain.h, t0))
        assert rep["E_v"] != rep["E_u"]  # the comparison is non-trivial
        assert rep["relative_defect"] >= -1e-8

    def test_dominated_field_defect_exactly_zero(self, strip_three_quarter):
        kernel, potential, domain, weights, _, bar = strip_three_quarter
        t = domain.t_centers()
        vals = np.where(t < 2.0, 1.0, -1.0)
        fld = Field(domain, np.tile(vals, (domain.n_p, 1)))
        # ball centered deep in the minus phase: u = -1 <= w everywhere
        t0 = domain.t_hi - bar.R - domain.h
        assert t0 - bar.R > 2.0
        rep = barrier_slide_test(weights, potential, fld, bar,
                                 (0.5, t0))
        assert rep["defect"] == 0.0

    def test_bump_detected(self, strip_three_quarter):
        kernel, potential, domain, weights, result, bar = strip_three_quarter
        u = result.field.values
        it = int(np.argmin(np.abs(u.mean(axis=0))))
        t0 = min(domain.t_lo + (it + 0.5) * domain.h + 0.5 * bar.R,
                 domain.t_hi - bar.R - domain.h)
        bad = replace(result.field, values=result.field.values.copy())
        itc = int((t0 - domain.t_lo) / domain.h)
        bad.values[:, itc - 2:itc + 3] = 0.2
        rep = barrier_slide_test(weights, potential, bad, bar, (0.5, t0))
        assert rep["defect"] < 0.0

    def test_ball_must_fit(self, strip_three_quarter):
        kernel, potential, domain, weights, result, bar = strip_three_quarter
        with pytest.raises(BarrierRangeError):
            barrier_slide_test(weights, potential, result.field, bar,
                               (0.5, domain.t_hi - 1.0))
