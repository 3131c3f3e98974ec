import math

import numpy as np
import pytest

from nlphase.barrier import (BarrierRangeError, barrier_slide_test,
                             build_barrier, verify_barrier)
from nlphase.energy import build_weights
from nlphase.lattice import Direction, Field, build_domain
from nlphase.minimize import Constraints, SolveOptions, minimize_strip
from nlphase.model import KernelSpec, PotentialSpec


@pytest.fixture(scope="module")
def barrier_quarter():
    kernel = KernelSpec(dim=2, s=0.25)
    probe = build_barrier(kernel, R=1e9, delta=0.1)
    bar = build_barrier(kernel, R=2.0 * probe.R0, delta=0.1)
    return kernel, bar


@pytest.fixture(scope="module")
def strip_three_quarter():
    kernel = KernelSpec(dim=2, s=0.75)
    potential = PotentialSpec(family="quartic")
    domain = build_domain(1.0, Direction((0, 1), 1.0), M=36.0, h=0.5,
                          buffer=4.0)
    weights = build_weights(kernel, domain, 8.0)
    result = minimize_strip(weights, potential, Constraints(0.9),
                            options=SolveOptions(max_iters=40000))
    probe = build_barrier(kernel, R=1e6, delta=1.0)
    bar = build_barrier(kernel, R=18.0, delta=probe.c3 * 1.05)
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
        assert np.min(w) >= bar.floor - 1e-12

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
        from nlphase.barrier import _lk_radial
        kernel, bar = barrier_quarter
        rho = 3.0 * bar.R
        val = _lk_radial(bar.w_radial, rho, bar.s, 2, 1e-4 * bar.R,
                         rho + bar.R)
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
        bad = result.field.copy()
        itc = int((t0 - domain.t_lo) / domain.h)
        bad.values[:, itc - 2:itc + 3] = 0.2
        rep = barrier_slide_test(weights, potential, bad, bar, (0.5, t0))
        assert rep["defect"] < 0.0

    def test_ball_must_fit(self, strip_three_quarter):
        kernel, potential, domain, weights, result, bar = strip_three_quarter
        with pytest.raises(BarrierRangeError):
            barrier_slide_test(weights, potential, result.field, bar,
                               (0.5, domain.t_hi - 1.0))
