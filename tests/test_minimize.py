from dataclasses import replace

import numpy as np
import pytest

from nlphase.barrier import build_barrier, verify_barrier
from nlphase.energy import (BallWindow, ConfigurationError, PERIOD,
                            build_weights)
from nlphase.geometry import interface_height, level_mask
from nlphase.lattice import Direction, Field, build_domain
from nlphase import minimize
from nlphase.minimize import (Constraints, ball_improvement, check_birkhoff,
                              check_class_A, minimize_strip, upper_distance)
from nlphase.model import KernelSpec, PotentialSpec
from nlphase.perimeter import surface_local_min_check


@pytest.fixture(scope="module")
def solved():
    kernel = KernelSpec(dim=2, s=0.3, tau=1.0)
    potential = PotentialSpec(family="quartic")
    domain = build_domain(1.0, Direction((0, 1), 1.0), M=6.0, h=0.25,
                          buffer=2.0)
    weights = build_weights(kernel, domain, 4.0)
    cons = Constraints(0.9)
    res = minimize_strip(weights, potential, cons)
    return kernel, potential, domain, weights, cons, res


class TestProject:
    def setup_method(self):
        self.domain = build_domain(1.0, Direction((0, 1), 1.0), M=2.0, h=0.25,
                                   buffer=1.0)
        self.lo, self.hi = Constraints(0.9).bounds(self.domain)

    def project(self, values):
        return np.clip(values, self.lo, self.hi)

    def test_admissible_unchanged(self):
        assert np.array_equal(self.project(self.lo), self.lo)

    def test_zero_field_clamps(self):
        out = self.project(np.zeros(self.domain.shape))
        t = self.domain.t_centers()
        assert np.all(out[:, t <= 0.0] == 0.9)
        assert np.all(out[:, t >= self.domain.M] == -0.9)
        mid = (t > 0) & (t < self.domain.M)
        assert np.all(out[:, mid] == 0.0)

    def test_minus_one_clamps_lower_only(self):
        out = self.project(np.full(self.domain.shape, -1.0))
        t = self.domain.t_centers()
        assert np.all(out[:, t <= 0.0] == 0.9)
        assert np.all(out[:, t > 0.0] == -1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        once = self.project(rng.uniform(-1, 1, self.domain.shape))
        assert np.array_equal(self.project(once), once)


class TestMinimalSeed:
    def test_pointwise_smallest_admissible(self):
        domain = build_domain(1.0, Direction((0, 1), 1.0), M=2.0, h=0.25,
                              buffer=1.0)
        lo, hi = Constraints(0.7).bounds(domain)
        assert np.all(lo <= hi)
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = np.clip(rng.uniform(-1, 1, domain.shape), lo, hi)
            assert np.all(v >= lo - 1e-15)

    def test_seed_energy_finite(self, solved):
        kernel, potential, domain, weights, cons, _ = solved
        lo, _ = cons.bounds(domain)
        F = weights.period_value(Field(domain, lo), potential)
        assert np.isfinite(F)

    def test_cold_start_is_minimal_seed(self, solved):
        kernel, potential, domain, weights, cons, res = solved
        lo, _ = cons.bounds(domain)
        warm = minimize_strip(weights, potential, cons,
                              seed_field=Field(domain, lo))
        assert np.array_equal(warm.field.values, res.field.values)


class TestMinimizeStrip:
    def test_converged_flags(self, solved):
        *_, res = solved
        assert res.converged
        assert res.field.values.max() <= 1.0 and res.field.values.min() >= -1.0

    def test_descent_trace_monotone(self, solved):
        *_, res = solved
        F = res.trace[:, 1]
        assert np.all(np.diff(F) <= 0.0)

    def test_profile_monotone_along_strip(self, solved):
        *_, res = solved
        prof = res.field.values.mean(axis=0)
        assert np.all(np.diff(prof) <= 1e-10)

    def test_f_value_matches_period_report(self, solved):
        kernel, potential, domain, weights, cons, res = solved
        rep = weights.window_report(res.field, PERIOD, potential)
        assert res.F_value == pytest.approx(rep.total, rel=1e-10)

    def test_multistart_agreement(self, solved):
        kernel, potential, domain, weights, cons, res = solved
        t = domain.t_centers()
        ramp = np.clip(1.0 - 2.0 * t / domain.M, -1.0, 1.0)
        seed2 = Field(domain, np.tile(ramp, (domain.n_p, 1)))
        res2 = minimize_strip(weights, potential, cons, seed_field=seed2)
        assert res2.F_value == pytest.approx(res.F_value, rel=1e-6)

    def test_iteration_cap_not_converged(self, solved, monkeypatch):
        kernel, potential, domain, weights, cons, _ = solved
        monkeypatch.setattr(minimize, "MAX_ITERS", 3)
        res = minimize_strip(weights, potential, cons)
        assert not res.converged
        assert res.stop_reason == "iteration_cap"
        assert res.iterations == 3 and len(res.trace) == 3
        # the last trace row describes the returned iterate
        assert res.trace[-1, 1] == pytest.approx(res.F_value, rel=1e-12)
        assert res.trace[-1, 2] == pytest.approx(res.grad_norm, rel=1e-12)

    def test_admissibility_of_result(self, solved):
        _, _, domain, _, cons, res = solved
        lo, hi = cons.bounds(domain)
        again = np.clip(res.field.values, lo, hi)
        assert np.array_equal(again, res.field.values)

    def test_small_M_guard(self):
        kernel = KernelSpec(dim=2, s=0.3, tau=2.0)
        potential = PotentialSpec(family="quartic")
        domain = build_domain(2.0, Direction((0, 1), 2.0), M=1.0, h=0.25,
                              buffer=1.0)
        weights = build_weights(kernel, domain, 2.0)
        with pytest.raises(ConfigurationError):
            minimize_strip(weights, potential, Constraints(0.9))


class TestBirkhoff:
    def test_solution_passes_all_levels(self, solved):
        *_, res = solved
        rep = check_birkhoff(res.field)
        assert rep["passed"] and rep["worst_cells"] == 0

    def test_orthogonal_generator_equality(self, solved):
        # e_1 is orthogonal to omega = e_2: the shifted sets must be equal
        *_, res = solved
        rep = check_birkhoff(res.field)
        orth = [r for r in rep["rows"] if r["k"] in ((1, 0), (-1, 0))]
        assert len(orth) == 4 * len(minimize.BIRKHOFF_LEVELS)
        assert all(r["violating_cells"] == 0 for r in orth)

    def test_constructed_violation_detected(self, solved):
        # positive off-axis bump deep in the negative phase: the shifted
        # superlevel set is no longer contained in the original one
        _, _, domain, _, _, res = solved
        bad = replace(res.field, values=res.field.values.copy())
        it = int((4.5 - domain.t_lo) / domain.h)
        assert bad.values[1, it] < 0.0
        bad.values[1, it] = 0.5
        rep = check_birkhoff(bad)
        assert not rep["passed"]
        assert rep["worst_cells"] > 0
        measures = [r["violation_measure"] for r in rep["rows"]]
        assert max(measures) > 0


class TestUpperDistance:
    def test_constructed_margin(self):
        domain = build_domain(1.0, Direction((0, 1), 1.0), M=6.0, h=0.25,
                              buffer=2.0)
        t = domain.t_centers()
        vals = np.where(t <= domain.M - 2.0, 0.5, -1.0)
        f = Field(domain, np.tile(vals, (domain.n_p, 1)))
        assert upper_distance(f, 0.9) >= 2.0

    def test_zero_distance(self):
        domain = build_domain(1.0, Direction((0, 1), 1.0), M=6.0, h=0.25,
                              buffer=2.0)
        f = Field(domain, np.full(domain.shape, -0.89))
        assert upper_distance(f, 0.9) <= domain.h


class TestClassA:
    def test_converged_solution_stable(self, solved):
        kernel, potential, domain, weights, cons, res = solved
        rep = check_class_A(weights, potential, res.field, trials=8, seed=3)
        assert rep["passed"], rep["max_improvement"]

    def test_perturbed_field_detected(self, solved):
        kernel, potential, domain, weights, cons, res = solved
        bad = replace(res.field, values=res.field.values.copy())
        mid = domain.n_t // 2
        bad.values[:, mid - 1:mid + 2] = np.clip(
            bad.values[:, mid - 1:mid + 2] + 0.6, -1.0, 1.0)
        gain = ball_improvement(weights, potential, bad,
                                ((domain.n_p * domain.h) / 2,
                                 0.5 * (domain.t_lo + domain.t_hi)), 1.0)
        assert gain > 1e-4

    def test_ball_resolve_takes_the_solve_epsilon(self, solved):
        # a state solved at eps is a local minimizer of the scaled energy
        # only: under the unscaled potential the same ball re-solve gains
        kernel, potential, domain, weights, cons, res = solved
        scaled = replace(potential, epsilon=0.125)
        field = minimize_strip(weights, scaled, cons).field
        center = (0.5 * domain.n_p * domain.h, interface_height(field))
        F = abs(weights.period_value(field, scaled))
        gains = [ball_improvement(weights, pot, field, center, 1.0)
                 for pot in (scaled, potential)]
        assert gains[0] <= minimize.CLASS_A_REL * F
        assert gains[1] > 1e-3 * F

    def test_outside_ball_skipped(self):
        # a strip 4h high holds no ball of radius >= 2h clear of both
        # constrained regions
        kernel = KernelSpec(dim=2, s=0.3, tau=1.0)
        domain = build_domain(1.0, Direction((0, 1), 1.0), M=1.0, h=0.25,
                              buffer=1.0)
        weights = build_weights(kernel, domain, 2.0)
        lo, _ = Constraints(0.9).bounds(domain)
        rep = check_class_A(weights, PotentialSpec(), Field(domain, lo),
                            trials=3, seed=4)
        assert len(rep["rows"]) == 3
        assert all(r.get("skipped") for r in rep["rows"])


class TestBallOperator:
    """The FFT ball matvec against the dense block of pair weights."""

    @staticmethod
    def make_weights(dim, family, direction, h):
        tau = 1.0
        kernel = KernelSpec(dim=dim, s=0.4, tau=tau, family=family)
        domain = build_domain(tau, Direction(direction, tau), M=24 * h, h=h,
                              buffer=8 * h)
        return build_weights(kernel, domain, 3.0), domain

    @pytest.mark.parametrize("dim,family,direction,h,center,radius", [
        (2, "standard", (0, 1), 0.25, (0.5, 3.0), 1.2),
        (2, "modulated", (0, 1), 0.25, (0.3, 2.5), 1.3),
        (2, "modulated", (1, 1), 2 ** 0.5 / 6, (0.4, 2.0), 1.1),
        (1, "standard", (1,), 0.25, (0.0, 3.0), 1.7),
        (1, "modulated", (1,), 0.25, (0.0, 3.0), 1.7),
        # radius 2 tau, wider than the period: periodic images of one slab
        # cell are separate variables of the ball
        (2, "modulated", (0, 1), 0.25, (0.5, 3.0), 2.0),
    ], ids=["2d-standard", "2d-modulated", "2d-modulated-11", "1d-standard",
            "1d-modulated", "2d-wider-than-period"])
    def test_matches_dense_block(self, dim, family, direction, h, center,
                                 radius):
        weights, domain = self.make_weights(dim, family, direction, h)
        ball = BallWindow(center, radius)
        rect, inball, op = weights.ball_operator(ball)
        assert rect == domain.cover(ball.bounds())
        ip, it = np.nonzero(inball)
        g = weights._g_rect(rect)[ip, it]
        W = weights.offset_weights(ip[None, :] - ip[:, None],
                                   it[None, :] - it[:, None],
                                   g[:, None], g[None, :])
        cols = np.mod(ip + rect[0], domain.n_p)
        if dim == 2 and 2 * radius > domain.n_p * domain.h:
            cells = np.stack([cols, it], axis=1)
            assert len(np.unique(cells, axis=0)) < len(cells)
        rng = np.random.default_rng(5)
        u = np.tanh(domain.t_centers() - 3.0)
        field = Field(domain, -np.tile(u, (domain.n_p, 1)))
        u_ball = field.values[cols, it + rect[2]]
        scale = np.abs(W).sum(axis=1).max()
        for v, dense in [(rng.uniform(-1, 1, ip.size), None),
                         (np.ones(ip.size), W.sum(axis=1)),    # R_ball
                         (u_ball, W @ u_ball)]:                 # C_ball
            ref = W @ v if dense is None else dense
            np.testing.assert_allclose(op(v), ref, rtol=0,
                                       atol=1e-12 * scale)
        gain = ball_improvement(weights, PotentialSpec(family="quartic"),
                                field, center, radius)
        assert gain >= 0.0


@pytest.mark.parametrize("check,count", [
    ("check_class_A", "trials"),
    ("surface_local_min_check", "trials"),
    ("verify_barrier", "n_samples"),
])
def test_certificate_needs_a_sample(solved, check, count):
    # a certificate over no samples would pass vacuously
    kernel, potential, domain, weights, cons, res = solved
    calls = {
        "check_class_A": lambda: check_class_A(
            weights, potential, res.field, trials=0),
        "surface_local_min_check": lambda: surface_local_min_check(
            weights, level_mask(res.field, 0.0), trials=0),
        "verify_barrier": lambda: verify_barrier(
            kernel, build_barrier(kernel, R=1e9, delta=0.1), n_samples=0),
    }
    with pytest.raises(ValueError, match=count):
        calls[check]()
