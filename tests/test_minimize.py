import numpy as np
import pytest

from nlphase.energy import ConfigurationError, PERIOD, build_weights
from nlphase.lattice import Direction, Field, build_domain
from nlphase.minimize import (Constraints, SolveOptions, ball_improvement,
                              check_birkhoff, check_class_A, doubling_check,
                              minimize_strip, upper_distance)
from nlphase.model import KernelSpec, PotentialSpec


@pytest.fixture(scope="module")
def solved():
    kernel = KernelSpec(dim=2, s=0.3, tau=1.0)
    potential = PotentialSpec(family="quartic")
    domain = build_domain(1.0, Direction((0, 1), 1.0), M=6.0, h=0.25,
                          buffer=2.0)
    weights = build_weights(kernel, domain, 4.0)
    cons = Constraints(0.9)
    res = minimize_strip(weights, potential, cons,
                         options=SolveOptions(max_iters=20000))
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
        warm = minimize_strip(weights, potential, cons, seed_field=Field(
            domain, lo), options=SolveOptions(max_iters=20000))
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
        res2 = minimize_strip(weights, potential, cons, seed_field=seed2,
                              options=SolveOptions(max_iters=20000))
        assert res2.F_value == pytest.approx(res.F_value, rel=1e-6)

    def test_iteration_cap_not_converged(self, solved):
        kernel, potential, domain, weights, cons, _ = solved
        res = minimize_strip(weights, potential, cons,
                             options=SolveOptions(max_iters=3))
        assert not res.converged
        assert res.diagnostics["stop_reason"] == "iteration_cap"
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
        rep = check_birkhoff(res.field, [-0.9, -0.5, 0.0, 0.5, 0.9])
        assert rep["passed"] and rep["worst_cells"] == 0

    def test_orthogonal_generator_equality(self, solved):
        *_, res = solved
        rep = check_birkhoff(res.field, [0.0], generators=[(1, 0)])
        assert rep["worst_cells"] == 0

    def test_constructed_violation_detected(self, solved):
        # positive off-axis bump deep in the negative phase: the shifted
        # superlevel set is no longer contained in the original one
        _, _, domain, _, _, res = solved
        bad = res.field.copy()
        it = int((4.5 - domain.t_lo) / domain.h)
        assert bad.values[1, it] < 0.0
        bad.values[1, it] = 0.5
        rep = check_birkhoff(bad, [0.0])
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
        f = Field.full(domain, -0.89)
        assert upper_distance(f, 0.9) <= domain.h


class TestClassA:
    def test_converged_solution_stable(self, solved):
        kernel, potential, domain, weights, cons, res = solved
        rep = check_class_A(weights, potential, res.field, trials=8,
                            radius_range=(0.5, 1.0), seed=3)
        assert rep["passed"], rep["max_improvement"]

    def test_perturbed_field_detected(self, solved):
        kernel, potential, domain, weights, cons, res = solved
        bad = res.field.copy()
        mid = domain.n_t // 2
        bad.values[:, mid - 1:mid + 2] = np.clip(
            bad.values[:, mid - 1:mid + 2] + 0.6, -1.0, 1.0)
        gain = ball_improvement(weights, potential, bad,
                                ((domain.n_p * domain.h) / 2,
                                 0.5 * (domain.t_lo + domain.t_hi)), 1.0)
        assert gain > 1e-4

    def test_outside_ball_skipped(self, solved):
        kernel, potential, domain, weights, cons, res = solved
        rep = check_class_A(weights, potential, res.field, trials=3,
                            radius_range=(domain.t_hi - domain.t_lo,
                                          domain.t_hi - domain.t_lo + 1.0),
                            seed=4)
        assert all(r.get("skipped") for r in rep["rows"])


class TestDoubling:
    def test_identity_at_one(self, solved):
        kernel, potential, domain, weights, cons, res = solved
        rep = doubling_check(weights, potential, res, 1)
        assert rep["l1_gap_per_period"] == 0.0

    def test_two_periods_consistent(self, solved):
        kernel, potential, domain, weights, cons, res = solved
        # F_gap is this small only if the doubled table keeps the cutoff 4.0
        rep = doubling_check(weights, potential, res, 2,
                             options=SolveOptions(max_iters=20000))
        assert rep["l1_gap_per_period"] <= 1e-4
        assert abs(rep["F_gap"]) <= 1e-8
