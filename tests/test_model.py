import math

import mpmath
import numpy as np
import pytest

from nlphase.model import (KernelSpec, PotentialSpec, ScalingDomainError,
                           SingularPairError, eval_kernel, eval_potential,
                           eval_potential_derivative, gamma_of, psi_s,
                           validate_hypotheses)

ALL_FAMILIES = ["quartic", "power_d", "cosine", "cosine_sq"]


def make_potential(family, **kw):
    kw.setdefault("d", 1.5)
    return PotentialSpec(family=family, **kw)


class TestKernel:
    def test_standard_direct_value(self):
        # n=2, s=0.25, |x-y|=2 -> 2^(-2.5)
        spec = KernelSpec(dim=2, s=0.25)
        v = eval_kernel(spec, np.array([0.0, 0.0]), np.array([0.0, 2.0]))
        assert v == pytest.approx(2.0 ** (-2.5), rel=1e-14)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(7)
        for family in ("standard", "modulated"):
            spec = KernelSpec(dim=2, s=0.4, tau=1.5, family=family)
            x = rng.uniform(-5, 5, (10_000, 2))
            y = x + rng.uniform(-1, 1, (10_000, 2))
            y[np.all(x == y, axis=1)] += 0.3
            assert np.array_equal(eval_kernel(spec, x, y),
                                  eval_kernel(spec, y, x))

    def test_modulated_shift_invariance(self):
        spec = KernelSpec(dim=2, s=0.3, tau=2.0, family="modulated")
        rng = np.random.default_rng(3)
        x = rng.uniform(-10, 10, (1000, 2))
        y = x + rng.uniform(-2, 2, (1000, 2)) + 0.05
        base = eval_kernel(spec, x, y)
        d = np.linalg.norm(x - y, axis=-1)
        # round-off floor: a few ulp of the radial envelope (the reduced
        # cosine argument carries the shift's absolute rounding error)
        floor = 4.0 * np.spacing(1.0) * 16.0 * d ** (-spec.exponent)
        for k in (np.array([2.0, 0.0]), np.array([0.0, 2.0])):
            shifted = eval_kernel(spec, x + k, y + k)
            assert np.all(np.abs(shifted - base)
                          <= np.maximum(4 * np.spacing(base), floor))

    def test_envelope_bounds(self):
        rng = np.random.default_rng(11)
        spec = KernelSpec(dim=2, s=0.25, tau=1.0, family="modulated")
        x = rng.uniform(-3, 3, (10_000, 2))
        y = x + rng.uniform(-0.9, 0.9, (10_000, 2))
        y[np.linalg.norm(x - y, axis=1) < 1e-6] += 0.2
        d = np.linalg.norm(x - y, axis=1)
        env = eval_kernel(spec, x, y) * d ** spec.exponent
        near = d < spec.tau
        assert np.all(env[near] >= spec.lam - 1e-12)
        assert np.all(env <= spec.Lam + 1e-12)

    def test_coincident_points_raise(self):
        spec = KernelSpec()
        with pytest.raises(SingularPairError):
            eval_kernel(spec, np.zeros(2), np.zeros(2))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(s=1.2)
        with pytest.raises(ValueError):
            KernelSpec(family="exotic")
        # lattice, energy and barrier work in dimensions 1 and 2
        for dim in (0, 3):
            with pytest.raises(ValueError, match="dim must be 1 or 2"):
                KernelSpec(dim=dim)

    def test_regularity_constants_derived(self):
        assert KernelSpec(s=0.25).nu is None
        assert KernelSpec(s=0.25).gamma_reg is None
        spec = KernelSpec(s=0.75, tau=2.0)
        assert spec.nu == pytest.approx(0.5)
        assert spec.gamma_reg == pytest.approx(2.0 * math.pi)
        assert KernelSpec(s=0.5).nu == pytest.approx(0.9)
        with pytest.raises(AttributeError):
            spec.nu = 0.1


class TestSpecValidation:
    # nan fails every comparison, so a bare `tau <= 0` check lets it through
    BAD = [math.nan, math.inf, 0.0, -1.0]

    @pytest.mark.parametrize("tau", BAD)
    @pytest.mark.parametrize("make", [
        KernelSpec, lambda tau: PotentialSpec(tau=tau, Q_modulation=True)],
        ids=["kernel", "potential"])
    def test_tau_finite_and_positive(self, make, tau):
        with pytest.raises(ValueError,
                           match=f"tau must be finite and positive, got {tau!r}"):
            make(tau=tau)

    @pytest.mark.parametrize("eps", BAD)
    def test_epsilon_finite_and_positive(self, eps):
        with pytest.raises(
                ValueError,
                match=f"epsilon must be finite and positive, got {eps!r}"):
            PotentialSpec(epsilon=eps)

    def test_epsilon_defaults_to_unscaled(self):
        assert PotentialSpec().epsilon is None
        assert PotentialSpec(epsilon=0.25).epsilon == 0.25


class TestPotential:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_wells_are_zeros(self, family):
        spec = make_potential(family)
        x = np.zeros((5, 2))
        assert np.allclose(eval_potential(spec, x, np.ones(5)), 0.0,
                           atol=1e-15)
        assert np.allclose(eval_potential(spec, x, -np.ones(5)), 0.0,
                           atol=1e-15)

    def test_quartic_values(self):
        spec = make_potential("quartic")
        x = np.zeros(2)
        assert eval_potential(spec, x, 0.0) == pytest.approx(1.0)
        assert eval_potential_derivative(spec, x, 0.0) == 0.0
        assert eval_potential_derivative(spec, x, 0.5) == pytest.approx(-1.5)

    def test_q_modulation_range_and_value(self):
        spec = make_potential("quartic", Q_modulation=True, tau=1.0)
        # Q = 2 at the origin
        assert eval_potential(spec, np.zeros(2), 0.0) == pytest.approx(2.0)
        rng = np.random.default_rng(0)
        q = spec.q(rng.uniform(-4, 4, (2000, 2)))
        assert np.all((q >= 1.0) & (q <= 2.0))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_derivative_matches_finite_differences(self, family):
        spec = make_potential(family, Q_modulation=True)
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, (1000, 2))
        r = rng.uniform(0.05, 0.95, 1000) * rng.choice([-1, 1], 1000)
        step = 1e-5
        fd = (eval_potential(spec, x, r + step)
              - eval_potential(spec, x, r - step)) / (2 * step)
        an = eval_potential_derivative(spec, x, r)
        scale = np.maximum(np.abs(an), 1e-2)
        assert np.max(np.abs(fd - an) / scale) < 1e-6

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_kappa_derived_in_range(self, family):
        spec = make_potential(family, Q_modulation=True)
        assert 0.0 < spec.kappa <= 1.0 / 3.0
        r = np.linspace(-1.0, 1.0, 2001)
        x = np.zeros((r.size, 2))          # Q = 2, the strongest modulation
        peak = max(np.max(eval_potential(spec, x, r)),
                   np.max(np.abs(eval_potential_derivative(spec, x, r))))
        assert peak <= 0.95 / spec.kappa + 1e-12
        with pytest.raises(AttributeError):
            spec.kappa = 0.1

    def test_power_d_one_sided_derivative_at_wells(self):
        spec = make_potential("power_d", d=1.5)
        assert eval_potential_derivative(spec, np.zeros(2), 1.0) == 0.0
        assert eval_potential_derivative(spec, np.zeros(2), -1.0) == 0.0


def mp_profile(family, d, r):
    """The well shape at the float ``r`` in 50-digit arithmetic."""
    r = mpmath.mpf(r)
    if family == "quartic":
        return (1 - r * r) ** 2
    if family == "power_d":
        return abs(1 - r * r) ** mpmath.mpf(d)
    if family == "cosine":
        return 1 + mpmath.cos(mpmath.pi * r)
    return mpmath.cos(mpmath.pi * r / 2) ** 2


class TestProfileDifference:
    FAMILIES = [("quartic", 1.5), ("power_d", 1.5), ("power_d", 1.2),
                ("cosine", 1.5), ("cosine_sq", 1.5)]

    @pytest.mark.parametrize("family,d", FAMILIES)
    def test_zero_at_equal_arguments(self, family, d):
        spec = make_potential(family, d=d)
        r = np.concatenate([[-1.0, -0.5, 0.0, 1e-300, 0.9999999, 1.0],
                            np.random.default_rng(2).uniform(-1, 1, 200)])
        assert np.all(spec.profile_difference(r, r) == 0.0)

    @pytest.mark.parametrize("family,d", FAMILIES)
    def test_error_scales_with_the_step(self, family, d):
        # |dw - (w0(r) - w0(ra))| <= 1e-14 |r - ra| for |r - ra| in
        # [1e-12, 1]; a difference of two profile values errs by about
        # 1e-16 whatever the step, which misses this bound at small steps
        spec = make_potential(family, d=d)
        rng = np.random.default_rng(11)
        r = rng.uniform(-1.0, 1.0, 300)
        step = rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-12, 0, 300)
        ra = np.clip(r - step, -1.0, 1.0)
        got = spec.profile_difference(r, ra)
        with mpmath.workdps(50):
            for a, b, g in zip(r, ra, got):
                exact = mp_profile(family, d, a) - mp_profile(family, d, b)
                err = abs(mpmath.mpf(float(g)) - exact)
                assert err <= 1e-14 * abs(mpmath.mpf(a) - mpmath.mpf(b)), (
                    a, b, float(err))


class TestGammaOf:
    def test_quartic_exact_values(self):
        spec = make_potential("quartic")
        assert gamma_of(spec, 0.0) == pytest.approx(1.0)
        assert gamma_of(spec, 0.9) == pytest.approx((1 - 0.81) ** 2)

    def test_non_increasing(self):
        for family in ALL_FAMILIES:
            for qmod in (False, True):
                spec = make_potential(family, Q_modulation=qmod)
                thetas = np.linspace(0.0, 0.98, 50)
                vals = [gamma_of(spec, th) for th in thetas]
                assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
                assert all(v > 0 for v in vals)

    def test_certifies_lower_bound(self):
        rng = np.random.default_rng(9)
        spec = make_potential("cosine", Q_modulation=True)
        for theta in (0.3, 0.7, 0.95):
            bound = gamma_of(spec, theta)
            x = rng.uniform(-3, 3, (500, 2))
            r = rng.uniform(-theta, theta, 500)
            assert np.all(eval_potential(spec, x, r) >= bound - 1e-12)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("qmod", [False, True])
    def test_array_equals_scalar_calls(self, family, qmod):
        spec = make_potential(family, Q_modulation=qmod)
        thetas = np.random.default_rng(4).random(300) * 0.999
        assert np.array_equal(gamma_of(spec, thetas),
                              [gamma_of(spec, t) for t in thetas])

    def test_scalar_returns_float(self):
        spec = make_potential("quartic", Q_modulation=True)
        assert type(gamma_of(spec, 0.5)) is float
        assert type(gamma_of(spec, np.float64(0.5))) is float

    def test_out_of_range_entry_rejected(self):
        spec = make_potential("quartic", Q_modulation=True)
        for bad in ([0.1, 1.0, 0.2], [-1e-12, 0.5], [0.3, np.nan], 1.0):
            with pytest.raises(ValueError, match="theta"):
                gamma_of(spec, bad)


class TestPsi:
    def test_three_regimes(self):
        assert psi_s(0.25, 16.0) == pytest.approx(4.0)
        assert psi_s(0.5, math.e) == pytest.approx(1.0)
        assert psi_s(0.75, 100.0) == 1.0

    def test_domain_error(self):
        with pytest.raises(ScalingDomainError):
            psi_s(0.25, 1.0)
        with pytest.raises(ScalingDomainError):
            psi_s(0.5, 0.5)


class TestValidateHypotheses:
    def test_builtin_pairs_pass(self):
        for kf in ("standard", "modulated"):
            for pf in ALL_FAMILIES:
                rep = validate_hypotheses(
                    KernelSpec(dim=2, s=0.3, tau=1.0, family=kf),
                    make_potential(pf, Q_modulation=True), samples=256)
                assert rep.passed, rep.failing_tags()

    def test_standard_kernel_saturates_unit_bounds(self):
        spec = KernelSpec(dim=2, s=0.25, family="standard")
        assert spec.lam == spec.Lam == 1.0
        rep = validate_hypotheses(spec, make_potential("quartic"))
        assert rep["K2"].passed

    def test_modulated_envelope_constants(self):
        spec = KernelSpec(dim=2, s=0.25, family="modulated")
        assert spec.lam == 0.5 and spec.Lam == 1.5

    def test_injected_nonperiodic_double_fails_K4(self):
        class BrokenKernel(KernelSpec):
            def modulation(self, x):
                return np.asarray(x, dtype=float)[..., 0]

        broken = BrokenKernel(dim=2, s=0.3, tau=1.0, family="modulated")
        rep = validate_hypotheses(broken, make_potential("quartic"),
                                  samples=128)
        assert not rep["K4"].passed
        assert "K4" in rep.failing_tags()

    def test_regularity_checked_above_half(self):
        rep = validate_hypotheses(KernelSpec(dim=2, s=0.75, family="modulated"),
                                  make_potential("quartic"), samples=256)
        assert rep["K3"].passed

    def test_q_grid_scanned_once(self):
        grid_scans = []

        class CountingPotential(PotentialSpec):
            def q(self, x):
                if np.shape(x) == (65 * 65, 2):
                    grid_scans.append(1)
                return super().q(x)

        validate_hypotheses(KernelSpec(dim=2, s=0.3, tau=1.0),
                            CountingPotential(Q_modulation=True), samples=256)
        assert len(grid_scans) == 1
