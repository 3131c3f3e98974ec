import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, special

from nlphase.energy import BallWindow, BoxWindow, PERIOD, build_weights
from nlphase.geometry import SetMask, level_mask
from nlphase.lattice import Direction, Field, build_domain
from nlphase.minimize import Constraints
from nlphase.model import KernelSpec, PotentialSpec
from nlphase.perimeter import (RegimeError, flip_gains, gamma_sweep,
                               indicator_energy, minimal_surface_extract,
                               per_K, surface_local_min_check)


def setup(s=0.25, family="standard", M=4.0, h=0.25, B=2.0, r_cut=2.0,
          direction=(0, 1)):
    kernel = KernelSpec(dim=2, s=s, tau=1.0, family=family)
    domain = build_domain(1.0, Direction(direction, 1.0), M=M, h=h, buffer=B)
    return kernel, domain, build_weights(kernel, domain, r_cut)


def halfspace_mask(domain, level):
    t = domain.t_centers()
    return SetMask(domain, np.tile(t < level, (domain.n_p, 1)), True, False)


class TestPerK:
    def test_empty_set_zero(self):
        _, dom, wt = setup()
        empty = SetMask(dom, np.zeros(dom.shape, bool), False, False)
        res = per_K(wt, empty, PERIOD)
        assert res.per_K == 0.0 and sum(res.parts) == 0.0

    def test_complement_symmetry(self):
        _, dom, wt = setup(family="modulated")
        rng = np.random.default_rng(0)
        mask = SetMask(dom, rng.random(dom.shape) < 0.5, True, False)
        a = per_K(wt, mask, PERIOD).per_K
        b = per_K(wt, mask.complement(), PERIOD).per_K
        assert a == pytest.approx(b, rel=1e-12)

    def test_part_sum_identity(self):
        _, dom, wt = setup()
        mask = halfspace_mask(dom, 2.0)
        res = per_K(wt, mask, PERIOD)
        assert res.per_K == pytest.approx(sum(res.parts), rel=1e-12)
        assert all(p >= 0.0 for p in res.parts)

    @pytest.mark.parametrize("window", [
        PERIOD, BoxWindow(0.0, 1.0, 1.0, 3.0), BallWindow((0.6, 2.0), 1.2)])
    def test_quarter_kinetic_identity_random_masks(self, window):
        h11 = math.sqrt(2.0) / 4.0       # four cells across the (1,1) period
        cases = [dict(family="modulated"), dict(family="standard"),
                 dict(family="standard", direction=(1, 1), h=h11, M=12 * h11,
                      B=6 * h11)]
        rng = np.random.default_rng(1)
        for case in cases:
            _, dom, wt = setup(**case)
            for _ in range(10):
                far_below, far_above = rng.random(2) < 0.5
                mask = SetMask(dom, rng.random(dom.shape) < 0.5, far_below,
                               far_above)
                lhs = per_K(wt, mask, window).per_K
                rhs = indicator_energy(wt, mask, window) / 4.0
                assert lhs == pytest.approx(rhs, rel=1e-10), case

    def test_supercritical_rejected(self):
        _, dom, wt = setup(s=0.6)
        with pytest.raises(RegimeError):
            per_K(wt, halfspace_mask(dom, 2.0), PERIOD)

    def test_window_monotonicity(self):
        _, dom, wt = setup()
        mask = halfspace_mask(dom, 2.0)
        small = BoxWindow(0.2, 0.8, 1.5, 2.5)
        big = BoxWindow(0.0, 1.0, 1.0, 3.0)
        assert per_K(wt, mask, small).per_K <= per_K(wt, mask, big).per_K

    def test_halfspace_against_quadrature_oracle(self):
        # E = lower half-space, box window; each part reduces to kernel
        # integrals against rectangle cross-correlations
        s = 0.25
        kernel, dom, wt = setup(s=s, M=8.0, h=0.125, B=6.0, r_cut=3.0)
        lev = 4.0
        mask = halfspace_mask(dom, lev)
        win = BoxWindow(0.0, 1.0, 3.0, 5.0)
        res = per_K(wt, mask, win)

        q = 2.0 + 2.0 * s
        rc = wt.r_cut
        pw = 1.0                     # window width in p
        a_lo, a_hi = 3.0, lev        # E cap Omega in t
        b_lo, b_hi = lev, 5.0        # Omega minus E in t

        def seg_overlap(z2, lo1, hi1, lo2, hi2):
            lo = np.maximum(lo1, lo2 - z2)
            hi = np.minimum(hi1, hi2 - z2)
            return np.maximum(hi - lo, 0.0)

        def integral(overlap_t, p_bounded=True):
            # the inner z1 slice in closed form: with a = |z2| it runs over
            # |z1| < c, where int_0^c (z1^2 + a^2)^(-q/2) dz1 is
            # c a^(-q) 2F1(1/2, q/2; 3/2; -c^2/a^2) and the linear part of
            # the tent (pw - |z1|)_+ integrates to an elementary term
            def slice_(z2):
                a = abs(z2)
                if a >= rc or a == 0.0:
                    return 0.0
                c = math.sqrt(rc * rc - a * a)
                if p_bounded:
                    c = min(pw, c)
                v = 2.0 * pw * c * a ** (-q) * special.hyp2f1(
                    0.5, q / 2, 1.5, -(c / a) ** 2)
                if p_bounded:
                    v -= 2.0 * ((c * c + a * a) ** (1 - q / 2)
                                - a ** (2 - q)) / (2 - q)
                return v * overlap_t(z2)

            # the slice blows up at z2 = 0: split the outer integral there
            total = 0.0
            for lo, hi in ((-rc, 0.0), (0.0, rc)):
                v, _ = integrate.quad(slice_, lo, hi, limit=200,
                                      epsabs=1e-10, epsrel=1e-8)
                total += v
            return total

        part1 = integral(lambda z2: seg_overlap(z2, a_lo, a_hi, b_lo, b_hi))
        # halfplane targets are unbounded across the period direction
        upper = integral(lambda z2: seg_overlap(z2, a_lo, a_hi, lev, 1e9),
                         p_bounded=False)
        part2 = upper - part1
        lower = integral(lambda z2: seg_overlap(z2, b_lo, b_hi, -1e9, lev),
                         p_bounded=False)
        part3 = lower - part1
        # the implementation carries flagged analytic tails for far-plane
        # pairs beyond r_cut; the oracle truncates at r_cut, so compare the
        # truncated values
        assert res.parts[0] == pytest.approx(part1, rel=0.02)
        assert res.per_K - res.tail_estimate == pytest.approx(
            part1 + part2 + part3, rel=0.02)


class TestFlipGains:
    @pytest.mark.parametrize("family", ["standard", "modulated"])
    def test_flips_match_window_energy_change(self, family):
        # flipping one world copy of a cell, or of two axis neighbours,
        # changes the indicator energy of a window holding them by four
        # times the perimeter change; the p-neighbour of the last column is
        # the first column of the next world copy
        _, dom, wt = setup(family=family)
        rng = np.random.default_rng(5)
        mask = SetMask(dom, rng.random(dom.shape) < 0.5, True, False)
        ind = mask.indicator_field()
        m = ind.values
        single, pair_t, pair_p = flip_gains(wt, mask)
        h = dom.h

        def quarter_change(cells):
            (ip0, it0), (ip1, it1) = cells[0], cells[-1]
            center = ((0.5 * (ip0 + ip1) + 0.5) * h,
                      dom.t_lo + (0.5 * (it0 + it1) + 0.5) * h)
            window = BallWindow(center, 2.5 * h)

            def flip(V, P, T):
                V = V.copy()
                for ip, it in cells:
                    hit = ((np.abs(P - (ip + 0.5) * h) < 0.25 * h)
                           & (np.abs(T - dom.t_lo - (it + 0.5) * h) < 0.25 * h))
                    assert np.count_nonzero(hit) == 1
                    V[hit] = -V[hit]
                return V

            before = wt.window_report(ind, window).total
            after = wt.window_report(ind, window, transform=flip).total
            return 0.25 * (after - before)

        n_p = dom.n_p
        for ip, it in ((n_p - 1, dom.n_t // 2), (1, 7), (2, dom.n_t - 9)):
            i = (ip, it)
            assert quarter_change([i]) == pytest.approx(single[i], rel=1e-10)
            for dp, dt, gains in ((0, 1, pair_t), (1, 0, pair_p)):
                j = ((ip + dp) % n_p, it + dt)
                formula = (single[i] + single[j] - 2.0 * m[i] * m[j]
                           * wt.offset_weight(i, dp, dt))
                exact = quarter_change([i, (ip + dp, it + dt)])
                assert exact == pytest.approx(gains[i], rel=1e-10)
                assert exact == pytest.approx(formula, rel=1e-10)


@pytest.fixture(scope="module")
def sweep_weights():
    return setup(M=6.0, r_cut=4.0)[2]


@pytest.fixture(scope="module")
def sweep(sweep_weights):
    return gamma_sweep(sweep_weights, PotentialSpec(family="quartic"),
                       Constraints(0.9), [1.0, 0.5, 0.25, 0.125])


class TestGammaSweep:
    def test_records_complete(self, sweep, sweep_weights):
        recs = sweep["records"]
        assert len(recs) == 4
        assert all(r["converged"] for r in recs)
        assert recs[-1]["sym_diff"] == 0.0
        # E_eps is the solve's own F, the scaled energy of the record's field
        potential = PotentialSpec(family="quartic")
        for rec in recs:
            assert rec["E_eps"] == sweep_weights.period_value(
                rec["field"], replace(potential, epsilon=rec["eps"]))

    def test_recovery_identity_exact(self, sweep):
        assert sweep["recovery_identity_gap"] <= 1e-10

    def test_gap_trend(self, sweep):
        gaps = sweep["liminf_gaps"]
        assert sweep["gap_trend_nonincreasing"], gaps

    def test_sym_diff_trend(self, sweep):
        assert sweep["sym_diff_nonincreasing"]

    def test_eps_list_validation(self):
        potential = PotentialSpec(family="quartic")
        *_, weights = setup(M=6.0, h=0.5)
        with pytest.raises(ValueError):
            gamma_sweep(weights, potential, Constraints(0.9), [0.5, 1.0])
        *_, weights = setup(s=0.6, M=6.0, h=0.5)
        with pytest.raises(RegimeError):
            gamma_sweep(weights, potential, Constraints(0.9), [1.0, 0.5])


class TestLimitSurface:
    def test_extract_passes(self, sweep):
        out = minimal_surface_extract(sweep)
        assert out["inclusion_lower"] and out["inclusion_upper"]
        assert out["periodic"]
        assert out["density_ok"]
        assert out["m0_emp"] > 0

    def test_needs_three_converged(self, sweep):
        crippled = dict(sweep)
        crippled["records"] = sweep["records"][:2]
        with pytest.raises(ValueError):
            minimal_surface_extract(crippled)

    def test_flip_stability_of_limit_mask(self, sweep, sweep_weights):
        out = minimal_surface_extract(sweep)
        rep = surface_local_min_check(sweep_weights, out["mask"],
                                      trials=12, seed=2)
        assert rep["passed"], rep["max_improvement"]

    def test_island_detected(self, sweep, sweep_weights):
        out = minimal_surface_extract(sweep)
        mask = out["mask"]
        dom = mask.domain
        bad = SetMask(dom, mask.inside.copy(), mask.far_below, mask.far_above)
        t = dom.t_centers()
        deep = int(np.argmax(t > t.max() - 1.0))
        bad.inside[1, deep] = True  # one-cell island in the minus phase
        rep = surface_local_min_check(sweep_weights, bad, trials=40,
                                      seed=3)
        assert not rep["passed"]

    def test_threshold_level_independence_trend(self, sweep):
        # the arbitrary threshold level matters less and less along the
        # sweep: masks at levels -0.5, 0, 0.5 converge toward each other
        def spread(rec):
            fld = rec["field"]
            masks = [level_mask(fld, lev, "above") for lev in (-0.5, 0.0, 0.5)]
            return max(np.count_nonzero(m.inside != masks[0].inside)
                       for m in masks)

        spreads = [spread(r) for r in sweep["records"]]
        assert spreads[-1] < spreads[0]
        assert all(b <= a for a, b in zip(spreads, spreads[1:]))
