import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, optimize

from nlphase import energy, minimize
from nlphase.energy import (BallWindow, BoxWindow, PERIOD, ConfigurationError,
                            WindowError, build_weights, unit_pair_integral)
from nlphase.geometry import level_mask
from nlphase.lattice import Direction, Field, build_domain
from nlphase.model import KernelSpec, PotentialSpec
from nlphase.perimeter import indicator_energy, per_K

CORE = 1.0 / 16.0
NEAR = energy.NEAR_EXACT_CELLS


def oracle_unit_weight(s, d1, d2):
    """Adaptive cartesian quadrature of the unit-cell pair integral."""
    q = 2.0 + 2.0 * s
    touching = max(abs(d1), abs(d2)) <= 1
    core = CORE if (d1 == d2 == 0 or (touching and s >= 0.5)) else 0.0

    def f(z2, z1):
        r2 = z1 * z1 + z2 * z2
        if core and r2 < core * core:
            return 0.0
        return (r2 ** (-q / 2.0) * max(1 - abs(z1 - d1), 0.0)
                * max(1 - abs(z2 - d2), 0.0))

    val, _ = integrate.dblquad(f, d1 - 1, d1 + 1, d2 - 1, d2 + 1,
                               epsabs=1e-11, epsrel=1e-9)
    return val


def strip_setup(dim, family, s, tau=1.0):
    """A small strip in 1D or 2D at r_cut 4 tau, with the modulated
    potential."""
    kernel = KernelSpec(dim=dim, s=s, tau=tau, family=family)
    direction = Direction((0, 1) if dim == 2 else (1,), tau)
    dom = build_domain(tau, direction, M=2.0 * tau, h=0.25 * tau,
                       buffer=tau)
    potential = PotentialSpec(family="quartic", tau=tau, Q_modulation=True)
    return build_weights(kernel, dom, 4.0 * tau), potential


def random_field(dom, seed, far=None) -> Field:
    rng = np.random.default_rng(seed)
    if far is None:
        far = rng.uniform(-1.0, 1.0, 2)
    return Field(dom, rng.uniform(-1.0, 1.0, dom.shape), *far)


def axis_setup(s=0.25, family="standard", M=4.0, h=0.25, B=2.0, tau=1.0,
               r_cut=2.0):
    kernel = KernelSpec(dim=2, s=s, tau=tau, family=family)
    domain = build_domain(tau, Direction((0, 1), tau), M=M, h=h, buffer=B)
    return kernel, domain, build_weights(kernel, domain, r_cut)


class TestPairWeights:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.filterwarnings("ignore:.*roundoff.*")
    @pytest.mark.parametrize("s", [0.25, 0.75])
    def test_matches_adaptive_oracle(self, s):
        # includes touching offsets and the self pair
        offsets = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 2), (5, 0)]
        for d1, d2 in offsets:
            mine = unit_pair_integral(2, s, d1, d2)
            ref = oracle_unit_weight(s, d1, d2)
            assert mine == pytest.approx(ref, rel=1e-3), (s, d1, d2)

    @pytest.mark.parametrize("s", [0.25, 0.75])
    def test_far_corrected_midpoint_accuracy(self, s):
        for d1, d2 in [(7, 0), (8, 3), (12, 5)]:
            q = 2 + 2 * s
            r = math.hypot(d1, d2)
            approx = r ** (-q) + (q * q / 12.0) * r ** (-q - 2)
            ref = oracle_unit_weight(s, d1, d2)
            assert approx == pytest.approx(ref, rel=2e-3)

    def test_scaling_in_h(self):
        # w(h) = h^(n-2s) * unit value
        k1, dom1, wt1 = axis_setup(h=0.25, r_cut=2.0)
        k2, dom2, wt2 = axis_setup(h=0.125, r_cut=1.0)
        w1 = wt1.offset_weight((0, 4), 0, 3)
        w2 = wt2.offset_weight((0, 4), 0, 3)
        assert w2 / w1 == pytest.approx(0.5 ** (2 - 0.5), rel=1e-12)

    def test_symmetry_exact(self):
        _, dom, wt = axis_setup(family="modulated", r_cut=1.5)
        rng = np.random.default_rng(0)
        for _ in range(100):
            i = (rng.integers(0, dom.n_p), rng.integers(0, dom.n_t))
            j = (rng.integers(0, dom.n_p), rng.integers(0, dom.n_t))
            m = int(rng.integers(-2, 3))
            try:
                wij = wt.offset_weight(i, j[0] + m * dom.n_p - i[0],
                                       j[1] - i[1])
            except ConfigurationError:
                continue
            wji = wt.offset_weight(j, i[0] - m * dom.n_p - j[0], i[1] - j[1])
            assert wij == wji

    def test_shell_sum_matches_analytic(self):
        # weight sum over a shell vs h^n times the continuum shell integral
        # (the other cell-measure factor h^n sits inside each weight); the
        # shell must span many cells for the rim coverage error to drop
        s = 0.25
        _, dom, wt = axis_setup(s=s, M=8.0, h=0.0625, B=4.0, r_cut=6.5)
        K = wt.k_cells
        dp = np.arange(-K, K + 1)
        DP, DT = np.meshgrid(dp, dp, indexing="ij")
        R = np.hypot(DP, DT) * dom.h
        q = 2 + 2 * s
        for r_in in (2.0, 3.0):
            shell = (R >= r_in) & (R < 2 * r_in)
            total = wt.stencil[shell].sum()
            analytic = (dom.cell_volume * 2 * math.pi
                        * (r_in ** (2 - q) - (2 * r_in) ** (2 - q)) / (q - 2))
            assert total == pytest.approx(analytic, rel=0.02)

    def test_modulated_weight_against_refined_sum(self):
        kernel, dom, wt = axis_setup(family="modulated", h=0.125, r_cut=1.0)
        i, j = (1, 8), (2, 9)
        mine = wt.offset_weight(i, j[0] - i[0], j[1] - i[1])
        # refined quadrature: 16x16 subcells per cell, exact subpair envelope
        n_sub = 16
        hs = dom.h / n_sub
        ci = np.array([(i[0] + 0.5) * dom.h, dom.t_lo + (i[1] + 0.5) * dom.h])
        cj = np.array([(j[0] + 0.5) * dom.h, dom.t_lo + (j[1] + 0.5) * dom.h])
        offs = (np.arange(n_sub) - (n_sub - 1) / 2.0) * hs
        XX, YY = np.meshgrid(offs, offs, indexing="ij")
        subs_i = ci + np.stack([XX, YY], axis=-1).reshape(-1, 2)
        subs_j = cj + np.stack([XX, YY], axis=-1).reshape(-1, 2)
        total_a = total_1 = 0.0
        for a in subs_i:
            d = np.linalg.norm(subs_j - a, axis=1)
            ker = d ** (-kernel.exponent)
            amp = 1.0 + 0.25 * (kernel.modulation(a)
                                + kernel.modulation(subs_j))
            total_a += float(np.sum(amp * ker)) * hs ** 4
            total_1 += float(np.sum(ker)) * hs ** 4
        # compare the heterogeneity factor; the midpoint bias of the
        # refined sum near the touching corner cancels in the ratio
        std = KernelSpec(dim=2, s=kernel.s, tau=kernel.tau)
        wt_std = build_weights(std, dom, 1.0)
        ratio = mine / wt_std.offset_weight(i, j[0] - i[0], j[1] - i[1])
        assert ratio == pytest.approx(total_a / total_1, rel=1e-3)
        assert mine == pytest.approx(total_a, rel=0.02)

    def test_rcut_guards(self):
        kernel, dom, wt = axis_setup()
        with pytest.raises(ConfigurationError):
            build_weights(kernel, dom, 0.5)  # < 4h
        with pytest.raises(ConfigurationError):
            wt.offset_weight((0, 0), 0, dom.n_t - 1)  # beyond r_cut

    def test_kernel_tau_must_match_strip(self):
        # a modulation of another period would wrap onto the strip lattice
        _, dom, _ = axis_setup()
        kernel = KernelSpec(dim=2, s=0.25, tau=2.0, family="modulated")
        with pytest.raises(ConfigurationError, match=r"tau=2\.0.*tau=1\.0"):
            build_weights(kernel, dom, 2.0)

    def test_tails_decrease_with_rcut(self):
        # strictly smaller once the cutoff bites (distance to the far plane
        # below r_cut), never larger otherwise
        kernel, dom, _ = axis_setup(M=4.0, h=0.25, B=2.0)
        wt1 = build_weights(kernel, dom, 4.5)
        wt2 = build_weights(kernel, dom, 6.0)
        for it in (0, dom.n_t // 2, dom.n_t - 1):
            t1 = wt1.tail_weights((0, it))
            t2 = wt2.tail_weights((0, it))
            tc = dom.t_lo + (it + 0.5) * dom.h
            d = (tc - dom.t_lo, dom.t_hi - tc)
            for side in (0, 1):
                assert t2[side] >= 0.0
                if d[side] < 4.5:
                    assert t1[side] > t2[side]
                else:
                    assert t1[side] >= t2[side]


def brute_window(wt, fld, window):
    """Direct pair enumeration of a window energy (small domains only)."""
    dom = wt.domain
    K = wt.k_cells
    n_p, n_t = dom.shape
    u = fld.values

    def val(ip, it):
        if it < 0:
            return fld.far_below
        if it >= n_t:
            return fld.far_above
        return u[ip % n_p, it]

    def in_win(ip, it):
        p = (ip + 0.5) * dom.h
        t = dom.t_lo + (it + 0.5) * dom.h
        return bool(window.contains(np.array(p), np.array(t)))

    kin_in = kin_cross = pot_cells = 0.0
    lo_p = -3 * n_p - K
    hi_p = 3 * n_p + K
    for ip in range(lo_p, hi_p):
        for it in range(-K, n_t + K):
            if not in_win(ip, it):
                continue
            for dp in range(-K, K + 1):
                for dt in range(-K, K + 1):
                    w = 0.0
                    if abs(dp) <= K and abs(dt) <= K:
                        try:
                            w = wt.offset_weight(((ip % n_p), it), dp, dt)
                        except ConfigurationError:
                            continue
                    if w == 0.0:
                        continue
                    diff2 = (val(ip, it) - val(ip + dp, it + dt)) ** 2
                    if in_win(ip + dp, it + dt):
                        kin_in += 0.5 * w * diff2
                    else:
                        kin_cross += w * diff2
            tp, tm = wt.tail_weights((ip % n_p, it))
            kin_cross += ((val(ip, it) - fld.far_below) ** 2 * tp
                          + (val(ip, it) - fld.far_above) ** 2 * tm)
    return kin_in, kin_cross


def compensated_window(wt, fld, window):
    """(kinetic_in, kinetic_cross) of a window as `math.fsum` of the
    nonnegative pair terms w_ij (V_i - V_j)^2 over the stencil offsets (one
    correctly rounded partial per offset), with the tails added as
    `window_report` adds them."""
    V, G, P, T, tp, tm = wt.window_cells(fld, window)
    inside = window.contains(P, T)
    K = wt.k_cells
    # every offset of a window cell stays inside the rectangle
    assert not (inside[:, :K].any() or inside[:, -K:].any())
    if wt.domain.dim == 2:
        assert not (inside[:K].any() or inside[-K:].any())
    I = np.nonzero(inside)
    in_parts, cross_parts = [], []
    for dp in range(-K, K + 1) if wt.domain.dim == 2 else [0]:
        for dt in range(-K, K + 1):
            J = (I[0] + dp, I[1] + dt)
            t = wt.offset_weights(dp, dt, G[I], G[J]) * (V[I] - V[J]) ** 2
            in_parts.append(0.5 * math.fsum(t[inside[J]]))
            cross_parts.append(math.fsum(t[~inside[J]]))
    tail = float(np.sum(inside * ((V - fld.far_below) ** 2 * tp
                                  + (V - fld.far_above) ** 2 * tm)))
    return math.fsum(in_parts), math.fsum(cross_parts) + tail


def lattice_images(d1, d2):
    """The 8 images of an offset under the symmetries of the square lattice."""
    return [(e1 * a, e2 * b) for a, b in ((d1, d2), (d2, d1))
            for e1 in (1, -1) for e2 in (1, -1)]


class TestStencilQuadrature:
    @pytest.fixture
    def tent_calls(self, monkeypatch):
        """Cold caches and a record of every angular tent-sum evaluation."""
        energy._folded_pair_integral.cache_clear()
        energy._radial_profile.cache_clear()
        calls = []
        original = energy._angular_tent

        def counting(rr, d1, d2, n_phi):
            calls.append((d1, d2))
            return original(rr, d1, d2, n_phi)

        monkeypatch.setattr(energy, "_angular_tent", counting)
        return calls

    def test_one_quadrature_per_symmetry_class(self, tent_calls):
        # the near disc |d| <= 6 holds 19 classes (112 signed offsets)
        energy._unit_stencil(2, 0.25, 8, 8.0)
        assert len(tent_calls) == len(set(tent_calls)) == 19
        assert all(0 <= d2 <= d1 for d1, d2 in tent_calls)

    def test_angular_profile_shared_across_s(self, tent_calls):
        energy._unit_stencil(2, 0.25, 8, 8.0)
        tent_calls.clear()
        # s < 1/2 integrates touching pairs in full, as at s = 0.25
        energy._unit_stencil(2, 0.3, 8, 8.0)
        assert tent_calls == []
        # s >= 1/2 excludes the core of touching pairs: a new radial range
        energy._unit_stencil(2, 0.75, 8, 8.0)
        assert sorted(tent_calls) == [(1, 0), (1, 1)]

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_near_entries_equal_signed_integrals(self, s):
        K = 8
        stencil = energy._unit_stencil(2, s, K, float(K))
        for dp in range(-NEAR, NEAR + 1):
            for dt in range(-NEAR, NEAR + 1):
                if 0 < math.hypot(dp, dt) <= NEAR:
                    assert stencil[K + dp, K + dt] == unit_pair_integral(
                        2, s, dp, dt), (dp, dt)

    @settings(max_examples=30)
    @given(s=st.floats(0.05, 0.95), d1=st.integers(-NEAR, NEAR),
           d2=st.integers(-NEAR, NEAR))
    def test_pair_integral_lattice_symmetric(self, s, d1, d2):
        ref = unit_pair_integral(2, s, d1, d2)
        for a, b in lattice_images(d1, d2):
            assert unit_pair_integral(2, s, a, b) == ref
        # the fold is exact: the s-free tent sum itself has the symmetry
        rr = np.linspace(0.05, math.hypot(d1, d2) + 1.5, 97)
        tent = energy._angular_tent(rr, abs(d1), abs(d2), 512)
        for a, b in lattice_images(d1, d2):
            np.testing.assert_allclose(energy._angular_tent(rr, a, b, 512),
                                       tent, rtol=0, atol=1e-13)


class TestTentWindow:
    """The angular tent sum runs only over the angles whose ray meets the
    square |z - d|_inf < 1; every dropped term must be an exact zero."""

    OFFSETS = [(0, 0), (1, 0), (-1, 0), (0, -1), (1, 1), (-1, 1), (1, -1),
               (-1, -1), (2, -1), (-3, 5), (6, 0), (-4, -4), (0, 6)]

    @staticmethod
    def radii(d1, d2):
        """The radial nodes of a pair integral with no core exclusion, as
        `_radial_profile` places them, plus an even grid over that range."""
        rmin = max(math.hypot(d1, d2) - math.sqrt(2.0), 1e-9)
        edges = np.geomspace(rmin, math.hypot(d1, d2) + math.sqrt(2.0), 49)
        return np.concatenate([energy._gauss_panels(edges)[0],
                               np.linspace(edges[0], edges[-1], 257)])

    @pytest.mark.parametrize("n_phi", [512, 1024])
    @pytest.mark.parametrize("d1,d2", OFFSETS)
    def test_window_drops_only_zeros(self, d1, d2, n_phi):
        rr = self.radii(d1, d2)
        phi = (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
        cs, sn = np.cos(phi), np.sin(phi)
        terms = (np.maximum(1.0 - np.abs(rr[:, None] * cs - d1), 0.0)
                 * np.maximum(1.0 - np.abs(rr[:, None] * sn - d2), 0.0))
        keep = energy._tent_window(cs, sn, d1, d2, rr.min(), rr.max())
        outside = np.ones(n_phi, dtype=bool)
        outside[keep] = False
        assert np.all(terms[:, outside] == 0.0)
        full = terms.sum(axis=1) * (2.0 * math.pi / n_phi)
        np.testing.assert_allclose(energy._angular_tent(rr, d1, d2, n_phi),
                                   full, rtol=1e-15, atol=0)
        # the window is what saves the work: half the circle for the
        # axis neighbours, a quarter for the diagonal ones, less beyond
        reach = max(abs(d1), abs(d2))
        if reach == 1:
            assert keep.size == n_phi // (2 if d1 * d2 == 0 else 4)
        elif reach > 1:
            assert keep.size < 0.2 * n_phi


def halfplane_oracle(n, s, d, rho):
    """Adaptive quadrature of int over {z_t > d, |z| > rho} of
    |z|^(-n-2s) dz, split at |d|; past the split r = b u^(-1/(2s)) maps the
    radial integral onto u in (0, 1) with unit Jacobian weight."""
    def width(r):  # angular (2D) or linear (1D) measure of {z_t > d, |z| = r}
        if r < -d:
            return 2.0 * math.pi if n == 2 else 2.0
        if r < d:
            return 0.0
        return math.pi - 2.0 * math.asin(d / r) if n == 2 else 1.0

    b = max(abs(d), rho)
    near = 0.0
    if b > rho:
        near = integrate.quad(lambda r: r ** (-1 - 2 * s) * width(r), rho, b,
                              epsabs=0, epsrel=1e-13, limit=200)[0]
    far = integrate.quad(lambda u: width(b * u ** (-0.5 / s)), 0.0, 1.0,
                         epsabs=0, epsrel=1e-13, limit=200)[0]
    return near + b ** (-2 * s) / (2 * s) * far


class TestTails:
    S = (0.05, 0.25, 0.5, 0.75, 0.95)
    RHO = (0.5, 8.0, 26.4)
    A = (-3.0, -1.0 - 1e-4, -1.0 + 1e-4, -0.7, -0.3, 0.0, 0.2, 0.5, 0.9,
         1.0 - 1e-4, 1.0 + 1e-4, 1.5, 2.5, 5.0, 10.0)   # d / rho
    TAILS = {1: energy._halfplane_tail_1d, 2: energy._halfplane_tail_2d}

    @pytest.mark.parametrize("n", [1, 2])
    def test_closed_form_matches_quadrature(self, n):
        for s in self.S:
            for rho in self.RHO:
                d = rho * np.array(self.A)
                got = self.TAILS[n](s, d, rho)
                ref = [halfplane_oracle(n, s, di, rho) for di in d]
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0,
                                           err_msg=f"s={s} rho={rho}")

    @pytest.mark.parametrize("n", [1, 2])
    def test_continuous_at_the_cutoff(self, n):
        for s in self.S:
            for rho in self.RHO:
                for edge in (-rho, rho):
                    v = self.TAILS[n](s, edge * np.array(
                        [1.0 - 1e-12, 1.0, 1.0 + 1e-12]), rho)
                    np.testing.assert_allclose(v, v[1], rtol=1e-9, atol=0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_mirrored_rows_fill_the_annulus(self, n):
        # within the cutoff, T(d) + T(-d) is the kernel integral over all
        # of |z| > rho
        for s in self.S:
            for rho in self.RHO:
                d = rho * np.linspace(-0.999, 0.999, 21)
                whole = (math.pi if n == 2 else 1.0) * rho ** (-2 * s) / s
                tail = self.TAILS[n]
                np.testing.assert_allclose(tail(s, d, rho) + tail(s, -d, rho),
                                           whole, rtol=1e-13, atol=0)


class TestInteractionSum:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("family", ["standard", "modulated"])
    def test_matches_per_cell_loop(self, dim, family):
        # n_t + 2K = 48 is a fast FFT length: a period grid shorter than
        # the slab with K far rows on each side aliases the far weights
        kernel = KernelSpec(dim=dim, s=0.3, tau=1.0, family=family)
        dom = build_domain(1.0, Direction((0, 1) if dim == 2 else (1,), 1.0),
                           M=4.0, h=0.25, buffer=2.0)
        wt = build_weights(kernel, dom, 2.0)
        K = wt.k_cells
        assert (dom.n_t, K) == (32, 8)
        rng = np.random.default_rng(13)
        states = [(rng.uniform(-1, 1, dom.shape), *rng.uniform(-1, 1, 2))
                  for _ in range(3)]
        sums = [wt.interaction_sum(*state) for state in states]
        scale = max(np.max(np.abs(S)) for S in sums)
        for ip in range(dom.n_p):
            for it in range(dom.n_t):
                tp, tm = wt.tail_weights((ip, it))
                ref = [tp * fb + tm * fa for _, fb, fa in states]
                for dp in range(-K, K + 1) if dim == 2 else [0]:
                    for dt in range(-K, K + 1):
                        if (dp, dt) == (0, 0):
                            continue
                        try:
                            w = wt.offset_weight((ip, it), dp, dt)
                        except ConfigurationError:
                            continue        # outside the cutoff disc
                        jp, jt = (ip + dp) % dom.n_p, it + dt
                        for k, (u, fb, fa) in enumerate(states):
                            ref[k] += w * (fb if jt < 0 else fa if jt >= dom.n_t
                                           else u[jp, jt])
                for S, r in zip(sums, ref):
                    assert abs(S[ip, it] - r) <= 1e-12 * scale, (ip, it)


class TestWindowEnergies:
    def test_constant_field_zero(self):
        _, dom, wt = axis_setup()
        pot = PotentialSpec(family="quartic")
        rep = wt.window_report(Field.full(dom, 1.0, matching_far=True),
                               PERIOD, pot)
        assert rep.total == 0.0

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("family", ["standard", "modulated"])
    @pytest.mark.parametrize("s", [0.25, 0.75])
    def test_constant_slab_kinetic_in_exactly_zero(self, dim, family, s):
        # no slab pair differs, so the in-slab part is 0, not a rounding
        # residue of the total less the cross part
        wt, _ = strip_setup(dim, family, s)
        for value in (-1.0, 1.0):
            for far in ((1.0, -1.0), (-1.0, 1.0), (1.0, 1.0), (-1.0, -1.0)):
                rep = wt.period_report(
                    Field(wt.domain, np.full(wt.domain.shape, value), *far))
                assert rep.kinetic_in == 0.0, (value, far)

    def test_zero_field_potential_volume(self):
        _, dom, wt = axis_setup(h=0.125, r_cut=1.0)
        pot = PotentialSpec(family="quartic")
        R = 1.5
        rep = wt.window_report(Field(dom, np.zeros(dom.shape)),
                               BallWindow((0.5, 2.0), R), pot)
        assert rep.potential == pytest.approx(math.pi * R * R, rel=0.02)

    def test_decomposition_identity(self):
        _, dom, wt = axis_setup(family="modulated")
        pot = PotentialSpec(family="cosine", Q_modulation=True)
        rng = np.random.default_rng(1)
        fld = Field(dom, rng.uniform(-1, 1, dom.shape))
        for window in (PERIOD, BallWindow((0.5, 2.0), 1.5),
                       BoxWindow(0.0, 1.0, 0.5, 3.5)):
            rep = wt.window_report(fld, window, pot)
            lhs = rep.kinetic_in + rep.kinetic_cross + rep.potential
            assert rep.total == pytest.approx(lhs, rel=1e-12)
            assert min(rep.kinetic_in, rep.kinetic_cross, rep.potential) >= 0

    # an unpadded ball sits on cell corners: its rectangle, 8 window cells
    # plus K = 5 on each side, is 18 cells per axis, already a fast length,
    # so the transform wraps at the rectangle's own size
    @pytest.mark.parametrize("family,s,direction,unpadded", [
        pytest.param(family, s, direction, unpadded,
                     id=f"{family}-{s}-direction{i}"
                     + ("-unpadded" if unpadded else ""))
        for unpadded in (False, True)
        for i, (family, s, direction) in enumerate([
            ("standard", 0.25, (0, 1)),
            ("modulated", 0.25, (0, 1)),
            ("standard", 0.75, (1, 1)),
            ("modulated", 0.6, (1, 1)),
        ])])
    def test_window_matches_brute_force(self, family, s, direction, unpadded):
        tau = 1.0
        d = Direction(direction, tau)
        L = tau * d.norm_p
        h = L / 4
        kernel = KernelSpec(dim=2, s=s, tau=tau, family=family)
        dom = build_domain(tau, d, M=2 * h * 2, h=h, buffer=2 * h)
        wt = build_weights(kernel, dom, 5 * h)
        rng = np.random.default_rng(2)
        fld = Field(dom, rng.uniform(-1, 1, dom.shape))
        center = (2 * h, dom.t_lo + 5 * h) if unpadded else (0.4 * L, 0.7)
        window = BallWindow(center, 3.1 * h)
        if unpadded:
            shape = wt.window_cells(fld, window)[0].shape
            assert shape == (18, 18)
            assert wt._fft_shape(shape) == shape
        rep = wt.window_report(fld, window)
        kin_in, kin_cross = brute_window(wt, fld, window)
        assert rep.kinetic_in == pytest.approx(kin_in, rel=1e-10)
        assert rep.kinetic_cross == pytest.approx(kin_cross, rel=1e-10)

    @pytest.mark.parametrize("family", ["standard", "modulated"])
    def test_windowed_per_K_unpadded(self, family):
        # Per_K's third part pairs E outside the window, which is not
        # window-supported, with the window's cells outside E; the
        # transform is the 18 x 18 rectangle itself
        d = Direction((0, 1), 1.0)
        h = 0.25
        wt = build_weights(KernelSpec(dim=2, s=0.25, family=family),
                           build_domain(1.0, d, M=1.0, h=h, buffer=0.5),
                           5 * h)
        dom = wt.domain
        fld = Field(dom, np.random.default_rng(5).uniform(-1, 1, dom.shape))
        mask = level_mask(fld, 0.0, "above")
        window = BallWindow((2 * h, dom.t_lo + 5 * h), 3.1 * h)
        shape = wt.window_cells(fld, window)[0].shape
        assert wt._fft_shape(shape) == shape == (18, 18)
        res = per_K(wt, mask, window)
        assert res.parts[2] > 0.0
        assert res.per_K == pytest.approx(
            indicator_energy(wt, mask, window) / 4.0, rel=1e-10)
        kin_in, kin_cross = brute_window(wt, mask.indicator_field(), window)
        assert res.per_K == pytest.approx((kin_in + kin_cross) / 4.0,
                                          rel=1e-10)

    @pytest.mark.parametrize("s", [0.25, 0.75])
    def test_window_matches_compensated_sum(self, s):
        # the benchmark's s = 0.75 strip geometry and a ball of radius
        # 6 tau, a rectangle of 169 x 169 cells with K = 48
        tau = 1.0
        dom = build_domain(tau, Direction((0, 1), tau), M=14.0 * tau,
                           h=tau / 6.0, buffer=4.0 * tau)
        wt = build_weights(KernelSpec(dim=2, s=s, tau=tau,
                                      family="modulated"), dom, 8.0 * tau)
        P, T = dom.frame_centers()
        rng = np.random.default_rng(1)
        u = (np.tanh((0.5 * dom.M + 0.8 * np.sin(2 * math.pi * P) - T) / 1.5)
             + 0.05 * rng.standard_normal(dom.shape))
        fld = Field(dom, np.clip(u, -1.0, 1.0))
        window = BallWindow((0.3, 0.5 * dom.M + 0.2), 6.0 * tau)
        assert wt.window_cells(fld, window)[0].shape == (169, 169)
        rep = wt.window_report(fld, window)
        kin_in, kin_cross = compensated_window(wt, fld, window)
        assert rep.kinetic_in == pytest.approx(kin_in, rel=5e-12, abs=0)
        assert rep.kinetic_cross == pytest.approx(kin_cross, rel=5e-12, abs=0)
        if s < 0.5:
            mask = level_mask(fld, 0.0, "above")
            ref = sum(compensated_window(wt, mask.indicator_field(), window))
            assert per_K(wt, mask, window).per_K == pytest.approx(
                ref / 4.0, rel=5e-12, abs=0)

    @settings(max_examples=30)
    @given(s=st.floats(0.05, 0.95),
           direction=st.sampled_from([(0, 1), (1, 1), (1, 2)]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_period_value_reflection_symmetric(self, s, direction, seed):
        # standard kernel, no Q: u(p, t) -> -u(p, M - t) swaps the two
        # phases and the two far half-planes, and leaves F unchanged
        d = Direction(direction, 1.0)
        h = d.norm_p / (2 * d.p_sq)
        dom = build_domain(1.0, d, M=12 * h, h=h, buffer=4 * h)
        wt = build_weights(KernelSpec(dim=2, s=s, tau=1.0), dom, 4 * h)
        pot = PotentialSpec(family="quartic")
        u = np.random.default_rng(seed).uniform(-1, 1, dom.shape)
        F = wt.period_value(Field(dom, u), pot)
        assert wt.period_value(Field(dom, -u[:, ::-1]), pot) == \
            pytest.approx(F, rel=1e-12)

    @settings(max_examples=40)
    @given(family=st.sampled_from(["standard", "modulated"]),
           s=st.floats(0.05, 0.95), seed=st.integers(0, 2 ** 32 - 1),
           p0=st.floats(0.0, 1.0), t0=st.floats(0.0, 2.0),
           radius=st.floats(0.3, 1.5))
    def test_sign_flip_symmetric(self, family, s, seed, p0, t0, radius):
        # u -> -u with both far values negated: the kinetic form sees only
        # differences and the double well is even
        wt, pot = strip_setup(2, family, s)
        fld = random_field(wt.domain, seed)
        neg = Field(wt.domain, -fld.values, -fld.far_below, -fld.far_above)
        for window in (PERIOD, BallWindow((p0, t0), radius)):
            a = asdict(wt.window_report(fld, window, pot))
            b = asdict(wt.window_report(neg, window, pot))
            for key in ("kinetic_in", "kinetic_cross", "potential", "total",
                        "tail_estimate"):
                assert b[key] == pytest.approx(a[key], rel=1e-12), key

    @settings(max_examples=40)
    @given(family=st.sampled_from(["standard", "modulated"]),
           s=st.floats(0.05, 0.95), seed=st.integers(0, 2 ** 32 - 1),
           p0=st.floats(0.0, 1.0), t0=st.floats(-1.0, 3.0),
           radius=st.floats(0.3, 1.5))
    def test_kinetic_parts_nonnegative(self, family, s, seed, p0, t0, radius):
        wt, _ = strip_setup(2, family, s)
        fld = random_field(wt.domain, seed)
        for window in (PERIOD, BallWindow((p0, t0), radius)):
            rep = wt.window_report(fld, window)
            assert rep.kinetic_in >= 0.0 and rep.kinetic_cross >= 0.0

    def test_period_two_paths_agree(self):
        _, dom, wt = axis_setup(family="modulated", M=4.0, h=0.25, B=2.0,
                                r_cut=2.0)
        pot = PotentialSpec(family="quartic", Q_modulation=True)
        t = dom.t_centers()
        fld = Field(dom, np.tile(np.tanh(2.0 - t), (dom.n_p, 1)))
        rep = wt.window_report(fld, PERIOD, pot)
        direct = _direct_period(wt, fld) + wt.period_report(fld, pot).potential
        assert rep.total == pytest.approx(direct, rel=1e-10)

    def test_additivity_of_distant_windows(self):
        _, dom, wt = axis_setup(M=8.0, h=0.25, B=2.0, r_cut=1.0)
        rng = np.random.default_rng(3)
        fld = Field(dom, rng.uniform(-1, 1, dom.shape))
        w1 = BallWindow((0.5, 0.5), 0.6)
        w2 = BallWindow((0.5, 7.5), 0.6)

        class Union:
            def contains(self, P, T):
                return w1.contains(P, T) | w2.contains(P, T)

            def bounds(self):
                return (-0.2, 1.2, -0.2, 8.2)

        rep1 = wt.window_report(fld, w1)
        rep2 = wt.window_report(fld, w2)
        rep12 = wt.window_report(fld, Union())
        assert rep12.kinetic_in == pytest.approx(
            rep1.kinetic_in + rep2.kinetic_in, rel=1e-10)

    def test_window_outside_region_rejected(self):
        _, dom, wt = axis_setup()
        with pytest.raises(WindowError):
            wt.window_report(Field.full(dom, 0.0),
                             BallWindow((0.5, dom.t_hi + 5.0), 1.0))

    def test_epsilon_scales_potential_only(self):
        _, dom, wt = axis_setup()
        pot = PotentialSpec(family="quartic")
        rng = np.random.default_rng(4)
        fld = Field(dom, rng.uniform(-1, 1, dom.shape))
        r1 = wt.window_report(fld, PERIOD, pot)
        r2 = wt.window_report(fld, PERIOD, pot, epsilon=0.5)
        assert r2.kinetic_in == r1.kinetic_in
        assert r2.potential == pytest.approx(
            r1.potential * 0.5 ** (-0.5), rel=1e-12)


def _direct_period(wt, fld):
    """Independent per-period kinetic summation (loops, small domains)."""
    dom = wt.domain
    K = wt.k_cells
    n_p, n_t = dom.shape
    u = fld.values

    def val(ip, it):
        if it < 0:
            return fld.far_below
        if it >= n_t:
            return fld.far_above
        return u[ip % n_p, it]

    acc = 0.0
    for ip in range(n_p):
        for it in range(n_t):
            tp, tm = wt.tail_weights((ip, it))
            acc += ((u[ip, it] - fld.far_below) ** 2 * tp
                    + (u[ip, it] - fld.far_above) ** 2 * tm)
            for dp in range(-K, K + 1):
                for dt in range(-K, K + 1):
                    try:
                        w = wt.offset_weight((ip, it), dp, dt)
                    except ConfigurationError:
                        continue
                    if w == 0.0:
                        continue
                    diff2 = (u[ip, it] - val(ip + dp, it + dt)) ** 2
                    jt = it + dt
                    acc += 0.5 * w * diff2 if 0 <= jt < n_t else w * diff2
    return acc


class TestOperatorAndGradient:
    def test_lk_constant_zero(self):
        _, dom, wt = axis_setup()
        lk = wt.apply_lk(Field.full(dom, 0.3, matching_far=True))
        # zero up to spectral round-off of the correlation path
        assert np.max(np.abs(lk)) < 1e-11

    def test_lk_odd_symmetry_center(self):
        # symmetric strip, profile odd about a cell center
        kernel = KernelSpec(dim=2, s=0.25)
        dom = build_domain(1.0, Direction((0, 1), 1.0), M=4.25, h=0.25,
                           buffer=2.0)
        wt = build_weights(kernel, dom, 2.0)
        t = dom.t_centers()
        t0 = 0.5 * (dom.t_lo + dom.t_hi)
        assert np.min(np.abs(t - t0)) < 1e-12  # center is a cell center
        fld = Field(dom, np.tile(np.tanh(t0 - t), (dom.n_p, 1)))
        ic = int(np.argmin(np.abs(t - t0)))
        assert abs(wt.apply_lk(fld)[0, ic]) < 1e-10

    def test_lk_matches_refined_quadrature(self):
        # u = cos(2 pi x1) along the period, +-1 far field, s = 0.25
        kernel = KernelSpec(dim=2, s=0.25)
        h = 1.0 / 32.0
        dom = build_domain(1.0, Direction((0, 1), 1.0), M=4.0, h=h, buffer=2.0)
        wt = build_weights(kernel, dom, 2.0)
        P, T = dom.frame_centers()
        fld = Field(dom, np.cos(2 * math.pi * P))
        probe = (3, dom.n_t // 2)
        mine = wt.apply_lk(fld)[probe]

        # oracle: 4x refined midpoint summation of the same strip function
        # plus the analytic singular-core correction and far tails
        s = kernel.s
        hf = h / 4
        x0 = np.array([(probe[0] + 0.5) * h, dom.t_lo + (probe[1] + 0.5) * h])
        u0 = math.cos(2 * math.pi * x0[0])
        span = wt.r_cut
        g = np.arange(-span, span, hf) + hf / 2
        X, Y = np.meshgrid(x0[0] + g, x0[1] + g, indexing="ij")
        D = np.hypot(X - x0[0], Y - x0[1])
        UY = np.where(Y < dom.t_lo, 1.0,
                      np.where(Y >= dom.t_hi, -1.0, np.cos(2 * math.pi * X)))
        core = D < hf
        vals = np.where(core, 0.0, (u0 - UY) * D ** (-2 - 2 * s)) * hf * hf
        ring = D <= span
        oracle = float(vals[ring].sum())
        # singular core: (u0-u(y)) ~ -(1/4) lap(u)(x0) |z|^2 on average
        lap = -(2 * math.pi) ** 2 * u0
        oracle += -lap / 4.0 * 2 * math.pi * hf ** (2 - 2 * s) / (2 - 2 * s)
        tp, tm = wt.tail_weights(probe)
        oracle += ((u0 - 1.0) * tp + (u0 + 1.0) * tm) / dom.cell_volume
        assert mine == pytest.approx(oracle, rel=0.03)

    @pytest.mark.parametrize("family,pf,eps", [
        ("standard", "quartic", None),
        ("modulated", "power_d", None),
        ("standard", "cosine", 0.5),
        ("modulated", "cosine_sq", 0.25),
    ])
    def test_gradient_matches_finite_differences(self, family, pf, eps):
        _, dom, wt = axis_setup(family=family)
        pot = PotentialSpec(family=pf, Q_modulation=True)
        rng = np.random.default_rng(5)
        u = rng.uniform(-0.8, 0.8, dom.shape)
        fld = Field(dom, u)
        grad = wt.gradient(fld, pot, eps)
        step = 1e-6
        for _ in range(20):
            i = (int(rng.integers(0, dom.n_p)), int(rng.integers(0, dom.n_t)))
            up = u.copy()
            up[i] += step
            um = u.copy()
            um[i] -= step
            fd = (wt.period_value(Field(dom, up), pot, eps)
                  - wt.period_value(Field(dom, um), pot, eps)) / (2 * step)
            assert grad[i] == pytest.approx(fd, rel=1e-6)

    @settings(max_examples=30)
    @given(dim=st.sampled_from([1, 2]),
           family=st.sampled_from(["standard", "modulated"]),
           s=st.floats(0.05, 0.95), eps=st.none() | st.floats(0.25, 1.0),
           far=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_descent_driver_is_period_report(self, dim, family, s, eps, far,
                                             seed):
        # at every accepted iterate, the solver driver's gradient is
        # `gradient`'s bitwise and its anchored value the period value, to
        # the rounding of the start energy F0 that it carries (F may fall
        # to 0 from there); the gradient matches centred differences of the
        # period value
        wt, pot = strip_setup(dim, family, s)
        shape = wt.domain.shape
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-0.8, 0.8, shape).ravel()

        def field(x):
            return Field(wt.domain, x.reshape(shape), *far)

        F0, seen = wt.period_value(field(x0), pot, eps), []
        minimize._descend(
            lambda x: wt._kinetic(x.reshape(shape), *far)[0].ravel(),
            wt._potential_weights(pot, eps).ravel(), pot, x0, F0,
            optimize.Bounds(-1.0, 1.0), {"maxiter": 5},
            lambda x, F, grad: seen.append((x.copy(), F, grad)))
        assert seen
        for x, F, grad in seen:
            assert np.array_equal(grad, wt.gradient(field(x), pot, eps).ravel())
            assert F == pytest.approx(wt.period_value(field(x), pot, eps),
                                      rel=1e-13, abs=1e-13 * abs(F0))
        grad, step = wt.gradient(field(x0), pot, eps).ravel(), 1e-6
        for k in rng.choice(x0.size, 5, replace=False):
            e = np.zeros(x0.size)
            e[k] = step
            fd = (wt.period_value(field(x0 + e), pot, eps)
                  - wt.period_value(field(x0 - e), pot, eps)) / (2 * step)
            assert fd == pytest.approx(
                grad[k], rel=1e-6, abs=1e-6 * np.max(np.abs(grad)))

    def test_gradient_zero_at_matching_well(self):
        _, dom, wt = axis_setup()
        pot = PotentialSpec(family="quartic")
        g = wt.gradient(Field.full(dom, 1.0, matching_far=True), pot)
        assert np.max(np.abs(g)) == 0.0

    def test_kinetic_response_linearity(self):
        _, dom, wt = axis_setup()
        rng = np.random.default_rng(6)
        u = rng.uniform(-0.5, 0.5, dom.shape)
        base = wt.gradient(Field(dom, u), potential=None)
        pert = np.zeros(dom.shape)
        pert[2, 10] = 0.01
        g1 = wt.gradient(Field(dom, u + pert), potential=None) - base
        g2 = wt.gradient(Field(dom, u + 2 * pert), potential=None) - base
        assert np.allclose(g2, 2 * g1, rtol=1e-9, atol=1e-14)


class TestRescale:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("family", ["standard", "modulated"])
    @settings(max_examples=10)
    @given(s=st.floats(0.05, 0.95), eps=st.floats(0.03, 1.0),
           seed=st.integers(0, 2 ** 32 - 1),
           far=st.one_of(st.just((1.0, -1.0)),
                         st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))))
    @example(s=0.3, eps=0.5, seed=0, far=(1.0, -1.0))
    @example(s=0.7, eps=0.25, seed=1, far=(0.3, 0.3))
    @example(s=0.5, eps=0.125, seed=0, far=(1.0, -1.0))
    def test_period_report_scales(self, dim, family, s, eps, seed, far):
        # F_eps(u(./eps)) = eps^(n - 2s) F(u) part by part, on the table and
        # potential built at tau = eps
        wt, pot = strip_setup(dim, family, s)
        fld = random_field(wt.domain, seed, far)
        wt_eps, pot_eps = strip_setup(dim, family, s, tau=eps)
        scaled = Field(wt_eps.domain, fld.values, fld.far_below,
                       fld.far_above)
        a = asdict(wt.period_report(fld, pot))
        b = asdict(wt_eps.period_report(scaled, pot_eps, eps))
        for key in ("kinetic_in", "kinetic_cross", "potential", "total",
                    "tail_estimate"):
            assert b[key] == pytest.approx(eps ** (dim - 2 * s) * a[key],
                                           rel=1e-12), key


class TestOneDimensional:
    def test_unit_integrals_match_quad(self):
        for s in (0.25, 0.6):
            for d in (0, 1, 2, 4):
                core = CORE if (d == 0 or (d <= 1 and s >= 0.5)) else 0.0
                q = 1 + 2 * s

                def f(z):
                    if core and abs(z) < core:
                        return 0.0
                    return abs(z) ** (-q) * max(1 - abs(z - d), 0.0)

                ref, _ = integrate.quad(f, d - 1, d + 1, points=[d],
                                        limit=200)
                assert unit_pair_integral(1, s, d) == pytest.approx(
                    ref, rel=1e-8)

    def test_line_energy_runs(self):
        kernel = KernelSpec(dim=1, s=0.25, tau=1.0)
        dom = build_domain(1.0, Direction((1,), 1.0), M=4.0, h=0.25,
                           buffer=2.0)
        wt = build_weights(kernel, dom, 2.0)
        pot = PotentialSpec(family="quartic")
        t = dom.t_centers()
        fld = Field(dom, np.tanh(2.0 - t)[None, :])
        rep = wt.window_report(fld, PERIOD, pot)
        assert rep.total > 0 and rep.kinetic_in > 0
        g = wt.gradient(fld, pot)
        step = 1e-6
        up = fld.values.copy()
        up[0, 8] += step
        um = fld.values.copy()
        um[0, 8] -= step
        fd = (wt.period_value(Field(dom, up), pot)
              - wt.period_value(Field(dom, um), pot)) / (2 * step)
        assert g[0, 8] == pytest.approx(fd, rel=1e-6)
