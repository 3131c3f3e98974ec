"""Acceptance suite: one test (or parametrized family) per criterion.

Every criterion prints a PASS/FAIL line (run with ``pytest -v -s``); the
tolerances are pinned here, not tuned at runtime.  Each criterion runs at
desk scale on the configurations calibrated in the study scripts; the
constrained solves are shared through session fixtures.

Known honest failures (see the decisions ledger for the analysis): at the
prescribed tau in {1, 2, 4}, levels at 0.9, the strongly nonlocal runs
cannot simultaneously detach from the upper constraint (s = 0.25: the
0.9-level tails decay like t^(-2s), crossing only at t ~ hundreds of tau)
and keep width/tau stable (s in {0.5, 0.75}: the layer width has a
tau-independent intrinsic component ~ 10 world units that dominates at
small tau).  The corresponding sub-assertions are implemented faithfully
and left red.
"""

import math

import numpy as np
import pytest
from scipy import integrate, ndimage

from nlphase import cli, minimize, perimeter
from nlphase.barrier import build_barrier, barrier_slide_test, verify_barrier
from nlphase.cli import fit_exponent
from nlphase.energy import (BallWindow, PERIOD, build_weights,
                            unit_pair_integral, pair_core_exclusion)
from nlphase.geometry import (SetMask, boundary_cube_family, ball_count,
                              grid_boundary_count, interface_height,
                              interface_width, level_mask)
from nlphase.lattice import Direction, Field, StripDomain
from nlphase.minimize import (Constraints, check_birkhoff, check_class_A,
                              minimize_strip)
from nlphase.model import KernelSpec, PotentialSpec
from nlphase.perimeter import (gamma_sweep, indicator_energy,
                               minimal_surface_extract, per_K,
                               surface_local_min_check)

SEED = 20260808

TOL = {
    "quadrature_rel": 0.02,        # criterion 1
    "decomposition_rel": 1e-12,    # criterion 2
    "perkchi_rel": 1e-10,          # criterion 2
    "m0_spread": 0.25,             # criterion 3
    "classA_rel": 1e-8,            # criterion 5
    "density_floor": 0.02,         # criteria 6, 12
    "flip_rel": 1e-10,             # criterion 12
    "interface_thickness": 10.0,   # criterion 7
    "exponent_abs": 0.15,          # criterion 8
    "log_ratio_spread": 3.0,       # criterion 8, s = 1/2
    "barrier_operator": 1.05,      # criterion 9
    "slide_rel": -1e-8,            # criterion 9
    "cstar_floor": 0.0,            # criterion 10
    "gamma_recovery": 1e-10,       # criterion 11
    "gamma_trend_slack": 1.10,     # criterion 11
    "gradient_rel": 1e-6,          # criterion 13
}


def test_verdict_bounds_are_the_acceptance_bounds():
    # the library judges its verdicts by constants; they are the bounds the
    # criteria below are pinned to
    assert minimize.CLASS_A_REL == TOL["classA_rel"]
    assert perimeter.DENSITY_FLOOR == TOL["density_floor"]
    assert perimeter.FLIP_REL == TOL["flip_rel"]
    assert cli.M0_SPREAD == TOL["m0_spread"]


def _report(num, name, passed, detail=""):
    mark = "PASS" if passed else "FAIL"
    print(f"[criterion {num:>2}] {mark}  {name}" + (f"  ({detail})" if detail else ""))


def _strip(s, tau, Mf, cpt, dirn=(0, 1), Bf=4.0):
    d = Direction(dirn, tau)
    n_p = cpt * d.p_sq if d.dim == 2 else cpt
    h = tau * d.norm_p / n_p if d.dim == 2 else tau / cpt
    M = round(Mf * tau / h) * h
    B = round(Bf * tau / h) * h
    return StripDomain(tau=tau, direction=d, M=M, h=h, buffer=B)


def _solve(s, tau, Mf, cpt, dirn=(0, 1), eps=None, r_cut=None, theta=0.9):
    kernel = KernelSpec(dim=2, s=s, tau=tau, family="modulated")
    potential = PotentialSpec(family="quartic", tau=tau, Q_modulation=True,
                              epsilon=eps)
    domain = _strip(s, tau, Mf, cpt, dirn)
    weights = build_weights(kernel, domain,
                            8.0 * tau if r_cut is None else r_cut)
    result = minimize_strip(weights, potential, Constraints(theta))
    return dict(kernel=kernel, potential=potential, domain=domain,
                weights=weights, result=result)


# ---------------------------------------------------------------------------
# shared solves

PLANE_MF = {0.25: 32.0, 0.5: 16.0, 0.75: 14.0}
PLANE_TAUS = (1.0, 2.0, 4.0)
PLANE_DIRS = ((0, 1), (1, 1))


@pytest.fixture(scope="session")
def planelike_runs():
    out = {}
    for s, Mf in PLANE_MF.items():
        for dirn in PLANE_DIRS:
            for tau in PLANE_TAUS:
                run = _solve(s, tau, Mf, cpt=6, dirn=dirn)
                dom = run["domain"]
                u = run["result"].field.values
                t = dom.t_centers()
                cols = np.any(np.abs(u) < 0.9, axis=0)
                band = ((float(t[cols].min()), float(t[cols].max()))
                        if cols.any() else (0.0, 0.0))
                run["band"] = band
                run["width"] = interface_width(run["result"].field, 0.9)
                run["birkhoff"] = check_birkhoff(run["result"].field)
                out[(s, dirn, tau)] = run
    return out


SCALING_CFG = {
    0.25: dict(Mf=24.0, cpt=8, eps=1.0 / 32.0, radii=(2, 3, 4, 5, 6, 8),
               r_cut=17.6),
    0.5: dict(Mf=24.0, cpt=8, eps=0.25, radii=(2, 3, 4, 5, 6, 8),
              r_cut=17.6),
    0.75: dict(Mf=30.0, cpt=6, eps=0.5, radii=(4, 6, 8, 10, 12),
               r_cut=26.4),
}


@pytest.fixture(scope="session")
def scaling_runs():
    out = {}
    for s, cfg in SCALING_CFG.items():
        run = _solve(s, 1.0, cfg["Mf"], cfg["cpt"], eps=cfg["eps"],
                     r_cut=cfg["r_cut"])
        dom = run["domain"]
        # centred at the interface height, as the scaling pipeline does
        run["center"] = (0.5 * dom.n_p * dom.h,
                         interface_height(run["result"].field))
        run["radii"] = cfg["radii"]
        reports = []
        for R in cfg["radii"]:
            reports.append(run["weights"].window_report(
                run["result"].field, BallWindow(run["center"], R),
                run["potential"]))
        run["reports"] = reports
        out[s] = run
    return out


@pytest.fixture(scope="session")
def gamma_run():
    kernel = KernelSpec(dim=2, s=0.25, tau=1.0, family="modulated")
    potential = PotentialSpec(family="quartic", tau=1.0, Q_modulation=True)
    domain = _strip(0.25, 1.0, 8.0, 6)
    weights = build_weights(kernel, domain, 8.0)
    sweep = gamma_sweep(weights, potential, Constraints(0.9),
                        [1.0, 0.5, 0.25, 0.125])
    m0_ref = interface_width(sweep["records"][0]["field"], 0.9) / domain.tau
    extract = minimal_surface_extract(sweep, m0_ref=m0_ref,
                                      density_radii=[2.0, 3.0])
    flips = surface_local_min_check(weights, extract["mask"],
                                    trials=30, seed=SEED)
    return dict(sweep=sweep, extract=extract, flips=flips, m0_ref=m0_ref)


# ---------------------------------------------------------------------------
# criterion 1: quadrature oracle equivalence


def _oracle_pair(s, d1, d2):
    q = 2.0 + 2.0 * s
    core = pair_core_exclusion(2, s, d1, d2)

    def f(z2, z1):
        r2 = z1 * z1 + z2 * z2
        if core and r2 < core * core:
            return 0.0
        return (r2 ** (-q / 2.0) * max(1 - abs(z1 - d1), 0.0)
                * max(1 - abs(z2 - d2), 0.0))

    val, _ = integrate.dblquad(f, d1 - 1, d1 + 1, d2 - 1, d2 + 1,
                               epsabs=1e-11, epsrel=1e-9)
    return val


@pytest.mark.filterwarnings("ignore")
def test_criterion_01_quadrature_oracle():
    rng = np.random.default_rng(SEED)
    near = [(0, 0), (1, 0), (1, 1), (2, 1), (0, 2)]
    worst = 0.0
    for s in (0.25, 0.75):
        offsets = list(near)
        while len(offsets) < 10:
            cand = (int(rng.integers(0, 13)), int(rng.integers(0, 13)))
            if math.hypot(*cand) > 2 and cand not in offsets:
                offsets.append(cand)
        for d1, d2 in offsets:
            mine = unit_pair_integral(2, s, d1, d2)
            ref = _oracle_pair(s, d1, d2)
            worst = max(worst, abs(mine - ref) / abs(ref))
    ok = worst <= TOL["quadrature_rel"]
    _report(1, "pair weights vs adaptive quadrature oracle", ok,
            f"worst rel dev {worst:.2e}")
    assert ok


# criterion 2: energy decomposition and indicator identity


def test_criterion_02_decomposition_and_indicator_identity():
    kernel = KernelSpec(dim=2, s=0.25, tau=1.0, family="modulated")
    potential = PotentialSpec(family="quartic", tau=1.0, Q_modulation=True)
    domain = _strip(0.25, 1.0, 4.0, 4, Bf=2.0)
    weights = build_weights(kernel, domain, 2.0)
    rng = np.random.default_rng(SEED)
    worst_dec = worst_chi = 0.0
    for _ in range(10):
        mask = SetMask(domain, rng.random(domain.shape) < 0.5, True, False)
        fld = Field(domain, rng.uniform(-1, 1, domain.shape))
        rep = weights.window_report(fld, PERIOD, potential)
        dec = abs(rep.total - (rep.kinetic_in + rep.kinetic_cross
                               + rep.potential)) / abs(rep.total)
        worst_dec = max(worst_dec, dec)
        lhs = per_K(weights, mask, PERIOD).per_K
        rhs = indicator_energy(weights, mask, PERIOD) / 4.0
        worst_chi = max(worst_chi, abs(lhs - rhs) / abs(rhs))
    ok = (worst_dec <= TOL["decomposition_rel"]
          and worst_chi <= TOL["perkchi_rel"])
    _report(2, "decomposition exact; Per_K = kinetic(indicator)/4", ok,
            f"decomp {worst_dec:.2e}, identity {worst_chi:.2e}")
    assert worst_dec <= TOL["decomposition_rel"]
    assert worst_chi <= TOL["perkchi_rel"]


# criterion 3: planelike width structure


@pytest.mark.parametrize("s", sorted(PLANE_MF))
def test_criterion_03a_band_inside_strip(planelike_runs, s):
    bad = []
    for (ss, dirn, tau), run in planelike_runs.items():
        if ss != s:
            continue
        lo, hi = run["band"]
        if not (lo >= 0.0 and hi <= run["domain"].M):
            bad.append((dirn, tau, run["band"]))
    _report(3, f"s={s}: band {{|u|<0.9}} strictly inside [0, M]", not bad,
            str(bad) if bad else "all 6 runs")
    assert not bad


@pytest.mark.parametrize("s", sorted(PLANE_MF))
def test_criterion_03b_upper_distance(planelike_runs, s):
    rows = []
    for (ss, dirn, tau), run in planelike_runs.items():
        if ss != s:
            continue
        dist = run["domain"].M - run["band"][1]
        rows.append((dirn, tau, dist, dist >= tau))
    ok = all(r[3] for r in rows)
    _report(3, f"s={s}: band at distance >= tau below the upper constraint",
            ok, "; ".join(f"{d}@tau={t:g}: {v:.2f}" for d, t, v, _ in rows))
    assert ok


@pytest.mark.parametrize("s", sorted(PLANE_MF))
def test_criterion_03c_width_constant_spread(planelike_runs, s):
    msgs = []
    ok = True
    for dirn in PLANE_DIRS:
        m0s = [planelike_runs[(s, dirn, tau)]["width"] / tau
               for tau in PLANE_TAUS]
        mid = 0.5 * (max(m0s) + min(m0s))
        spread = (max(m0s) - mid) / mid
        ok &= spread <= TOL["m0_spread"]
        msgs.append(f"{dirn}: M0={['%.2f' % v for v in m0s]} "
                    f"spread ±{100 * spread:.0f}%")
    _report(3, f"s={s}: M0_emp = width/tau stable within ±25% over tau",
            ok, "; ".join(msgs))
    assert ok


# criterion 4: Birkhoff certificate


def test_criterion_04_birkhoff(planelike_runs):
    worst = 0
    for run in planelike_runs.values():
        worst = max(worst, run["birkhoff"]["worst_cells"])
    ok = worst == 0
    _report(4, "zero Birkhoff violations at levels {0, ±0.5, ±0.9}", ok,
            f"worst violating cells {worst} over {len(planelike_runs)} runs")
    assert ok


# criterion 5: class-A surrogate


def test_criterion_05_class_A(planelike_runs):
    run = planelike_runs[(0.5, (0, 1), 1.0)]
    rep = check_class_A(run["weights"], run["potential"],
                        run["result"].field, trials=50, seed=SEED)
    _report(5, "50 frozen-boundary ball re-solves improve F by <= 1e-8 |F|",
            rep["passed"],
            f"max improvement {rep['max_improvement']:.2e}, "
            f"tolerance {rep['tolerance']:.2e}")
    assert rep["passed"]


# criteria 6 and 7: density and interface measure


def test_criterion_06_density_estimates(scaling_runs):
    worst = math.inf
    for s, run in scaling_runs.items():
        fld = run["result"].field
        vol = fld.domain.cell_volume
        for mask in (level_mask(fld, 0.5, "above"),
                     level_mask(fld, -0.5, "below")):
            for R in np.arange(4.0, 12.5, 2.0):
                ratio = ball_count(mask, run["center"], R) * vol / R ** 2
                worst = min(worst, ratio)
    ok = worst >= TOL["density_floor"]
    _report(6, "phase densities >= 0.02 R^n on R in [4, 12] tau", ok,
            f"worst ratio {worst:.3f}")
    assert ok


def test_criterion_07_interface_measure(scaling_runs):
    lows, highs = [], []
    thick_ok = True
    for s, run in scaling_runs.items():
        fld = run["result"].field
        dom = fld.domain
        band = level_mask(fld, 0.9, "band")
        vals = [ball_count(band, run["center"], R) * dom.cell_volume / R
                for R in np.arange(4.0, 12.5, 2.0)]
        lows.append(min(vals))
        highs.append(max(vals))
        if s == 0.75:
            layers = np.count_nonzero(band.inside) / dom.n_p
            thick_ok = max(vals) <= TOL["interface_thickness"] * layers * dom.h
    ok = min(lows) > 0.0 and all(np.isfinite(highs)) and thick_ok
    _report(7, "interface measure within [c, C] R^(n-1); thin at s=0.75", ok,
            f"c_emp {min(lows):.3f}, C_emp {max(highs):.3f}, "
            f"s=0.75 codim-1 bound {'ok' if thick_ok else 'violated'}")
    assert min(lows) > 0.0
    assert thick_ok


# criterion 8: two-sided energy scaling


def test_criterion_08_energy_scaling(scaling_runs):
    msgs = []
    ok = True
    for s, run in scaling_runs.items():
        pairs = [(R, rep.kinetic_in + rep.potential)
                 for R, rep in zip(run["radii"], run["reports"])]
        if s == 0.5:
            ratios = [v / (R * math.log(R)) for R, v in pairs]
            spread = max(ratios) / min(ratios)
            ok &= spread <= TOL["log_ratio_spread"]
            msgs.append(f"s=0.5 log-ratio spread x{spread:.2f}")
        else:
            target = 2.0 - 2.0 * s if s < 0.5 else 1.0
            expo, _, resid = fit_exponent(pairs)
            ok &= abs(expo - target) <= TOL["exponent_abs"]
            msgs.append(f"s={s}: exponent {expo:.3f} (target {target:g})")
    _report(8, "interior energy scales like R^(n-1) Psi_s(R)", ok,
            "; ".join(msgs))
    assert ok


# criterion 9: barrier verification and slide test


@pytest.fixture(scope="session")
def barrier_quarter():
    kernel = KernelSpec(dim=2, s=0.25, tau=1.0)
    probe = build_barrier(kernel, R=1e9, delta=0.1)
    return kernel, build_barrier(kernel, R=2.0 * probe.R0, delta=0.1)


def test_criterion_09_barrier(barrier_quarter, scaling_runs):
    kernel, bar = barrier_quarter
    ver = verify_barrier(kernel, bar, n_samples=200, seed=SEED)
    op_ok = ver["worst_LKw_ratio"] <= TOL["barrier_operator"]
    env_ok = (ver["worst_lower_C"] >= 1.0 - 1e-9
              and ver["worst_upper_C"] <= 1.0 + 1e-9)

    run = scaling_runs[0.75]
    k75 = run["kernel"]
    std75 = KernelSpec(dim=2, s=0.75, tau=1.0)
    probe = build_barrier(std75, R=1e6, delta=1.0)
    sbar = build_barrier(std75, R=18.0, delta=probe.c3 * 1.05)
    dom = run["domain"]
    t0 = min(max(interface_height(run["result"].field) + 0.5 * sbar.R,
                 dom.t_lo + sbar.R + dom.h),
             dom.t_hi - sbar.R - dom.h)
    slide = barrier_slide_test(run["weights"], run["potential"],
                               run["result"].field, sbar,
                               (0.5 * dom.n_p * dom.h, t0))
    slide_ok = slide["relative_defect"] >= TOL["slide_rel"]
    ok = op_ok and env_ok and slide_ok
    _report(9, "|L_K w| <= 1.05 d(1+w); envelope bounds; slide defect >= 0",
            ok, f"op ratio {ver['worst_LKw_ratio']:.3f}, "
                f"slide defect {slide['relative_defect']:.2e}")
    assert op_ok and env_ok and slide_ok


# criterion 10: grid boundary counting


def _random_dense_mask(domain, rng, cube, c_sharp):
    corner, r = cube
    cells = int(r / domain.h)
    for _ in range(50):
        noise = rng.normal(size=domain.shape)
        smooth = ndimage.gaussian_filter(noise, 3.0, mode="wrap")
        mask = SetMask(domain, smooth > np.median(smooth), True, False)
        it0 = int((corner[1] - domain.t_lo) / domain.h)
        ip0 = int(corner[0] / domain.h)
        sub = mask.inside[ip0:ip0 + cells, it0:it0 + cells]
        frac = sub.mean() * r ** 2
        if min(frac, r ** 2 - frac) >= c_sharp * r ** 2:
            return mask
    raise RuntimeError("mask generation failed")


def test_criterion_10_grid_boundary_counting():
    tau = 1.0
    d = Direction((0, 1), tau)
    domain = StripDomain(tau=tau, direction=d, M=8.0, h=0.125, buffer=0.5)
    cube = ((0.0, 0.0), 8.0)
    rng = np.random.default_rng(SEED)
    ratios = []
    thin_ok = True
    for trial in range(100):
        mask = _random_dense_mask(domain, rng, cube, 0.25)
        for k in (4, 8, 16):
            count = grid_boundary_count(mask, cube, k)
            ratios.append(count / k)
            if trial % 10 == 0 and k == 8:
                fam = boundary_cube_family(mask, cube, k)
                thin_ok &= len(fam) >= max(count // 9, 1)
    c_star = min(ratios)
    ok = c_star > TOL["cstar_floor"] and thin_ok
    _report(10, "single c* > 0 certifies count >= c* k^(n-1); 1/9 thinning",
            ok, f"c*_emp {c_star:.3f} over 100 masks, k in {{4,8,16}}")
    assert ok


# criteria 11 and 12: sharp-interface limit


def test_criterion_11_gamma_trend(gamma_run):
    sweep = gamma_run["sweep"]
    gaps = sweep["liminf_gaps"]
    trend = all(b <= a * TOL["gamma_trend_slack"]
                for a, b in zip(gaps, gaps[1:]))
    rec_ok = sweep["recovery_identity_gap"] <= TOL["gamma_recovery"]
    sym_ok = sweep["sym_diff_nonincreasing"]
    ok = trend and rec_ok and sym_ok
    _report(11, "recovery identity exact; |E_eps - G| and sym-diff trends",
            ok, f"recovery {sweep['recovery_identity_gap']:.1e}, "
                f"gaps {[round(g, 2) for g in gaps]}")
    assert rec_ok
    assert trend
    assert sym_ok


def test_criterion_12_planelike_minimal_surface(gamma_run):
    ex = gamma_run["extract"]
    fl = gamma_run["flips"]
    dens_vals = [min(r["inside"], r["outside"]) for r in ex["density_rows"]]
    ok = (ex["inclusion_lower"] and ex["inclusion_upper"] and ex["periodic"]
          and min(dens_vals) >= TOL["density_floor"] and fl["passed"])
    _report(12, "limit set: inclusions, density >= 0.02, periodic, no flip",
            ok, f"m0_emp {ex['m0_emp']:.2f} (ref {gamma_run['m0_ref']:.2f}), "
                f"worst density {min(dens_vals):.3f}, "
                f"flip gain {fl['max_improvement']:.1e}")
    assert ex["inclusion_lower"] and ex["inclusion_upper"]
    assert ex["periodic"]
    assert min(dens_vals) >= TOL["density_floor"]
    assert fl["passed"]


# criterion 13: gradient correctness


def test_criterion_13_gradient_correctness():
    rng = np.random.default_rng(SEED)
    combos = [("standard", False, None), ("standard", False, 1.0),
              ("modulated", True, None), ("modulated", True, 0.5),
              ("modulated", True, 0.25), ("modulated", True, 0.125),
              ("modulated", True, 1.0 / 32.0), ("standard", True, 0.25)]
    worst = 0.0
    for family, qmod, eps in combos:
        kernel = KernelSpec(dim=2, s=0.25, tau=1.0, family=family)
        potential = PotentialSpec(family="quartic", tau=1.0,
                                  Q_modulation=qmod, epsilon=eps)
        domain = _strip(0.25, 1.0, 4.0, 4, Bf=2.0)
        weights = build_weights(kernel, domain, 2.0)
        u = rng.uniform(-0.8, 0.8, domain.shape)
        grad = weights.gradient(Field(domain, u), potential)
        step = 1e-5  # keeps the round-off share of the quotient below 1e-7
        for _ in range(100):
            i = (int(rng.integers(0, domain.n_p)),
                 int(rng.integers(0, domain.n_t)))
            up = u.copy()
            up[i] += step
            um = u.copy()
            um[i] -= step
            fd = (weights.period_value(Field(domain, up), potential)
                  - weights.period_value(Field(domain, um), potential)
                  ) / (2 * step)
            worst = max(worst, abs(grad[i] - fd) / max(abs(fd), 1e-12))
    ok = worst <= TOL["gradient_rel"]
    _report(13, "gradient matches centered differences at 100 random cells",
            ok, f"worst rel dev {worst:.2e} over {len(combos)} configurations")
    assert ok
