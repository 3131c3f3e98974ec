"""Experiment orchestration: configs, pipelines, reports, command line.

A single JSON configuration file drives every experiment.  Unknown keys
are rejected, cross-field constraints are validated against named
hypothesis tags, and all randomized checks draw from one recorded 64-bit
seed, so reruns with the same configuration are bit-identical.

Pipelines
---------
``planelike``  constrained strip solve + certificates; emits the measured
               width constant M0_emp = width / tau.
``scaling``    energy-in-balls radius sweep and log-log exponent fit.
``barrier``    barrier assembly, operator/envelope verification, slide test.
``gamma``      sharp-interface epsilon sweep, limit-set extraction, flip
               stability.
``perimeter``  K-perimeter of a reference set, identity and monotonicity.
``validate``   structure-hypothesis checks only.

Exit codes: 0 all enabled checks pass, 1 runtime failure or failed checks,
2 configuration/hypothesis rejection.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dfield
from pathlib import Path

import numpy as np

from . import barrier as barrier_mod
from . import energy as energy_mod
from . import geometry as geom
from . import minimize as min_mod
from . import perimeter as per_mod
from .lattice import Direction, StripDomain
from .model import KernelSpec, PotentialSpec, validate_hypotheses


class ConfigError(ValueError):
    def __init__(self, message, tag="config"):
        super().__init__(message)
        self.tag = tag


SCHEMA_VERSION = 1

_SECTIONS = {
    "schema_version", "kernel", "potential", "geometry", "solver",
    "experiment", "tolerances", "output", "seed",
}
_KERNEL_KEYS = {"dim", "s", "family", "nu", "gamma_reg"}
_POTENTIAL_KEYS = {"family", "d", "kappa", "Q_modulation"}
_GEOMETRY_KEYS = {"tau", "direction", "M", "M_factor", "h", "cells_per_tau",
                  "buffer", "buffer_factor", "r_cut", "r_cut_factor"}
_SOLVER_KEYS = {"max_iters", "grad_tol", "rel_decrease_tol", "theta", "theta0",
                "epsilon"}
_EXPERIMENT_KEYS = {"kind", "radii", "tau_list", "eps_list", "directions",
                    "levels", "trials", "radius_range", "barrier_R",
                    "barrier_delta", "reference_set_level", "density_floor",
                    "m0_spread"}
_TOLERANCE_KEYS = {"decomposition_rel", "identity_rel", "gradient_rel",
                   "classA_rel", "flip_rel"}


def _check_keys(section: dict, allowed: set, name: str):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")


@dataclass
class ExperimentConfig:
    kernel: dict
    potential: dict
    geometry: dict
    solver: dict
    experiment: dict
    tolerances: dict
    output: str = "out"
    seed: int = 20240808

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _check_keys(raw, _SECTIONS, "configuration")
        if raw.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version must be {SCHEMA_VERSION}, "
                f"got {raw.get('schema_version')!r}")
        for name, allowed in (("kernel", _KERNEL_KEYS),
                              ("potential", _POTENTIAL_KEYS),
                              ("geometry", _GEOMETRY_KEYS),
                              ("solver", _SOLVER_KEYS),
                              ("experiment", _EXPERIMENT_KEYS),
                              ("tolerances", _TOLERANCE_KEYS)):
            _check_keys(raw.get(name, {}), allowed, name)
        cfg = cls(kernel=dict(raw.get("kernel", {})),
                  potential=dict(raw.get("potential", {})),
                  geometry=dict(raw.get("geometry", {})),
                  solver=dict(raw.get("solver", {})),
                  experiment=dict(raw.get("experiment", {})),
                  tolerances=dict(raw.get("tolerances", {})),
                  output=raw.get("output", "out"),
                  seed=int(raw.get("seed", 20240808)))
        cfg.validate_cross_fields()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    # -- derived objects ---------------------------------------------------

    def validate_cross_fields(self):
        kind = self.experiment.get("kind")
        s = float(self.kernel.get("s", 0.25))
        tau = float(self.geometry.get("tau", 1.0))
        if kind in ("gamma", "perimeter") and s >= 0.5:
            raise ConfigError(
                f"experiment {kind!r} requires the strongly nonlocal regime",
                tag="s<1/2")
        if kind == "planelike" and tau < 1.0:
            raise ConfigError("planelike runs require tau >= 1", tag="xi=tau")
        eps = self.solver.get("epsilon")
        if eps is not None and not 0.0 < float(eps) <= tau:
            raise ConfigError("epsilon must lie in (0, tau]", tag="eps<=tau")
        for e in self.experiment.get("eps_list", []) or []:
            if not 0.0 < float(e) <= tau:
                raise ConfigError("eps_list values must lie in (0, tau]",
                                  tag="eps<=tau")

    def kernel_spec(self, tau=None) -> KernelSpec:
        k = dict(self.kernel)
        tau = float(self.geometry.get("tau", 1.0)) if tau is None else tau
        return KernelSpec(dim=int(k.get("dim", 2)), s=float(k.get("s", 0.25)),
                          tau=tau, family=k.get("family", "standard"),
                          nu=k.get("nu"), gamma_reg=k.get("gamma_reg"))

    def potential_spec(self, tau=None) -> PotentialSpec:
        p = dict(self.potential)
        tau = float(self.geometry.get("tau", 1.0)) if tau is None else tau
        return PotentialSpec(family=p.get("family", "quartic"),
                             d=float(p.get("d", 1.5)),
                             kappa=p.get("kappa"), tau=tau,
                             Q_modulation=bool(p.get("Q_modulation", False)))

    def domain(self, tau=None, direction=None) -> StripDomain:
        g = self.geometry
        tau = float(g.get("tau", 1.0)) if tau is None else tau
        dirn = direction or tuple(g.get("direction", (0, 1)))
        d = Direction(tuple(int(v) for v in dirn), tau)
        if "M" in g and "M_factor" in g:
            raise ConfigError("give M or M_factor, not both")
        M = float(g["M"]) if "M" in g else float(g.get("M_factor", 12.0)) * tau
        if "buffer" in g and "buffer_factor" in g:
            raise ConfigError("give buffer or buffer_factor, not both")
        B = (float(g["buffer"]) if "buffer" in g
             else float(g.get("buffer_factor", 4.0)) * tau)
        if "h" in g and "cells_per_tau" in g:
            raise ConfigError("give h or cells_per_tau, not both")
        if "h" in g:
            h = float(g["h"])
        else:
            cpt = int(g.get("cells_per_tau", 8))
            n_p = cpt * d.p_sq if d.dim == 2 else cpt
            L = tau * d.norm_p if d.dim == 2 else tau
            h = L / n_p
        # snap the strip extents onto the cell grid
        M = round(M / h) * h
        B = round(B / h) * h
        return StripDomain(tau=tau, direction=d, M=M, h=h, buffer=B)

    def r_cut(self, tau=None) -> float:
        g = self.geometry
        tau = float(g.get("tau", 1.0)) if tau is None else tau
        if "r_cut" in g and "r_cut_factor" in g:
            raise ConfigError("give r_cut or r_cut_factor, not both")
        if "r_cut" in g:
            return float(g["r_cut"])
        return float(g.get("r_cut_factor", energy_mod.R_CUT_FACTOR)) * tau

    def solve_options(self) -> min_mod.SolveOptions:
        s = self.solver
        base = min_mod.SolveOptions()
        return min_mod.SolveOptions(
            max_iters=int(s.get("max_iters", base.max_iters)),
            grad_tol=float(s.get("grad_tol", base.grad_tol)),
            rel_decrease_tol=float(s.get("rel_decrease_tol",
                                         base.rel_decrease_tol)),
            epsilon=(None if s.get("epsilon") is None
                     else float(s.get("epsilon"))))

    def constraints(self) -> min_mod.Constraints:
        return min_mod.Constraints(float(self.solver.get("theta", 0.9)))


# ---------------------------------------------------------------------------
# small utilities


def fit_exponent(pairs) -> tuple:
    """Ordinary least squares in log-log coordinates.

    Returns (exponent, constant, residual) where residual is the maximum
    relative deviation of the data from the fitted power law.
    """
    pairs = [(float(r), float(v)) for r, v in pairs]
    if len(pairs) < 4:
        raise ValueError("need at least 4 (R, value) pairs")
    r = np.array([p[0] for p in pairs])
    v = np.array([p[1] for p in pairs])
    if np.any(~np.isfinite(r)) or np.any(~np.isfinite(v)) \
            or np.any(r <= 0.0) or np.any(v <= 0.0):
        raise ValueError("pairs must be finite and positive")
    x = np.log(r)
    y = np.log(v)
    slope, intercept = np.polyfit(x, y, 1)
    fit = np.exp(intercept) * r ** slope
    residual = float(np.max(np.abs(v - fit) / v))
    return float(slope), float(np.exp(intercept)), residual


def _json_default(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _emit_report(out: Path, bundle: dict) -> None:
    (out / "report.json").write_text(
        json.dumps(bundle, indent=2, sort_keys=True, default=_json_default))


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(
                v if isinstance(v, str) else f"{v:.17g}" for v in row) + "\n")


def _verdict(tag: str, value, passed: bool, note: str = "") -> dict:
    return {"tag": tag, "value": value, "passed": bool(passed), "note": note}


# ---------------------------------------------------------------------------
# pipelines


def run_validate(cfg: ExperimentConfig, out: Path) -> dict:
    rep = validate_hypotheses(cfg.kernel_spec(), cfg.potential_spec(),
                              samples=512, seed=cfg.seed,
                              planelike=cfg.experiment.get("kind") == "planelike")
    bundle = {"experiment": "validate", "seed": cfg.seed,
              "hypotheses": rep.as_dict(), "passed": rep.passed}
    _emit_report(out, bundle)
    return bundle


def _solve_one(cfg, tau, direction):
    # main validates the hypotheses once, at the configured tau; the strip
    # hypothesis xi = tau >= 1 also has to hold at this solve's tau
    if tau < 1.0:
        raise ConfigError(f"strip solves require tau >= 1, got {tau}",
                          tag="xi=tau")
    kernel = cfg.kernel_spec(tau)
    potential = cfg.potential_spec(tau)
    domain = cfg.domain(tau, direction)
    weights = energy_mod.build_weights(kernel, domain, cfg.r_cut(tau))
    result = min_mod.minimize_strip(kernel, potential, domain,
                                    cfg.constraints(), cfg.solve_options(),
                                    weights=weights, validate=False)
    return kernel, potential, domain, weights, result


def run_planelike(cfg: ExperimentConfig, out: Path) -> dict:
    exp = cfg.experiment
    taus = [float(t) for t in exp.get("tau_list", [cfg.geometry.get("tau", 1.0)])]
    dirs = [tuple(int(v) for v in d)
            for d in exp.get("directions", [cfg.geometry.get("direction", (0, 1))])]
    levels = exp.get("levels", [-0.9, -0.5, 0.0, 0.5, 0.9])
    trials = int(exp.get("trials", 12))
    theta_band = 0.9
    threads = int(exp.get("_threads", 1))

    jobs = [(tau, d) for d in dirs for tau in taus]

    def work(job):
        tau, d = job
        kernel, potential, domain, weights, result = _solve_one(cfg, tau, d)
        width = geom.interface_width(result.field, theta_band)
        band = np.abs(result.field.values) < theta_band
        cols = np.any(band, axis=0)
        t = domain.t_centers()
        band_lo = float(t[cols].min()) if cols.any() else 0.0
        band_hi = float(t[cols].max()) if cols.any() else 0.0
        bk = min_mod.check_birkhoff(result.field, levels)
        ud = min_mod.upper_distance(result.field, cfg.constraints().theta)
        ca = min_mod.check_class_A(
            weights, potential, result.field, trials=trials,
            radius_range=tuple(exp.get("radius_range", (None, None))),
            seed=cfg.seed, epsilon=cfg.solve_options().epsilon,
            tol_rel=float(cfg.tolerances.get("classA_rel", 1e-8)))
        result.diagnostics.update(
            birkhoff_pass=bk["passed"], upper_distance=ud,
            perturbation_margin=ca["max_improvement"])
        return {
            "tau": tau, "direction": list(d), "F_value": result.F_value,
            "iterations": result.iterations, "grad_norm": result.grad_norm,
            "converged": result.converged,
            "stop_reason": result.diagnostics["stop_reason"],
            "nfev": result.diagnostics["nfev"],
            "width": width, "band": [band_lo, band_hi],
            "M": domain.M, "M0_emp": width / tau,
            "upper_distance": ud,
            "birkhoff": bk["passed"], "birkhoff_worst": bk["worst_cells"],
            "classA_improvement": ca["max_improvement"],
            "classA_passed": ca["passed"],
            "field": result.field, "trace": result.trace,
        }

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(work, jobs))
    else:
        rows = [work(j) for j in jobs]

    verdicts = []
    for row in rows:
        name = f"tau{row['tau']:g}_w{row['direction'][0]}{row['direction'][1]}"
        row["field"].dump_csv(out / f"field_{name}.csv")
        if row["trace"] is not None:
            _write_csv(out / f"trace_{name}.csv", "iter,F,grad_norm,step",
                       row["trace"])
        inside = row["band"][0] >= 0.0 and row["band"][1] <= row["M"]
        verdicts.append(_verdict(
            "tauPLcond", row["width"],
            inside, f"band {row['band']} within [0, {row['M']}] ({name})"))
        verdicts.append(_verdict("disttau", row["upper_distance"],
                                 row["upper_distance"] >= row["tau"], name))
        verdicts.append(_verdict("birkhoff", row["birkhoff_worst"],
                                 row["birkhoff"], name))
        verdicts.append(_verdict("classA", row["classA_improvement"],
                                 row["classA_passed"], name))
    spread_limit = float(exp.get("m0_spread", 0.25))
    for d in dirs:
        m0s = [r["M0_emp"] for r in rows if tuple(r["direction"]) == d]
        if len(m0s) > 1:
            mid = 0.5 * (max(m0s) + min(m0s))
            spread = (max(m0s) - mid) / mid if mid > 0 else math.inf
            verdicts.append(_verdict(
                "tauPLcond-M0-spread", spread, spread <= spread_limit,
                f"direction {d}, M0_emp={m0s}"))
    for row in rows:
        row.pop("field")
        row.pop("trace")
    bundle = {"experiment": "planelike", "seed": cfg.seed, "rows": rows,
              "verdicts": verdicts,
              "passed": all(v["passed"] for v in verdicts)}
    _emit_report(out, bundle)
    return bundle


def run_scaling(cfg: ExperimentConfig, out: Path) -> dict:
    exp = cfg.experiment
    tau = float(cfg.geometry.get("tau", 1.0))
    kernel, potential, domain, weights, result = _solve_one(
        cfg, tau, tuple(cfg.geometry.get("direction", (0, 1))))
    radii = [float(r) for r in exp.get("radii", [2, 3, 4, 6, 8])]
    if len(radii) < 4:
        raise ConfigError("scaling needs at least 4 radii")
    eps = cfg.solve_options().epsilon
    s, n = kernel.s, kernel.dim

    # interface-centered ball: cell where |u| is smallest
    u = result.field.values
    ip, it = np.unravel_index(int(np.argmin(np.abs(u))), u.shape)
    center = ((ip + 0.5) * domain.h, domain.t_lo + (it + 0.5) * domain.h)
    rows = []
    for R in radii:
        rep = weights.window_report(result.field,
                                    energy_mod.BallWindow(center, R),
                                    potential, eps)
        rows.append((R, rep.total, rep.kinetic_in, rep.kinetic_cross,
                     rep.potential, rep.tail_estimate, "enest"))
    _write_csv(out / "scaling.csv",
               "R,total,kinetic_in,kinetic_cross,potential,tail,tag", rows)
    plus = geom.level_mask(result.field, 0.5, "above")
    _write_csv(out / "density_profile.csv", "R,value,tag",
               geom.density_profile(plus, center, radii, xi=kernel.xi))
    _write_csv(out / "interface_profile.csv", "R,value,tag",
               geom.interface_profile(result.field, 0.9, center, radii,
                                      xi=kernel.xi))

    verdicts = []
    fitted = None
    if s == 0.5:
        ratios = [tot / (R ** (n - 1) * math.log(R)) for R, tot, *_ in rows]
        spread = max(ratios) / min(ratios)
        verdicts.append(_verdict("enest-log-ratio", spread, spread <= 3.0,
                                 "E/(R^{n-1} log R) spread"))
    else:
        exponent, const, resid = fit_exponent([(R, tot) for R, tot, *_ in rows])
        target = n - 2.0 * s if s < 0.5 else n - 1.0
        fitted = {"exponent": exponent, "constant": const,
                  "residual": resid, "target": target}
        verdicts.append(_verdict("enest", exponent,
                                 abs(exponent - target) <= 0.15,
                                 f"target {target}"))
        verdicts.append(_verdict("enestbelow", const, const > 0.0,
                                 "positive fitted constant"))
    bundle = {"experiment": "scaling", "seed": cfg.seed,
              "center": list(center), "epsilon": eps, "fit": fitted,
              "F_value": result.F_value, "verdicts": verdicts,
              "passed": all(v["passed"] for v in verdicts)}
    _emit_report(out, bundle)
    return bundle


def run_barrier(cfg: ExperimentConfig, out: Path) -> dict:
    exp = cfg.experiment
    kernel = cfg.kernel_spec()
    if kernel.family != "standard":
        raise ConfigError("barrier pipeline requires the standard kernel")
    R = float(exp.get("barrier_R", 16.0))
    delta = float(exp.get("barrier_delta", 0.1))
    bar = barrier_mod.build_barrier(kernel, R, delta)
    ver = barrier_mod.verify_barrier(kernel, bar, n_samples=200, seed=cfg.seed)
    rho = np.linspace(0.0, 1.2 * R, 512)
    _write_csv(out / "barrier_profile.csv", "radius,w,grad_w",
               zip(rho, bar.w_radial(rho), bar.grad_w_radial(rho)))

    verdicts = [
        _verdict("LKwbar", ver["worst_LKw_ratio"],
                 ver["worst_LKw_ratio"] <= 1.05),
        _verdict("wbarest-lower", ver["worst_lower_C"],
                 ver["worst_lower_C"] >= 1.0 - 1e-9),
        _verdict("wbarest-upper", ver["worst_upper_C"],
                 ver["worst_upper_C"] <= 1.0 + 1e-9),
    ]
    slide = None
    if exp.get("tau_list") or cfg.geometry.get("M") or cfg.geometry.get("M_factor"):
        tau = float(cfg.geometry.get("tau", 1.0))
        try:
            kern2, potential, domain, weights, result = _solve_one(
                cfg, tau, tuple(cfg.geometry.get("direction", (0, 1))))
            slide_R = min(R, (domain.t_hi - domain.t_lo) / 2.0 - 2 * domain.h)
            if slide_R < bar.R0:
                slide = {"skipped": f"slide ball radius {slide_R} below "
                                    f"assembled threshold {bar.R0}"}
            else:
                sbar = barrier_mod.build_barrier(kernel, slide_R, delta)
                # dip the barrier into the minus phase next to the interface
                u = result.field.values
                it = int(np.argmin(np.abs(u.mean(axis=0))))
                t_int = domain.t_lo + (it + 0.5) * domain.h
                t0 = min(max(t_int + 0.5 * slide_R, domain.t_lo + slide_R
                             + domain.h),
                         domain.t_hi - slide_R - domain.h)
                center = (0.5 * domain.n_p * domain.h, t0)
                slide = barrier_mod.barrier_slide_test(
                    weights, potential, result.field, sbar, center,
                    cfg.solve_options().epsilon)
                verdicts.append(_verdict(
                    "barrier-slide", slide["relative_defect"],
                    slide["relative_defect"] >= -1e-8))
        except barrier_mod.BarrierRangeError as err:
            slide = {"skipped": str(err)}
    bundle = {"experiment": "barrier", "seed": cfg.seed,
              "constants": {"r1": bar.r1, "R0": bar.R0, "r": bar.r,
                            "beta": bar.beta, "gamma_r": bar.gamma_r,
                            "c3": bar.c3, "C": bar.C, "nu_bar": bar.nu_bar},
              "verification": {k: v for k, v in ver.items()},
              "slide": slide, "verdicts": verdicts,
              "passed": all(v["passed"] for v in verdicts)}
    _emit_report(out, bundle)
    return bundle


def run_gamma(cfg: ExperimentConfig, out: Path) -> dict:
    exp = cfg.experiment
    tau = float(cfg.geometry.get("tau", 1.0))
    kernel = cfg.kernel_spec(tau)
    potential = cfg.potential_spec(tau)
    domain = cfg.domain(tau, tuple(cfg.geometry.get("direction", (0, 1))))
    eps_list = [float(e) for e in exp.get("eps_list", [1.0, 0.5, 0.25, 0.125])]
    sweep = per_mod.gamma_sweep(kernel, potential, domain, cfg.constraints(),
                                eps_list, options=cfg.solve_options(),
                                r_cut=cfg.r_cut(tau))
    _write_csv(out / "gamma_sweep.csv",
               "eps,E_eps,G_threshold,sym_diff,converged",
               [(r["eps"], r["E_eps"], r["G_threshold"], r["sym_diff"],
                 int(r["converged"])) for r in sweep["records"]])
    m0_ref = geom.interface_width(sweep["records"][0]["field"],
                                  cfg.constraints().theta) / tau
    extract = per_mod.minimal_surface_extract(
        sweep, m0_ref=m0_ref,
        density_floor=float(exp.get("density_floor", 0.02)))
    extract["mask"].dump_csv(out / "limit_mask.csv")
    flips = per_mod.surface_local_min_check(
        sweep["weights"], extract["mask"], trials=int(exp.get("trials", 20)),
        seed=cfg.seed,
        tol_rel=float(cfg.tolerances.get("flip_rel", 1e-10)))
    verdicts = [
        _verdict("Gamma-recovery", sweep["recovery_identity_gap"],
                 sweep["recovery_identity_gap"] <= 1e-10),
        _verdict("Gamma-liminf-trend", sweep["liminf_gaps"],
                 sweep["gap_trend_nonincreasing"]),
        _verdict("Gamma-symdiff-trend",
                 [r["sym_diff"] for r in sweep["records"]],
                 sweep["sym_diff_nonincreasing"]),
        _verdict("PerK-inclusion", extract["m0_emp"],
                 extract["inclusion_lower"] and extract["inclusion_upper"]),
        _verdict("PerK-density", extract["density_ok"], extract["density_ok"]),
        _verdict("PerK-periodic", extract["periodic"], extract["periodic"]),
        _verdict("PerK-flip", flips["max_improvement"], flips["passed"]),
    ]
    bundle = {"experiment": "gamma", "seed": cfg.seed,
              "records": [{k: v for k, v in r.items()
                           if k not in ("mask", "field")}
                          for r in sweep["records"]],
              "m0_emp": extract["m0_emp"],
              "verdicts": verdicts,
              "passed": all(v["passed"] for v in verdicts)}
    _emit_report(out, bundle)
    return bundle


def run_perimeter(cfg: ExperimentConfig, out: Path) -> dict:
    exp = cfg.experiment
    tau = float(cfg.geometry.get("tau", 1.0))
    kernel = cfg.kernel_spec(tau)
    domain = cfg.domain(tau, tuple(cfg.geometry.get("direction", (0, 1))))
    weights = energy_mod.build_weights(kernel, domain, cfg.r_cut(tau))
    level = float(exp.get("reference_set_level", domain.M / 2.0))
    t = domain.t_centers()
    inside = np.tile(t < level, (domain.n_p, 1))
    mask = geom.SetMask(domain, inside, True, False)

    res = per_mod.per_K(weights, mask, energy_mod.PERIOD)
    ind = per_mod.indicator_energy(weights, mask, energy_mod.PERIOD)
    identity_gap = abs(res.per_K - ind / 4.0) / max(abs(res.per_K), 1e-300)
    part_gap = abs(res.per_K - sum(res.parts)) / max(abs(res.per_K), 1e-300)

    small = energy_mod.BallWindow((0.5 * domain.n_p * domain.h, level), 2 * tau)
    big = energy_mod.BallWindow((0.5 * domain.n_p * domain.h, level), 3 * tau)
    mono = (per_mod.per_K(weights, mask, small).per_K
            <= per_mod.per_K(weights, mask, big).per_K + 1e-12)
    verdicts = [
        _verdict("PerKchi", identity_gap, identity_gap <= 1e-10),
        _verdict("PerK-parts", part_gap, part_gap <= 1e-12),
        _verdict("PerK-window-monotone", mono, mono),
    ]
    bundle = {"experiment": "perimeter", "seed": cfg.seed,
              "per_K": res.as_dict(), "verdicts": verdicts,
              "passed": all(v["passed"] for v in verdicts)}
    _emit_report(out, bundle)
    return bundle


_PIPELINES = {
    "planelike": run_planelike,
    "scaling": run_scaling,
    "barrier": run_barrier,
    "gamma": run_gamma,
    "perimeter": run_perimeter,
    "validate": run_validate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlphase",
        description="nonlocal phase-transition experiments in periodic media")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _PIPELINES:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        cfg = ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        cfg.experiment["kind"] = args.command
        cfg.experiment["_threads"] = args.threads
        cfg.validate_cross_fields()
        kernel = cfg.kernel_spec()
        potential = cfg.potential_spec()
        hyp = validate_hypotheses(kernel, potential, samples=256,
                                  seed=cfg.seed,
                                  planelike=args.command == "planelike")
        if not hyp.passed:
            print("hypothesis rejection: " + ", ".join(hyp.failing_tags()),
                  file=sys.stderr)
            return 2
    except (ConfigError, ValueError) as err:
        tag = getattr(err, "tag", "config")
        print(f"configuration rejected [{tag}]: {err}", file=sys.stderr)
        return 2

    out = Path(args.out or cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    try:
        bundle = _PIPELINES[args.command](cfg, out)
    except (ConfigError, barrier_mod.BarrierRangeError,
            per_mod.RegimeError) as err:
        print(f"configuration rejected "
              f"[{getattr(err, 'tag', 'config')}]: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # runtime failure
        print(f"runtime failure: {err}", file=sys.stderr)
        print(traceback.format_exc(), end="", file=sys.stderr)
        return 1
    return 0 if bundle.get("passed", False) else 1


if __name__ == "__main__":
    sys.exit(main())
