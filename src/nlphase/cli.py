"""Experiment orchestration: configs, pipelines, reports, command line.

A single JSON configuration file drives every experiment.  Unknown keys
are rejected, cross-field constraints are validated against named
hypothesis tags, and all randomized checks draw from one recorded 64-bit
seed, so reruns with the same configuration are bit-identical.

`ExperimentConfig` resolves the file once: kernel, potential and solver
defaults are those of the spec classes, and `strip_domains` checks every
domain a pipeline solves on before any output exists.  A ``run_*`` pipeline
returns report entries and verdicts; `run_pipeline` writes ``report.json``.

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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import barrier as barrier_mod
from . import energy as energy_mod
from . import geometry as geom
from . import minimize as min_mod
from . import perimeter as per_mod
from .energy import ConfigurationError
from .lattice import Direction, StripDomain, whole_number, write_csv
from .model import KernelSpec, PotentialSpec, validate_hypotheses


SCHEMA_VERSION = 1

# kernel and potential keys are the spec fields; tau comes from the geometry
# and the planelike hypothesis fixes xi = tau
_SECTION_KEYS = {
    "kernel": {f.name for f in fields(KernelSpec)} - {"tau", "xi"},
    "potential": {f.name for f in fields(PotentialSpec)} - {"tau"},
    "geometry": {"tau", "direction", "M", "M_factor", "h", "cells_per_tau",
                 "buffer", "buffer_factor", "r_cut", "r_cut_factor"},
    "solver": {"theta", "max_iters", "grad_tol", "rel_decrease_tol",
               "epsilon"},
    "experiment": {"kind", "radii", "tau_list", "eps_list", "directions",
                   "levels", "trials", "radius_range", "barrier_R",
                   "barrier_delta", "reference_set_level", "density_floor",
                   "m0_spread"},
    "tolerances": {"classA_rel", "flip_rel"},
}
_EXCLUSIVE_KEYS = (("M", "M_factor"), ("buffer", "buffer_factor"),
                   ("h", "cells_per_tau"), ("r_cut", "r_cut_factor"))
# keys that count something; a string or a fraction is rejected, not cast
_WHOLE_KEYS = (("geometry", "cells_per_tau"), ("solver", "max_iters"),
               ("experiment", "trials"))


def _given(section: dict, cast, **params) -> dict:
    """Keyword arguments ``param=cast(section[key])`` for the keys that a
    config section gives; a key it leaves out takes the library default."""
    return {param: cast(section[key]) for param, key in params.items()
            if section.get(key) is not None}


def _check_keys(section: dict, allowed: set, name: str):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigurationError(f"unknown keys in {name}: {sorted(unknown)}")


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
        _check_keys(raw, {"schema_version", "output", "seed", *_SECTION_KEYS},
                    "configuration")
        if raw.get("schema_version") != SCHEMA_VERSION:
            raise ConfigurationError(
                f"schema_version must be {SCHEMA_VERSION}, "
                f"got {raw.get('schema_version')!r}")
        for name, allowed in _SECTION_KEYS.items():
            _check_keys(raw.get(name, {}), allowed, name)
        cfg = cls(**{name: dict(raw.get(name, {})) for name in _SECTION_KEYS},
                  output=raw.get("output", cls.output),
                  seed=whole_number(raw.get("seed", cls.seed), "seed",
                                    ConfigurationError))
        cfg.validate_cross_fields()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    @property
    def tau(self) -> float:
        return float(self.geometry.get("tau", 1.0))

    @property
    def direction(self) -> tuple:
        return tuple(self.geometry.get("direction", (0, 1)))

    def validate_cross_fields(self):
        for a, b in _EXCLUSIVE_KEYS:
            if a in self.geometry and b in self.geometry:
                raise ConfigurationError(f"give {a} or {b}, not both")
        for section, key in _WHOLE_KEYS:
            value = getattr(self, section).get(key)
            if value is not None:
                whole_number(value, f"{section}.{key}", ConfigurationError)
        # the gcd is checked where a pipeline builds a domain
        for p in [self.direction, *(self.experiment.get("directions") or [])]:
            for v in p:
                whole_number(v, "direction component", ConfigurationError)
        for key in ("barrier_R", "barrier_delta"):
            value = float(self.experiment.get(key, 1.0))   # absent: unused
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigurationError(
                    f"experiment.{key} must be finite and positive: {value}")
        kind = self.experiment.get("kind")
        tau = self.tau
        if kind in ("gamma", "perimeter") and \
                float(self.kernel.get("s", KernelSpec.s)) >= 0.5:
            raise ConfigurationError(
                f"experiment {kind!r} requires the strongly nonlocal regime",
                tag="s<1/2")
        if kind == "planelike" and tau < 1.0:
            raise ConfigurationError("planelike runs require tau >= 1",
                                     tag="xi=tau")
        if kind == "barrier" and \
                self.kernel.get("family", KernelSpec.family) != "standard":
            raise ConfigurationError(
                "barrier pipeline requires the standard kernel")
        if kind == "scaling" and "radii" in self.experiment and \
                len(self.experiment["radii"]) < 4:
            raise ConfigurationError("scaling needs at least 4 radii")
        eps = self.solver.get("epsilon")
        if eps is not None and not 0.0 < float(eps) <= tau:
            raise ConfigurationError("epsilon must lie in (0, tau]",
                                     tag="eps<=tau")
        if any(not 0.0 < float(e) <= tau
               for e in self.experiment.get("eps_list") or []):
            raise ConfigurationError("eps_list values must lie in (0, tau]",
                                     tag="eps<=tau")

    def kernel_spec(self, tau=None) -> KernelSpec:
        return KernelSpec(**self.kernel, tau=self.tau if tau is None else tau)

    def potential_spec(self, tau=None) -> PotentialSpec:
        return PotentialSpec(**self.potential,
                             tau=self.tau if tau is None else tau)

    def domain(self, tau=None, direction=None) -> StripDomain:
        g = self.geometry
        tau = self.tau if tau is None else tau
        d = Direction(direction or self.direction, tau)
        M = float(g["M"]) if "M" in g else float(g.get("M_factor", 12.0)) * tau
        B = (float(g["buffer"]) if "buffer" in g
             else float(g.get("buffer_factor", 4.0)) * tau)
        if "h" in g:
            h = float(g["h"])
        else:
            cpt = int(g.get("cells_per_tau", 8))
            h = (tau * d.norm_p / (cpt * d.p_sq) if d.dim == 2
                 else tau / cpt)
        # snap the strip extents onto the cell grid
        M = round(M / h) * h
        B = round(B / h) * h
        return StripDomain(tau=tau, direction=d, M=M, h=h, buffer=B)

    def r_cut(self, tau=None) -> float:
        g = self.geometry
        if "r_cut" in g:
            return float(g["r_cut"])
        return (float(g.get("r_cut_factor", energy_mod.R_CUT_FACTOR))
                * (self.tau if tau is None else tau))

    def strip_domains(self) -> list:
        """Every domain the ``experiment.kind`` pipeline builds weights on,
        checked against the cell grid and the cutoff; a strip that is solved
        on must be at least tau high and, except in the gamma sweep, have
        xi = tau >= 1."""
        exp, g = self.experiment, self.geometry
        kind = exp.get("kind")
        if kind == "planelike":
            jobs = [(float(tau), d)
                    for d in exp.get("directions", [self.direction])
                    for tau in exp.get("tau_list", [self.tau])]
        elif kind in ("scaling", "gamma", "perimeter") or (
                kind == "barrier"
                and (exp.get("tau_list") or g.get("M") or g.get("M_factor"))):
            jobs = [(self.tau, self.direction)]
        else:
            return []
        domains = []
        for tau, d in jobs:
            if kind in ("planelike", "scaling", "barrier") and tau < 1.0:
                raise ConfigurationError(
                    f"strip solves require tau >= 1, got {tau}", tag="xi=tau")
            domain = self.domain(tau, d)
            energy_mod.check_r_cut(self.r_cut(tau), domain)
            if kind != "perimeter":
                min_mod.check_strip_height(domain)
            domains.append(domain)
        return domains

    def solve_options(self) -> min_mod.SolveOptions:
        return min_mod.SolveOptions(
            **_given(self.solver, int, max_iters="max_iters"),
            **_given(self.solver, float, grad_tol="grad_tol",
                     rel_decrease_tol="rel_decrease_tol", epsilon="epsilon"))

    def constraints(self) -> min_mod.Constraints:
        theta = self.solver.get("theta")
        return (min_mod.Constraints() if theta is None
                else min_mod.Constraints(float(theta)))


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
    r, v = (np.array(col) for col in zip(*pairs))
    if not (np.all(np.isfinite(r) & np.isfinite(v) & (r > 0.0) & (v > 0.0))):
        raise ValueError("pairs must be finite and positive")
    slope, intercept = np.polyfit(np.log(r), np.log(v), 1)
    fit = np.exp(intercept) * r ** slope
    residual = float(np.max(np.abs(v - fit) / v))
    return float(slope), float(np.exp(intercept)), residual


def _json_default(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _verdict(tag: str, value, passed: bool, note: str = "") -> dict:
    return {"tag": tag, "value": value, "passed": bool(passed), "note": note}


# ---------------------------------------------------------------------------
# pipelines: each returns (report entries, verdicts); `run_pipeline` writes
# the report


def run_validate(cfg: ExperimentConfig, out: Path) -> tuple:
    rep = validate_hypotheses(cfg.kernel_spec(), cfg.potential_spec(),
                              samples=512, seed=cfg.seed)
    return {"hypotheses": rep.as_dict(), "passed": rep.passed}, None


def _weights(cfg, domain) -> energy_mod.WeightTable:
    return energy_mod.build_weights(cfg.kernel_spec(domain.tau), domain,
                                    cfg.r_cut(domain.tau))


def _solve_one(cfg, domain):
    weights = _weights(cfg, domain)
    potential = cfg.potential_spec(domain.tau)
    result = min_mod.minimize_strip(weights, potential, cfg.constraints(),
                                    cfg.solve_options())
    return potential, weights, result


def run_planelike(cfg: ExperimentConfig, out: Path) -> tuple:
    exp = cfg.experiment
    theta_band = cfg.constraints().theta
    threads = int(exp.get("_threads", 1))

    def work(domain):
        potential, weights, result = _solve_one(cfg, domain)
        width = geom.interface_width(result.field, theta_band)
        band_t = domain.t_centers()[
            np.any(np.abs(result.field.values) < theta_band, axis=0)]
        band = ([float(band_t.min()), float(band_t.max())] if band_t.size
                else [0.0, 0.0])
        bk = min_mod.check_birkhoff(
            result.field, exp.get("levels", [-0.9, -0.5, 0.0, 0.5, 0.9]))
        ca = min_mod.check_class_A(
            weights, potential, result.field,
            trials=int(exp.get("trials", 12)),
            radius_range=tuple(exp.get("radius_range", (None, None))),
            seed=cfg.seed, epsilon=cfg.solve_options().epsilon,
            **_given(cfg.tolerances, float, tol_rel="classA_rel"))
        return {
            "tau": domain.tau, "direction": list(domain.direction.p),
            "F_value": result.F_value, "iterations": result.iterations,
            "grad_norm": result.grad_norm, "converged": result.converged,
            "stop_reason": result.diagnostics["stop_reason"],
            "nfev": result.diagnostics["nfev"], "width": width, "band": band,
            "M": domain.M, "M0_emp": width / domain.tau,
            "upper_distance": result.diagnostics["upper_distance"],
            "birkhoff": bk["passed"], "birkhoff_worst": bk["worst_cells"],
            "classA_improvement": ca["max_improvement"],
            "classA_passed": ca["passed"],
            "field": result.field, "trace": result.trace,
        }

    domains = cfg.strip_domains()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(work, domains))
    else:
        rows = [work(d) for d in domains]

    verdicts = []
    for row in rows:
        name = f"tau{row['tau']:g}_w{row['direction'][0]}{row['direction'][1]}"
        row.pop("field").dump_csv(out / f"field_{name}.csv")
        trace = row.pop("trace")
        if trace is not None:
            write_csv(out / f"trace_{name}.csv", "iter,F,grad_norm,step",
                      trace)
        inside = row["band"][0] >= 0.0 and row["band"][1] <= row["M"]
        verdicts += [
            _verdict("tauPLcond", row["width"], inside,
                     f"band {row['band']} within [0, {row['M']}] ({name})"),
            _verdict("disttau", row["upper_distance"],
                     row["upper_distance"] >= row["tau"], name),
            _verdict("birkhoff", row["birkhoff_worst"], row["birkhoff"], name),
            _verdict("classA", row["classA_improvement"],
                     row["classA_passed"], name),
        ]
    for d in dict.fromkeys(tuple(r["direction"]) for r in rows):
        m0s = [r["M0_emp"] for r in rows if tuple(r["direction"]) == d]
        if len(m0s) > 1:
            mid = 0.5 * (max(m0s) + min(m0s))
            spread = (max(m0s) - mid) / mid if mid > 0 else math.inf
            verdicts.append(_verdict(
                "tauPLcond-M0-spread", spread,
                spread <= float(exp.get("m0_spread", 0.25)),
                f"direction {d}, M0_emp={m0s}"))
    return {"rows": rows}, verdicts


def run_scaling(cfg: ExperimentConfig, out: Path) -> tuple:
    radii = [float(r) for r in cfg.experiment.get("radii", [2, 3, 4, 6, 8])]
    domain, = cfg.strip_domains()
    potential, weights, result = _solve_one(cfg, domain)
    kernel = weights.kernel
    eps = cfg.solve_options().epsilon
    s, n = kernel.s, kernel.dim

    # interface-centered ball: cell where |u| is smallest
    u = result.field.values
    ip, it = np.unravel_index(int(np.argmin(np.abs(u))), u.shape)
    P, T = domain.frame_centers()
    center = (P[ip, it], T[ip, it])
    rows = []
    for R in radii:
        rep = weights.window_report(result.field,
                                    energy_mod.BallWindow(center, R),
                                    potential, eps)
        rows.append((R, rep.total, rep.kinetic_in, rep.kinetic_cross,
                     rep.potential, rep.tail_estimate, "enest"))
    write_csv(out / "scaling.csv",
              "R,total,kinetic_in,kinetic_cross,potential,tail,tag", rows)
    plus = geom.level_mask(result.field, 0.5, "above")
    write_csv(out / "density_profile.csv", "R,value,tag",
              geom.density_profile(plus, center, radii, xi=kernel.xi))
    write_csv(out / "interface_profile.csv", "R,value,tag",
              geom.interface_profile(result.field, 0.9, center, radii,
                                     xi=kernel.xi))

    fitted = None
    if s == 0.5:
        ratios = [tot / (R ** (n - 1) * math.log(R)) for R, tot, *_ in rows]
        spread = max(ratios) / min(ratios)
        verdicts = [_verdict("enest-log-ratio", spread, spread <= 3.0,
                             "E/(R^{n-1} log R) spread")]
    else:
        exponent, const, resid = fit_exponent([(R, tot) for R, tot, *_ in rows])
        target = n - 2.0 * s if s < 0.5 else n - 1.0
        fitted = {"exponent": exponent, "constant": const,
                  "residual": resid, "target": target}
        verdicts = [_verdict("enest", exponent, abs(exponent - target) <= 0.15,
                             f"target {target}"),
                    _verdict("enestbelow", const, const > 0.0,
                             "positive fitted constant")]
    return {"center": list(center), "epsilon": eps, "fit": fitted,
            "F_value": result.F_value}, verdicts


def run_barrier(cfg: ExperimentConfig, out: Path) -> tuple:
    exp = cfg.experiment
    kernel = cfg.kernel_spec()
    R = float(exp.get("barrier_R", 16.0))
    delta = float(exp.get("barrier_delta", 0.1))
    bar = barrier_mod.build_barrier(kernel, R, delta)
    ver = barrier_mod.verify_barrier(kernel, bar, n_samples=200, seed=cfg.seed)
    rho = np.linspace(0.0, 1.2 * R, 512)
    write_csv(out / "barrier_profile.csv", "radius,w,grad_w",
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
    for domain in cfg.strip_domains():   # the slide test, when configured
        try:
            potential, weights, result = _solve_one(cfg, domain)
            slide_R = min(R, (domain.t_hi - domain.t_lo) / 2.0 - 2 * domain.h)
            if slide_R < bar.R0:
                raise barrier_mod.BarrierRangeError(
                    f"slide ball radius {slide_R} below assembled threshold "
                    f"{bar.R0}")
            sbar = barrier_mod.build_barrier(kernel, slide_R, delta)
            # dip the barrier into the minus phase next to the interface
            it = int(np.argmin(np.abs(result.field.values.mean(axis=0))))
            t_int = domain.t_centers()[it]
            t0 = min(max(t_int + 0.5 * slide_R,
                         domain.t_lo + slide_R + domain.h),
                     domain.t_hi - slide_R - domain.h)
            center = (0.5 * domain.n_p * domain.h, t0)
            slide = barrier_mod.barrier_slide_test(
                weights, potential, result.field, sbar, center,
                cfg.solve_options().epsilon)
            verdicts.append(_verdict("barrier-slide", slide["relative_defect"],
                                     slide["relative_defect"] >= -1e-8))
        except barrier_mod.BarrierRangeError as err:
            slide = {"skipped": str(err)}
    constants = {k: getattr(bar, k) for k in (
        "r1", "R0", "r", "beta", "gamma_r", "c3", "C", "nu_bar")}
    return {"constants": constants, "verification": ver,
            "slide": slide}, verdicts


def run_gamma(cfg: ExperimentConfig, out: Path) -> tuple:
    exp = cfg.experiment
    domain, = cfg.strip_domains()
    tau = domain.tau
    eps_list = [float(e) for e in exp.get("eps_list", [1.0, 0.5, 0.25, 0.125])]
    weights = _weights(cfg, domain)
    sweep = per_mod.gamma_sweep(weights, cfg.potential_spec(tau),
                                cfg.constraints(), eps_list,
                                options=cfg.solve_options())
    write_csv(out / "gamma_sweep.csv",
              "eps,E_eps,G_threshold,sym_diff,converged",
              [(r["eps"], r["E_eps"], r["G_threshold"], r["sym_diff"],
                int(r["converged"])) for r in sweep["records"]])
    m0_ref = geom.interface_width(sweep["records"][0]["field"],
                                  cfg.constraints().theta) / tau
    extract = per_mod.minimal_surface_extract(
        sweep, m0_ref=m0_ref,
        **_given(exp, float, density_floor="density_floor"))
    extract["mask"].dump_csv(out / "limit_mask.csv")
    flips = per_mod.surface_local_min_check(
        weights, extract["mask"], seed=cfg.seed,
        **_given(exp, int, trials="trials"),
        **_given(cfg.tolerances, float, tol_rel="flip_rel"))
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
    return {"records": [{k: v for k, v in r.items()
                         if k not in ("mask", "field")}
                        for r in sweep["records"]],
            "m0_emp": extract["m0_emp"]}, verdicts


def run_perimeter(cfg: ExperimentConfig, out: Path) -> tuple:
    domain, = cfg.strip_domains()
    tau = domain.tau
    weights = _weights(cfg, domain)
    level = float(cfg.experiment.get("reference_set_level", domain.M / 2.0))
    inside = np.tile(domain.t_centers() < level, (domain.n_p, 1))
    mask = geom.SetMask(domain, inside, True, False)

    res = per_mod.per_K(weights, mask, energy_mod.PERIOD)
    ind = per_mod.indicator_energy(weights, mask, energy_mod.PERIOD)
    identity_gap = abs(res.per_K - ind / 4.0) / max(abs(res.per_K), 1e-300)
    part_gap = abs(res.per_K - sum(res.parts)) / max(abs(res.per_K), 1e-300)

    small, big = (per_mod.per_K(weights, mask, energy_mod.BallWindow(
        (0.5 * domain.n_p * domain.h, level), k * tau)).per_K for k in (2, 3))
    mono = small <= big + 1e-12
    return {"per_K": res.as_dict()}, [
        _verdict("PerKchi", identity_gap, identity_gap <= 1e-10),
        _verdict("PerK-parts", part_gap, part_gap <= 1e-12),
        _verdict("PerK-window-monotone", mono, mono),
    ]


_PIPELINES = {"planelike": run_planelike, "scaling": run_scaling,
              "barrier": run_barrier, "gamma": run_gamma,
              "perimeter": run_perimeter, "validate": run_validate}


def run_pipeline(name: str, cfg: ExperimentConfig, out: Path) -> dict:
    """Run one pipeline and write its ``report.json``: the pipeline's
    entries, the experiment name, the seed and, for every pipeline but
    ``validate`` (which sets ``passed`` itself), the verdicts and whether
    all of them passed."""
    entries, verdicts = _PIPELINES[name](cfg, out)
    bundle = {"experiment": name, "seed": cfg.seed, **entries}
    if verdicts is not None:
        bundle.update(verdicts=verdicts,
                      passed=all(v["passed"] for v in verdicts))
    (out / "report.json").write_text(
        json.dumps(bundle, indent=2, sort_keys=True, default=_json_default))
    return bundle


def _rejected(err) -> int:
    print(f"configuration rejected [{getattr(err, 'tag', 'config')}]: {err}",
          file=sys.stderr)
    return 2


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
        hyp = validate_hypotheses(cfg.kernel_spec(), cfg.potential_spec(),
                                  samples=256, seed=cfg.seed,
                                  planelike=args.command == "planelike")
        if not hyp.passed:
            print("hypothesis rejection: " + ", ".join(hyp.failing_tags()),
                  file=sys.stderr)
            return 2
        cfg.strip_domains()   # bad geometry is rejected before --out exists
    except (ValueError, TypeError) as err:   # also bad spec values and types
        return _rejected(err)

    out = Path(args.out or cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    try:
        bundle = run_pipeline(args.command, cfg, out)
    except (ConfigurationError, barrier_mod.BarrierRangeError,
            per_mod.RegimeError) as err:
        return _rejected(err)
    except Exception as err:  # runtime failure
        print(f"runtime failure: {err}", file=sys.stderr)
        print(traceback.format_exc(), end="", file=sys.stderr)
        return 1
    return 0 if bundle["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
