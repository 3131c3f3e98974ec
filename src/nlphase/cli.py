"""Experiment orchestration: configs, pipelines, reports, command line.

A single JSON configuration file drives every experiment.  `_KEYS` has one
row per key, with its kind, range and default; a key it does not know, or a
value of the wrong kind or out of range, is rejected by name, and
cross-field constraints are validated against named hypothesis tags.  All
randomized checks draw from one recorded 64-bit seed, so reruns with the
same configuration are bit-identical.

`ExperimentConfig` resolves the file once for one pipeline: the geometry is
given in units of tau, and `strip_domains` checks every domain the pipeline
solves on before any output exists.  A ``run_*`` pipeline returns report
entries and verdicts; `run_pipeline` writes ``report.json``.

Pipelines
---------
``planelike``  constrained strip solve + certificates; emits the measured
               width constant M0_emp = width / tau.
``scaling``    energy-in-balls radius sweep centred at the interface height,
               log-log exponent fit, density and theta-band profiles.
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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import barrier as barrier_mod
from . import energy as energy_mod
from . import geometry as geom
from . import minimize as min_mod
from . import perimeter as per_mod
from .energy import ConfigurationError
from .lattice import BUFFER_FACTOR, Direction, StripDomain, write_csv
from .model import KernelSpec, PotentialSpec, validate_hypotheses


SCHEMA_VERSION = 1
M0_SPREAD = 0.25   # largest relative spread of M0_emp over one direction


# kinds of value: (JSON type, what it is called, cast); a kind in a list is
# a non-empty list of that kind, so [_WHOLE] is a lattice vector
_NUMBER = ((int, float), "a number", float)
_WHOLE = ((int, float), "a whole number", int)   # a whole float is the int
_BOOL = (bool, "true or false", bool)
_STRING = (str, "a string", str)
# range tests of a value or of each list entry: (test, what it asks)
_POSITIVE = (lambda v: 0.0 < v < math.inf, "be finite and positive")
_NONNEGATIVE = (lambda v: 0.0 <= v < math.inf, "be finite and nonnegative")
_OPEN_UNIT = (lambda v: 0.0 < v < 1.0, "lie in (0, 1)")

# one row per config key, by section (None: the top level): key -> (kind,
# range test, default).  A None default leaves the key to the spec field or
# the keyword default that takes it; tau_list and directions default to the
# one strip of the geometry.  The kernel and potential keys are the spec
# fields but tau, which the geometry gives, and the potential's epsilon,
# which solver.epsilon gives.
_KEYS = {
    "kernel": {"dim": (_WHOLE, None, None), "s": (_NUMBER, None, None),
               "family": (_STRING, None, None)},
    "potential": {"family": (_STRING, None, None),
                  "d": (_NUMBER, None, None),
                  "Q_modulation": (_BOOL, None, None)},
    "geometry": {
        "tau": (_NUMBER, _POSITIVE, 1.0),
        "direction": ([_WHOLE], None, (0, 1)),
        "M_factor": (_NUMBER, _POSITIVE, 12.0),
        "cells_per_tau": (_WHOLE, _POSITIVE, 8),
        "buffer_factor": (_NUMBER, _NONNEGATIVE, BUFFER_FACTOR),
        "r_cut_factor": (_NUMBER, _POSITIVE, energy_mod.R_CUT_FACTOR)},
    "solver": {"theta": (_NUMBER, _OPEN_UNIT, None),
               "epsilon": (_NUMBER, None, None)},      # in (0, tau]
    "experiment": {
        "tau_list": ([_NUMBER], _POSITIVE, None),
        "directions": ([[_WHOLE]], None, None),
        "radii": ([_NUMBER], _POSITIVE, (2.0, 3.0, 4.0, 6.0, 8.0)),
        "eps_list": ([_NUMBER], None, (1.0, 0.5, 0.25, 0.125)),
        "trials": (_WHOLE, _POSITIVE, None),
        "barrier_R": (_NUMBER, _POSITIVE, 16.0),
        "barrier_delta": (_NUMBER, _POSITIVE, 0.1)},
    "tolerances": {},   # bounds are constants; kept so {} stays valid
    None: {"seed": (_WHOLE, _NONNEGATIVE, 20240808)},
}


def _check(name: str, kind, bounds, value, entry: str = ""):
    """``value`` of the key ``name`` cast to ``kind`` and range-tested by
    ``bounds``, or an error naming the key and the value."""
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ConfigurationError(
                f"{name}{entry} must be a non-empty list, got {value!r}")
        return [_check(name, kind[0], bounds, v, " entry") for v in value]
    types, what, cast = kind
    if (not isinstance(value, types)     # and a JSON boolean is no number
            or isinstance(value, bool) != (types is bool)
            or cast is int and not float(value).is_integer()):
        raise ConfigurationError(
            f"{name}{entry} must be {what}, got {value!r}")
    value = cast(value)
    if bounds is not None and not bounds[0](value):
        raise ConfigurationError(
            f"{name}{' entries' if entry else ''} must {bounds[1]}: {value}")
    return value


@dataclass
class ExperimentConfig:
    sections: dict               # section -> the keys the config gives
    seed: int = _KEYS[None]["seed"][2]
    kind: str | None = None      # the pipeline the config is resolved for
    threads: int = 1             # planelike jobs solved at once

    @classmethod
    def from_dict(cls, raw: dict, kind: str | None = None) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigurationError(
                f"the configuration's top level must be an object, got {raw!r}")
        if raw.get("schema_version") != SCHEMA_VERSION:
            raise ConfigurationError(
                f"schema_version must be {SCHEMA_VERSION}, "
                f"got {raw.get('schema_version')!r}")
        checked = {}
        for section, rows in _KEYS.items():
            given = raw.get(section, {}) if section else {
                k: v for k, v in raw.items()
                if k not in _KEYS and k != "schema_version"}
            if not isinstance(given, dict):
                raise ConfigurationError(
                    f"{section} must be an object, got {given!r}")
            unknown = sorted(set(given) - set(rows))
            if unknown:
                raise ConfigurationError(
                    f"unknown keys in {section or 'configuration'}: {unknown}")
            checked[section] = {
                k: _check(f"{section}.{k}" if section else k, *rows[k][:2], v)
                for k, v in given.items()}
        top = checked.pop(None)
        cfg = cls(checked, **top, kind=kind)
        cfg.validate_cross_fields()
        return cfg

    def get(self, section: str, key: str):
        """``section.key`` as the config gives it, else its row's default
        (None: the library's)."""
        return self.sections[section].get(key, _KEYS[section][key][2])

    def given(self, section: str, **params) -> dict:
        """Keyword arguments ``param=value`` for the ``section`` keys that
        the config gives; a key it leaves out takes the library default."""
        values = self.sections[section]
        return {param: values[key] for param, key in params.items()
                if key in values}

    @property
    def tau(self) -> float:
        return self.get("geometry", "tau")

    def validate_cross_fields(self):
        """The gates that read two keys or the pipeline; each key's kind
        and range are checked by its row."""
        kind, tau = self.kind, self.tau
        if kind in ("gamma", "perimeter") and self.kernel_spec().s >= 0.5:
            raise ConfigurationError(
                f"experiment {kind!r} requires the strongly nonlocal regime",
                tag="s<1/2")
        if kind == "barrier" and self.kernel_spec().family != "standard":
            raise ConfigurationError(
                "barrier pipeline requires the standard kernel")
        if kind == "scaling" and len(self.get("experiment", "radii")) < 4:
            raise ConfigurationError("scaling needs at least 4 radii")
        eps_list = self.sections["experiment"].get("eps_list", [])
        # an epsilon the config leaves out passes as tau
        if any(not 0.0 < e <= tau
               for e in [self.sections["solver"].get("epsilon", tau),
                         *eps_list]):
            raise ConfigurationError("epsilon and eps_list values must lie "
                                     "in (0, tau]", tag="eps<=tau")
        if any(e1 <= e2 for e1, e2 in zip(eps_list, eps_list[1:])):
            raise ConfigurationError(
                f"experiment.eps_list must be strictly decreasing: {eps_list}")

    def kernel_spec(self, tau=None) -> KernelSpec:
        return KernelSpec(**self.sections["kernel"],
                          tau=self.tau if tau is None else tau)

    def potential_spec(self, tau=None) -> PotentialSpec:
        return PotentialSpec(**self.sections["potential"],
                             tau=self.tau if tau is None else tau,
                             epsilon=self.get("solver", "epsilon"))

    def domain(self, tau=None, direction=None) -> StripDomain:
        tau = self.tau if tau is None else tau
        d = Direction(direction or self.get("geometry", "direction"), tau)
        cpt = self.get("geometry", "cells_per_tau")
        h = tau * d.norm_p / (cpt * d.p_sq)
        # snap the strip extents onto the cell grid
        M = round(self.get("geometry", "M_factor") * tau / h) * h
        B = round(self.get("geometry", "buffer_factor") * tau / h) * h
        return StripDomain(tau=tau, direction=d, M=M, h=h, buffer=B)

    def r_cut(self, tau=None) -> float:
        return (self.get("geometry", "r_cut_factor")
                * (self.tau if tau is None else tau))

    def strip_domains(self) -> list:
        """Every domain the ``kind`` pipeline builds weights on, checked
        against the kernel dimension, the cell grid and the cutoff; a strip
        that is solved on must be at least tau high and, except in the gamma
        sweep, have xi = tau >= 1."""
        kind, direction = self.kind, self.get("geometry", "direction")
        if kind == "planelike":
            taus = self.get("experiment", "tau_list") or [self.tau]
            dirs = self.get("experiment", "directions") or [direction]
            jobs = [(tau, d) for d in dirs for tau in taus]
        elif kind in ("scaling", "barrier", "gamma", "perimeter"):
            jobs = [(self.tau, direction)]
        else:
            return []
        dim = self.kernel_spec().dim
        domains = []
        for tau, d in jobs:
            if len(d) != dim:
                raise ConfigurationError(
                    f"direction {list(d)} has {len(d)} components, "
                    f"kernel.dim is {dim}")
            if kind in ("planelike", "scaling", "barrier") and tau < 1.0:
                raise ConfigurationError(
                    f"strip solves require tau >= 1, got {tau}", tag="xi=tau")
            domain = self.domain(tau, d)
            energy_mod.check_r_cut(self.r_cut(tau), domain)
            if kind != "perimeter":
                min_mod.check_strip_height(domain)
            domains.append(domain)
        return domains

    def constraints(self) -> min_mod.Constraints:
        return min_mod.Constraints(**self.given("solver", theta="theta"))


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
    return {"hypotheses": {**asdict(rep), "passed": rep.passed},
            "passed": rep.passed}, None


def _weights(cfg, domain) -> energy_mod.WeightTable:
    return energy_mod.build_weights(cfg.kernel_spec(domain.tau), domain,
                                    cfg.r_cut(domain.tau))


def _solve_one(cfg, domain):
    weights = _weights(cfg, domain)
    potential = cfg.potential_spec(domain.tau)
    result = min_mod.minimize_strip(weights, potential, cfg.constraints())
    return potential, weights, result


def run_planelike(cfg: ExperimentConfig, out: Path) -> tuple:
    theta_band = cfg.constraints().theta

    def work(domain):
        potential, weights, result = _solve_one(cfg, domain)
        width = geom.interface_width(result.field, theta_band)
        band_t = domain.t_centers()[
            np.any(np.abs(result.field.values) < theta_band, axis=0)]
        band = ([float(band_t.min()), float(band_t.max())] if band_t.size
                else [0.0, 0.0])
        bk = min_mod.check_birkhoff(result.field)
        ca = min_mod.check_class_A(
            weights, potential, result.field, seed=cfg.seed,
            **cfg.given("experiment", trials="trials"))
        return {
            "tau": domain.tau, "direction": list(domain.direction.p),
            "F_value": result.F_value, "iterations": result.iterations,
            "grad_norm": result.grad_norm, "converged": result.converged,
            "stop_reason": result.stop_reason,
            "nfev": result.nfev, "width": width, "band": band,
            "M": domain.M, "M0_emp": width / domain.tau,
            "upper_distance": min_mod.upper_distance(result.field, theta_band),
            "birkhoff": bk["passed"], "birkhoff_worst": bk["worst_cells"],
            "classA_improvement": ca["max_improvement"],
            "classA_passed": ca["passed"],
            "field": result.field, "trace": result.trace,
        }

    domains = cfg.strip_domains()
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            rows = list(pool.map(work, domains))
    else:
        rows = [work(d) for d in domains]

    verdicts = []
    for row in rows:
        name = f"tau{row['tau']:g}_w" + "".join(map(str, row["direction"]))
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
                spread <= M0_SPREAD,
                f"direction {d}, M0_emp={m0s}"))
    return {"rows": rows}, verdicts


def run_scaling(cfg: ExperimentConfig, out: Path) -> tuple:
    radii = cfg.get("experiment", "radii")
    domain, = cfg.strip_domains()
    potential, weights, result = _solve_one(cfg, domain)
    kernel = weights.kernel
    s, n = kernel.s, kernel.dim
    center = (0.5 * domain.n_p * domain.h, geom.interface_height(result.field))
    rows = []
    for R in radii:
        rep = weights.window_report(result.field,
                                    energy_mod.BallWindow(center, R),
                                    potential)
        rows.append((R, rep.total, rep.kinetic_in, rep.kinetic_cross,
                     rep.potential, rep.tail_estimate, "enest"))
    write_csv(out / "scaling.csv",
              "R,total,kinetic_in,kinetic_cross,potential,tail,tag", rows)
    plus = geom.level_mask(result.field, 0.5, "above")
    write_csv(out / "density_profile.csv", "R,value,tag",
              geom.density_profile(plus, center, radii, xi=kernel.tau))
    write_csv(out / "interface_profile.csv", "R,value,tag",
              geom.interface_profile(result.field, cfg.constraints().theta,
                                     center, radii, xi=kernel.tau))

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
    return {"center": list(center), "epsilon": potential.epsilon,
            "fit": fitted, "F_value": result.F_value}, verdicts


def run_barrier(cfg: ExperimentConfig, out: Path) -> tuple:
    kernel = cfg.kernel_spec()
    R = cfg.get("experiment", "barrier_R")
    delta = cfg.get("experiment", "barrier_delta")
    bar = barrier_mod.build_barrier(kernel, R, delta)
    ver = barrier_mod.verify_barrier(kernel, bar, seed=cfg.seed)
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
    constants = {k: getattr(bar, k) for k in (
        "r1", "R0", "r", "beta", "gamma_r", "c3", "C", "nu_bar")}
    entries = {"constants": constants, "verification": ver}

    domain, = cfg.strip_domains()
    slide_R = min(R, (domain.t_hi - domain.t_lo) / 2.0 - 2 * domain.h)
    try:
        if slide_R < bar.R0:
            raise barrier_mod.BarrierRangeError(
                f"slide ball radius {slide_R} below assembled threshold "
                f"{bar.R0}")
        sbar = barrier_mod.build_barrier(kernel, slide_R, delta)
    except barrier_mod.BarrierRangeError as err:
        return {**entries, "slide": {"skipped": str(err)}}, verdicts
    potential, weights, result = _solve_one(cfg, domain)
    # dip the barrier into the minus phase next to the interface
    t0 = min(max(geom.interface_height(result.field) + 0.5 * slide_R,
                 domain.t_lo + slide_R + domain.h),
             domain.t_hi - slide_R - domain.h)
    slide = barrier_mod.barrier_slide_test(
        weights, potential, result.field, sbar,
        (0.5 * domain.n_p * domain.h, t0))
    verdicts.append(_verdict("barrier-slide", slide["relative_defect"],
                             slide["relative_defect"] >= -1e-8))
    return {**entries, "slide": slide}, verdicts


def run_gamma(cfg: ExperimentConfig, out: Path) -> tuple:
    domain, = cfg.strip_domains()
    tau = domain.tau
    eps_list = cfg.get("experiment", "eps_list")
    weights = _weights(cfg, domain)
    sweep = per_mod.gamma_sweep(weights, cfg.potential_spec(tau),
                                cfg.constraints(), eps_list)
    write_csv(out / "gamma_sweep.csv",
              "eps,E_eps,G_threshold,sym_diff,converged",
              [(r["eps"], r["E_eps"], r["G_threshold"], r["sym_diff"],
                int(r["converged"])) for r in sweep["records"]])
    m0_ref = geom.interface_width(sweep["records"][0]["field"],
                                  cfg.constraints().theta) / tau
    extract = per_mod.minimal_surface_extract(sweep, m0_ref=m0_ref)
    extract["mask"].dump_csv(out / "limit_mask.csv")
    flips = per_mod.surface_local_min_check(
        weights, extract["mask"], seed=cfg.seed,
        **cfg.given("experiment", trials="trials"))
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
    level = domain.M / 2.0
    inside = np.tile(domain.t_centers() < level, (domain.n_p, 1))
    mask = geom.SetMask(domain, inside, True, False)

    res = per_mod.per_K(weights, mask, energy_mod.PERIOD)
    ind = per_mod.indicator_energy(weights, mask, energy_mod.PERIOD)
    identity_gap = abs(res.per_K - ind / 4.0) / max(abs(res.per_K), 1e-300)
    part_gap = abs(res.per_K - sum(res.parts)) / max(abs(res.per_K), 1e-300)

    small, big = (per_mod.per_K(weights, mask, energy_mod.BallWindow(
        (0.5 * domain.n_p * domain.h, level), k * tau)).per_K for k in (2, 3))
    mono = small <= big + 1e-12
    return {"per_K": asdict(res)}, [
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
        p.add_argument("--out", default="out")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        with open(args.config) as f:
            cfg = ExperimentConfig.from_dict(json.load(f), args.command)
        if args.seed is not None:
            cfg.seed = _check("--seed", *_KEYS[None]["seed"][:2], args.seed)
        cfg.threads = _check("--threads", _WHOLE, _POSITIVE, args.threads)
        hyp = validate_hypotheses(cfg.kernel_spec(), cfg.potential_spec(),
                                  seed=cfg.seed)
        if not hyp.passed:
            print("hypothesis rejection: " + ", ".join(hyp.failing_tags()),
                  file=sys.stderr)
            return 2
        cfg.strip_domains()   # bad geometry is rejected before --out exists
    except (ValueError, TypeError) as err:   # also bad spec values and types
        return _rejected(err)

    out = Path(args.out)
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
