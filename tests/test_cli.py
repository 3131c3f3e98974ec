import json
import math

import numpy as np
import pytest

from nlphase.cli import ExperimentConfig, fit_exponent, main
from nlphase.energy import ConfigurationError


def base_config(**adjust):
    cfg = {
        "schema_version": 1,
        "kernel": {"dim": 2, "s": 0.25, "family": "standard"},
        "potential": {"family": "quartic"},
        "geometry": {"tau": 1.0, "direction": [0, 1], "M_factor": 4.0,
                     "cells_per_tau": 6, "buffer_factor": 2.0,
                     "r_cut_factor": 4.0},
        "solver": {"max_iters": 8000, "theta": 0.9},
        "experiment": {},
        "tolerances": {},
        "seed": 7,
    }
    for key, val in adjust.items():
        if isinstance(val, dict):
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
    return cfg


class TestFitExponent:
    def test_linear(self):
        exp, const, resid = fit_exponent([(1, 1), (2, 2), (4, 4), (8, 8)])
        assert exp == pytest.approx(1.0, abs=1e-12)
        assert const == pytest.approx(1.0, abs=1e-12)
        assert resid <= 1e-12

    def test_quadratic(self):
        exp, _, _ = fit_exponent([(1, 1), (2, 4), (4, 16), (8, 64)])
        assert exp == pytest.approx(2.0, abs=1e-12)

    def test_rejects_nan_and_nonpositive(self):
        with pytest.raises(ValueError):
            fit_exponent([(1, 1), (2, float("nan")), (4, 4), (8, 8)])
        with pytest.raises(ValueError):
            fit_exponent([(1, 1), (2, -2), (4, 4), (8, 8)])

    def test_requires_four_points(self):
        with pytest.raises(ValueError):
            fit_exponent([(1, 1), (2, 2), (4, 4)])


class TestConfig:
    def test_unknown_keys_rejected(self):
        for section, key in (("geometry", "mesh"), ("solver", "theta0"),
                             ("tolerances", "decomposition_rel"),
                             ("tolerances", "identity_rel"),
                             ("tolerances", "gradient_rel")):
            raw = base_config()
            raw[section][key] = 1
            with pytest.raises(ConfigurationError) as err:
                ExperimentConfig.from_dict(raw)
            assert key in str(err.value)

    def test_schema_version_required(self):
        raw = base_config()
        raw["schema_version"] = 2
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict(raw)

    def test_regime_gate_names_tag(self):
        raw = base_config(kernel={"s": 0.6}, experiment={"kind": "gamma"})
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_dict(raw)
        assert err.value.tag == "s<1/2"

    def test_epsilon_gate(self):
        raw = base_config(solver={"epsilon": 2.0})
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_dict(raw)
        assert err.value.tag == "eps<=tau"

    def test_whole_number_floats_accepted(self):
        raw = base_config(geometry={"cells_per_tau": 6.0, "direction": [0.0, 1]},
                          solver={"max_iters": 8000.0},
                          experiment={"trials": 2.0}, seed=7.0)
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.seed == 7 and isinstance(cfg.seed, int)
        assert cfg.solve_options().max_iters == 8000
        assert cfg.domain().n_p == 6 and cfg.domain().direction.p == (0, 1)
        # whole components with a common factor are a domain error, not a
        # config error
        ExperimentConfig.from_dict(base_config(geometry={"direction": [2, 4]}))

    def test_domain_snaps_to_grid(self):
        cfg = ExperimentConfig.from_dict(base_config())
        dom = cfg.domain()
        assert dom.n_p == 6
        assert dom.M == pytest.approx(4.0)


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


class TestPipelines:
    def test_validate_exit_zero(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert main(["validate", "--config", path,
                     "--out", str(tmp_path / "out")]) == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["passed"]

    def test_gamma_regime_rejected_exit_two(self, tmp_path):
        path = write_config(tmp_path, base_config(kernel={"s": 0.6}))
        assert main(["gamma", "--config", path,
                     "--out", str(tmp_path / "out")]) == 2

    def test_perimeter_pipeline(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert main(["perimeter", "--config", path,
                     "--out", str(tmp_path / "out")]) == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        tags = {v["tag"] for v in rep["verdicts"]}
        assert {"PerKchi", "PerK-parts", "PerK-window-monotone"} <= tags

    def test_planelike_deterministic_outputs(self, tmp_path):
        raw = base_config(experiment={"trials": 2})
        path = write_config(tmp_path, raw)
        code1 = main(["planelike", "--config", path,
                      "--out", str(tmp_path / "a"), "--seed", "11"])
        code2 = main(["planelike", "--config", path,
                      "--out", str(tmp_path / "b"), "--seed", "11"])
        assert code1 == code2
        for name in ("report.json", "field_tau1_w01.csv", "trace_tau1_w01.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_planelike_report_structure(self, tmp_path):
        raw = base_config(experiment={"trials": 2})
        path = write_config(tmp_path, raw)
        main(["planelike", "--config", path, "--out", str(tmp_path / "out")])
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        tags = {v["tag"] for v in rep["verdicts"]}
        assert {"tauPLcond", "disttau", "birkhoff", "classA"} <= tags
        assert rep["rows"][0]["M0_emp"] > 0
        assert rep["rows"][0]["stop_reason"] in {"grad_tol", "stall",
                                                 "no_descent"}
        assert rep["rows"][0]["nfev"] >= rep["rows"][0]["iterations"]
        field_csv = (tmp_path / "out" / "field_tau1_w01.csv").read_text()
        assert field_csv.splitlines()[0] == "x1,x2,u"

    def test_planelike_band_read_at_solver_theta(self, tmp_path):
        # the band and width are read at the obstacle level theta, so the
        # {|u| < 0.5} band of a 16-tau strip lies inside [0, M]
        raw = base_config(
            kernel={"family": "modulated"},
            potential={"Q_modulation": True},
            geometry={"M_factor": 16.0, "r_cut_factor": 8.0,
                      "buffer_factor": 4.0},
            solver={"theta": 0.5}, experiment={"trials": 2})
        path = write_config(tmp_path, raw)
        main(["planelike", "--config", path, "--out", str(tmp_path / "out")])
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        row = rep["rows"][0]
        assert 0.0 <= row["band"][0] <= row["band"][1] <= row["M"]
        verdicts = {v["tag"]: v["passed"] for v in rep["verdicts"]}
        assert verdicts["tauPLcond"] and verdicts["disttau"]

    def test_planelike_validates_hypotheses_once(self, tmp_path,
                                                 monkeypatch):
        from nlphase import cli
        calls = []
        original = cli.validate_hypotheses

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "validate_hypotheses", counting)
        path = write_config(tmp_path, base_config(experiment={"trials": 2}))
        main(["planelike", "--config", path, "--out", str(tmp_path / "out")])
        assert (tmp_path / "out" / "report.json").exists()
        assert len(calls) == 1

    def test_runtime_failure_keeps_traceback(self, tmp_path, monkeypatch,
                                             capsys):
        from nlphase import cli

        def exploding_pipeline(cfg, out):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._PIPELINES, "validate", exploding_pipeline)
        path = write_config(tmp_path, base_config())
        assert main(["validate", "--config", path,
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: boom\nTraceback")
        assert "exploding_pipeline" in err

    @pytest.mark.parametrize("command,section,values", [
        pytest.param(command, section, values, id=f"{command}-{section}{i}")
        for i, (command, section, values) in enumerate([
            ("validate", "geometry", {"M": 4.0}),   # M and M_factor both given
            ("planelike", "geometry", {"r_cut_factor": 0.1}),
            ("planelike", "geometry", {"M_factor": 0.5}),
            ("planelike", "geometry", {"h": 0.3}),  # does not divide the period
            ("barrier", "kernel", {"family": "modulated"}),
            ("scaling", "experiment", {"radii": [2.0, 3.0, 4.0]}),
            # counts and lattice components must be whole numbers
            ("planelike", "geometry", {"direction": [1.5, 1]}),
            ("planelike", "geometry", {"cells_per_tau": 6.7}),
            ("validate", "geometry", {"cells_per_tau": "6"}),
            ("planelike", "solver", {"max_iters": 12.9}),
            ("planelike", "experiment", {"trials": 2.9}),
            ("validate", "seed", 7.9),
            ("validate", "geometry", {"direction": [1.5, 1]}),
            ("validate", "experiment", {"directions": [[0, 1], [1, 0.5]]}),
            # barrier radius and bound: finite and positive
            ("barrier", "experiment", {"barrier_R": math.nan}),
            ("barrier", "experiment", {"barrier_R": -5.0}),
            ("barrier", "experiment", {"barrier_delta": math.nan}),
            ("barrier", "experiment", {"barrier_delta": math.inf}),
            ("barrier", "experiment", {"barrier_delta": 0.0}),
        ])])
    def test_bad_geometry_exits_two_before_output(self, tmp_path, capsys,
                                                  command, section, values):
        raw = base_config(**{section: values})
        if isinstance(values, dict) and "h" in values:
            del raw["geometry"]["cells_per_tau"]
        path = write_config(tmp_path, raw)
        assert main([command, "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("configuration rejected")
        assert not (tmp_path / "out").exists()

    def test_planelike_threads_same_bytes(self, tmp_path):
        raw = base_config(experiment={"trials": 2, "tau_list": [1.0, 2.0],
                                      "directions": [[0, 1], [1, 1]]})
        path = write_config(tmp_path, raw)
        for threads in ("1", "2"):
            main(["planelike", "--config", path, "--threads", threads,
                  "--out", str(tmp_path / threads)])
        names = sorted(p.name for p in (tmp_path / "1").iterdir())
        assert len(names) == 9       # the report, a field and a trace per job
        assert names == sorted(p.name for p in (tmp_path / "2").iterdir())
        for name in names:
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "2" / name).read_bytes()), name

    def test_strip_solve_below_unit_tau_rejected(self, tmp_path):
        raw = base_config(geometry={"tau": 0.5})
        path = write_config(tmp_path, raw)
        assert main(["scaling", "--config", path,
                     "--out", str(tmp_path / "out")]) == 2

    def test_scaling_pipeline_synthetic_fit(self, tmp_path):
        raw = base_config(experiment={"radii": [1.0, 1.5, 2.0, 2.5]},
                          solver={"max_iters": 4000, "epsilon": 0.25})
        path = write_config(tmp_path, raw)
        main(["scaling", "--config", path, "--out", str(tmp_path / "out")])
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["fit"] is not None
        assert (tmp_path / "out" / "scaling.csv").exists()
