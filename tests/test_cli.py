import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from nlphase import cli, geometry
from nlphase.cli import ExperimentConfig, fit_exponent, main
from nlphase.energy import ConfigurationError
from nlphase.model import KernelSpec, PotentialSpec

README = Path(__file__).resolve().parents[1] / "README.md"


def base_config(**adjust):
    cfg = {
        "schema_version": 1,
        "kernel": {"dim": 2, "s": 0.25, "family": "standard"},
        "potential": {"family": "quartic"},
        "geometry": {"tau": 1.0, "direction": [0, 1], "M_factor": 4.0,
                     "cells_per_tau": 6, "buffer_factor": 2.0,
                     "r_cut_factor": 4.0},
        "solver": {"theta": 0.9},
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
    def test_unknown_keys_rejected(self, tmp_path, capsys):
        # former keys among them: geometry is given only in units of tau,
        # the certificate levels, radii and reference level are fixed, the
        # model constants are derived, the solver tolerances, iteration cap
        # and verdict bounds are constants, the pipeline is named on the
        # command line and the output directory by --out (section None:
        # the top level)
        for section, key in (("geometry", "mesh"), ("solver", "theta0"),
                             ("tolerances", "decomposition_rel"),
                             ("tolerances", "identity_rel"),
                             ("tolerances", "gradient_rel"),
                             ("geometry", "M"), ("geometry", "h"),
                             ("geometry", "buffer"), ("geometry", "r_cut"),
                             ("experiment", "levels"),
                             ("experiment", "radius_range"),
                             ("experiment", "reference_set_level"),
                             ("kernel", "xi"), ("kernel", "nu"),
                             ("kernel", "gamma_reg"), ("potential", "kappa"),
                             ("solver", "grad_tol"),
                             ("solver", "rel_decrease_tol"),
                             ("solver", "max_iters"),
                             ("tolerances", "classA_rel"),
                             ("tolerances", "flip_rel"),
                             ("experiment", "density_floor"),
                             ("experiment", "m0_spread"),
                             ("experiment", "kind"), (None, "output")):
            raw = base_config()
            (raw[section] if section else raw)[key] = 1
            with pytest.raises(ConfigurationError) as err:
                ExperimentConfig.from_dict(raw)
            assert key in str(err.value)
            out = tmp_path / key
            assert main(["planelike", "--config", write_config(tmp_path, raw),
                         "--out", str(out)]) == 2
            assert f"'{key}'" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("key,values,bad", [
        ("radii", [2.0, 3.0, math.nan, 5.0], "nan"),
        ("radii", [2.0, 3.0, -4.0, 5.0], "-4.0"),
        ("radii", [0.0, 3.0, 4.0, 5.0], "0.0"),
        ("tau_list", [1.0, math.inf], "inf"),
        ("tau_list", [1.0, math.nan], "nan"),
    ])
    def test_list_entry_rejection_names_key_and_value(self, key, values, bad):
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_dict(base_config(experiment={key: values}))
        assert f"experiment.{key}" in str(err.value)
        assert str(err.value).endswith(f": {bad}")

    def test_schema_version_required(self):
        raw = base_config()
        raw["schema_version"] = 2
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict(raw)

    def test_regime_gate_names_tag(self):
        raw = base_config(kernel={"s": 0.6})
        ExperimentConfig.from_dict(raw)              # no pipeline, no gate
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_dict(raw, kind="gamma")
        assert err.value.tag == "s<1/2"

    def test_epsilon_gate(self):
        raw = base_config(solver={"epsilon": 2.0})
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_dict(raw)
        assert err.value.tag == "eps<=tau"

    def test_whole_number_floats_accepted(self, tmp_path):
        raw = base_config(kernel={"dim": 2.0},
                          geometry={"cells_per_tau": 6.0, "direction": [0.0, 1]},
                          experiment={"trials": 2.0}, seed=7.0)
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.seed == 7 and isinstance(cfg.seed, int)
        assert type(cfg.kernel_spec().dim) is int and cfg.kernel_spec().dim == 2
        path = write_config(tmp_path, base_config(kernel={"dim": 2.0}))
        assert main(["validate", "--config", path,
                     "--out", str(tmp_path / "out")]) == 0
        assert cfg.domain().n_p == 6 and cfg.domain().direction.p == (0, 1)
        # whole components with a common factor are a domain error, not a
        # config error
        ExperimentConfig.from_dict(base_config(geometry={"direction": [2, 4]}))

    def test_readme_table_mirrors_key_table(self):
        # one README row per key, with the default the key table sets, and
        # "*library*" where it leaves the key to the library
        readme = {}
        for line in README.read_text().splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if line.startswith("| `") and len(cells) == 4:
                readme[cells[0].strip("`")] = cells[3]
        defaults = {f"{section}.{key}" if section else key: row[2]
                    for section, rows in cli._KEYS.items()
                    for key, row in rows.items()}
        assert set(readme) == set(defaults)
        for name, default in defaults.items():
            if default is None:
                assert readme[name].startswith("*library*"), name
            else:
                assert readme[name] == f"`{json.dumps(default)}`", name

    def test_spec_keys_are_the_spec_fields(self):
        # tau comes from the geometry, the potential's epsilon from the
        # solver section
        for section, spec, elsewhere in (
                ("kernel", KernelSpec, {"tau"}),
                ("potential", PotentialSpec, {"tau", "epsilon"})):
            assert set(cli._KEYS[section]) == (
                {f.name for f in fields(spec)} - elsewhere)
        assert "epsilon" in cli._KEYS["solver"]

    def test_domain_snaps_to_grid(self):
        cfg = ExperimentConfig.from_dict(base_config())
        dom = cfg.domain()
        assert dom.n_p == 6
        assert dom.M == pytest.approx(4.0)


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


# configs that exit 2 before --out exists, by case id; a case with a fourth
# entry names that key on stderr.  The ids are fixed strings, not row
# numbers, so deleting a row renames no other case
BAD_CONFIGS = {
    "planelike-geometry0": ("planelike", "geometry", {"r_cut_factor": 0.1}),
    "planelike-geometry1": ("planelike", "geometry", {"M_factor": 0.5}),
    "barrier-kernel2": ("barrier", "kernel", {"family": "modulated"}),
    "scaling-experiment3": ("scaling", "experiment",
                            {"radii": [2.0, 3.0, 4.0]}),
    # counts and lattice components must be whole numbers
    "planelike-geometry4": ("planelike", "geometry", {"direction": [1.5, 1]}),
    "planelike-geometry5": ("planelike", "geometry", {"cells_per_tau": 6.7}),
    "validate-geometry6": ("validate", "geometry", {"cells_per_tau": "6"}),
    "planelike-solver7": ("planelike", "solver", {"epsilon": "0.25"}),
    "planelike-experiment8": ("planelike", "experiment", {"trials": 2.9}),
    "validate-seed9": ("validate", "seed", 7.9),
    "validate-geometry10": ("validate", "geometry", {"direction": [1.5, 1]}),
    "validate-experiment11": ("validate", "experiment",
                              {"directions": [[0, 1], [1, 0.5]]}),
    # barrier radius and bound: finite and positive
    "barrier-experiment12": ("barrier", "experiment", {"barrier_R": math.nan}),
    "barrier-experiment13": ("barrier", "experiment", {"barrier_R": -5.0}),
    "barrier-experiment14": ("barrier", "experiment",
                             {"barrier_delta": math.nan}),
    "barrier-experiment15": ("barrier", "experiment",
                             {"barrier_delta": math.inf}),
    "barrier-experiment16": ("barrier", "experiment", {"barrier_delta": 0.0}),
    # geometry numbers: finite, positive, the buffer also 0
    "planelike-geometry17": ("planelike", "geometry", {"cells_per_tau": 0}),
    "planelike-geometry18": ("planelike", "geometry", {"M_factor": math.inf}),
    "planelike-geometry19": ("planelike", "geometry",
                             {"buffer_factor": math.inf}),
    "planelike-geometry20": ("planelike", "geometry", {"buffer_factor": -1.0}),
    "planelike-geometry21": ("planelike", "geometry",
                             {"r_cut_factor": math.inf}),
    "planelike-geometry22": ("planelike", "geometry", {"tau": math.inf}),
    "perimeter-geometry23": ("perimeter", "geometry", {"tau": 0.0}),
    "perimeter-geometry24": ("perimeter", "geometry", {"tau": math.nan}),
    # ball radii: every entry finite and positive
    "scaling-experiment25": ("scaling", "experiment",
                             {"radii": [2.0, 3.0, math.nan, 5.0]}),
    "scaling-experiment26": ("scaling", "experiment",
                             {"radii": [2.0, 3.0, -4.0, 5.0]}),
    "scaling-experiment27": ("scaling", "experiment",
                             {"radii": [0.0, 3.0, 4.0, 5.0]}),
    # no vacuous pass: lists are non-empty, counts at least 1
    "planelike-experiment28": ("planelike", "experiment",
                               {"tau_list": []}, "experiment.tau_list"),
    "planelike-experiment29": ("planelike", "experiment",
                               {"directions": []}, "experiment.directions"),
    "scaling-experiment30": ("scaling", "experiment",
                             {"radii": []}, "experiment.radii"),
    "gamma-experiment31": ("gamma", "experiment",
                           {"eps_list": []}, "experiment.eps_list"),
    "planelike-experiment32": ("planelike", "experiment",
                               {"trials": 0}, "experiment.trials"),
    # ranges checked before --out exists, not in the pipeline
    "planelike-solver33": ("planelike", "solver", {"epsilon": 0.0}, "epsilon"),
    "planelike-solver34": ("planelike", "solver",
                           {"epsilon": math.nan}, "epsilon"),
    "planelike-solver35": ("planelike", "solver",
                           {"theta": 1.5}, "solver.theta"),
    "planelike-solver36": ("planelike", "solver",
                           {"theta": 0.0}, "solver.theta"),
    "gamma-experiment37": ("gamma", "experiment",
                           {"eps_list": [0.5, 1.0]}, "experiment.eps_list"),
    "validate-seed42": ("validate", "seed", -1, "seed"),
}


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

    @pytest.mark.parametrize("command,section,values,named", [
        pytest.param(command, section, values, (named or [""])[0], id=case)
        for case, (command, section, values, *named) in BAD_CONFIGS.items()])
    def test_bad_geometry_exits_two_before_output(self, tmp_path, capsys,
                                                  command, section, values,
                                                  named):
        raw = base_config(**{section: values})
        path = write_config(tmp_path, raw)
        assert main([command, "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration rejected")
        assert named in err
        assert not (tmp_path / "out").exists()

    # a value of the wrong kind is named with its key
    @pytest.mark.parametrize("command,section,values,shown", [
        ("validate", "kernel", {"dim": 2.5}, "kernel.dim must be a whole "
                                             "number, got 2.5"),
        ("validate", "kernel", {"dim": "2"}, "kernel.dim must be a whole "
                                             "number, got '2'"),
        ("validate", "kernel", {"s": "0.3"}, "kernel.s must be a number, "
                                             "got '0.3'"),
        ("planelike", "geometry", {"tau": "1.0"}, "geometry.tau must be a "
                                                  "number, got '1.0'"),
        ("scaling", "experiment", {"radii": ["a", 3, 4, 5]},
         "experiment.radii entry must be a number, got 'a'"),
        ("gamma", "experiment", {"eps_list": [1.0, "x"]},
         "experiment.eps_list entry must be a number, got 'x'"),
        ("validate", "experiment", {"trials": [2]},
         "experiment.trials must be a whole number, got [2]"),
        ("scaling", "experiment", {"radii": 5},
         "experiment.radii must be a non-empty list, got 5"),
        ("validate", "geometry", {"direction": 5},
         "geometry.direction must be a non-empty list, got 5"),
        ("validate", "experiment", {"directions": [1, 0]},
         "experiment.directions entry must be a non-empty list, got 1"),
        ("validate", "kernel", [], "kernel must be an object, got []"),
        ("validate", "kernel", {"dim": True},
         "kernel.dim must be a whole number, got True"),
        ("validate", "kernel", {"family": 1},
         "kernel.family must be a string, got 1"),
        ("validate", "potential", {"Q_modulation": "no"},
         "potential.Q_modulation must be true or false, got 'no'"),
        ("validate", "potential", {"Q_modulation": 0.5},
         "potential.Q_modulation must be true or false, got 0.5"),
        # section None: the value is the whole configuration
        ("validate", None, [], "the configuration's top level must be an "
                               "object, got []"),
    ], ids=["dim-fraction", "dim-string", "s-string", "tau-string",
            "radii-entry", "eps_list-entry", "trials-list", "radii-number",
            "direction-number", "directions-flat", "kernel-list", "dim-bool",
            "family-number", "Q_modulation-string", "Q_modulation-number",
            "top-level-list"])
    def test_wrong_kind_of_value_names_key(self, tmp_path, capsys, command,
                                           section, values, shown):
        raw = values if section is None else base_config(**{section: values})
        path = write_config(tmp_path, raw)
        assert main([command, "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.rstrip().endswith(shown)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "planelike"])
    def test_seed_override_checked_by_key_row(self, tmp_path, capsys,
                                              command):
        path = write_config(tmp_path, base_config())
        for flag, value, shown in [
                ("--seed", "-1", "--seed must be finite and nonnegative: -1"),
                ("--threads", "0", "--threads must be finite and positive: 0"),
                ("--threads", "-3",
                 "--threads must be finite and positive: -3")]:
            assert main([command, "--config", path, flag, value,
                         "--out", str(tmp_path / "out")]) == 2, flag
            err = capsys.readouterr().err
            assert err.startswith("configuration rejected")
            assert shown in err
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

    def test_strip_solve_below_unit_tau_rejected(self, tmp_path, capsys):
        raw = base_config(geometry={"tau": 0.5})
        path = write_config(tmp_path, raw)
        for command in ("planelike", "scaling", "barrier"):
            assert main([command, "--config", path,
                         "--out", str(tmp_path / "out")]) == 2
            assert "[xi=tau]" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()
        # every period of a tau list is checked
        path = write_config(tmp_path, base_config(
            experiment={"tau_list": [1.0, 0.5]}))
        assert main(["planelike", "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
        assert "[xi=tau]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # the kernel works in dimensions 1 and 2, and every direction has
    # kernel.dim components
    @pytest.mark.parametrize("command,kernel,geometry,experiment", [
        ("planelike", {"dim": 3}, {}, {}),
        ("planelike", {"dim": 1}, {"direction": [1]},
         {"directions": [[0, 1]]}),
        ("planelike", {"dim": 3}, {"direction": [0, 0, 1]}, {}),
        ("validate", {"dim": 3}, {"direction": [0, 0, 1]}, {}),
    ])
    def test_kernel_dimension_checked_before_output(
            self, tmp_path, capsys, command, kernel, geometry, experiment):
        raw = base_config(kernel=kernel, geometry=geometry,
                          experiment=experiment)
        path = write_config(tmp_path, raw)
        assert main([command, "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
        assert "dim" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_planelike_one_dimensional(self, tmp_path):
        # the file names carry every direction component; the verdicts are
        # physics (a 4-tau strip is too short for disttau), the exit code
        # follows them
        raw = base_config(kernel={"dim": 1}, geometry={"direction": [1]},
                          experiment={"trials": 2, "directions": [[1]]})
        path = write_config(tmp_path, raw)
        code = main(["planelike", "--config", path,
                     "--out", str(tmp_path / "out")])
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "field_tau1_w1.csv", "report.json", "trace_tau1_w1.csv"]
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert code == (0 if rep["passed"] else 1)
        assert rep["rows"][0]["direction"] == [1]
        verdicts = {v["tag"]: v["passed"] for v in rep["verdicts"]}
        assert verdicts["birkhoff"] and verdicts["classA"]

    def test_scaling_profiles_at_interface_and_theta(self, tmp_path):
        # the balls are centred at the interface height and the interface
        # profile counts the {|u| < theta} band of the obstacles
        radii = [1.0, 1.5, 2.0, 2.5]
        raw = base_config(experiment={"radii": radii},
                          solver={"theta": 0.5, "epsilon": 0.25})
        path = write_config(tmp_path, raw)
        main(["scaling", "--config", path, "--out", str(tmp_path / "out")])
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        cfg = ExperimentConfig.from_dict(raw, kind="scaling")
        domain, = cfg.strip_domains()
        field = cli._solve_one(cfg, domain)[2].field
        center = (0.5 * domain.n_p * domain.h,
                  geometry.interface_height(field))
        assert rep["center"] == list(center)
        lines = (tmp_path / "out" / "interface_profile.csv").read_text()
        written = [float(line.split(",")[1])
                   for line in lines.splitlines()[1:]]
        band = [v for _, v, _ in geometry.interface_profile(
            field, 0.5, center, radii, xi=1.0)]
        assert written == band
        assert band != [v for _, v, _ in geometry.interface_profile(
            field, 0.9, center, radii, xi=1.0)]

    def test_scaling_pipeline_synthetic_fit(self, tmp_path):
        raw = base_config(experiment={"radii": [1.0, 1.5, 2.0, 2.5]},
                          solver={"epsilon": 0.25})
        path = write_config(tmp_path, raw)
        main(["scaling", "--config", path, "--out", str(tmp_path / "out")])
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["fit"] is not None
        assert (tmp_path / "out" / "scaling.csv").exists()

    def test_barrier_pipeline_end_to_end(self, tmp_path, capsys):
        # at the default radius the assembled threshold R0 is far above R
        # (about 1.8e6 at s = 0.75), so the run is rejected; at R = 4e6 the
        # chain verifies and the slide is skipped, since the slide ball of
        # a desk-sized strip is far below R0
        raw = base_config(kernel={"s": 0.75})
        path = write_config(tmp_path, raw)
        assert main(["barrier", "--config", path,
                     "--out", str(tmp_path / "default")]) == 2
        assert "below the assembled threshold" in capsys.readouterr().err
        raw["experiment"] = {"barrier_R": 4e6}
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["barrier", "--config", path, "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert {v["tag"]: v["passed"] for v in rep["verdicts"]} == {
            "LKwbar": True, "wbarest-lower": True, "wbarest-upper": True}
        assert rep["constants"]["R0"] > 1e6
        assert "below assembled threshold" in rep["slide"]["skipped"]
        assert (out / "barrier_profile.csv").exists()
