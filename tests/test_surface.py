"""Names the benchmark and the demos rely on.

The benchmark wraps library functions and methods by name
(``perfbench/tracing.py``) and its slow oracle calls two entry queries of
`WeightTable`; the demos drive the public API end to end.  A deletion or
rename that breaks either shows up here instead of in a benchmark run.
The library has no public function or class without a caller.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nlphase.cli import ExperimentConfig
from nlphase.energy import WeightTable

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("demo_*.py"))


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _perfbench("tracing")
    for mod_name, fn_name, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), fn_name))
    for mod_name, cls_name, meth, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        assert meth in cls.__dict__, f"{cls_name}.{meth}"


def _domains(raw: dict, kind: str) -> list:
    """The strip domains a ``kind`` run of a config resolves, unsolved."""
    return ExperimentConfig.from_dict(raw, kind).strip_domains()


def test_workloads_drive_the_config_api(tmp_path):
    # MeasureWorkload reads ExperimentConfig's from_dict, domain, kernel_spec,
    # potential_spec and r_cut; the CLI workloads pass --threads 1, and every
    # config they and the demos ship resolves under its pipeline
    workloads = _perfbench("workloads")
    measure = workloads.MeasureWorkload(seed=5).prepare()
    assert len(measure.cases) == len(workloads.STRIPS)
    strip = workloads.CliWorkload("strip", 5, tmp_path / "strip").prepare()
    sweep = workloads.CliWorkload("sweep", 5, tmp_path / "cfg").prepare()
    for _, pipeline, path in strip.calls + sweep.calls:
        assert len(_domains(json.loads(path.read_text()), pipeline)) == 1
    sample = json.loads((ROOT / "demos" / "sample_config.json").read_text())
    for pipeline, n in (("planelike", 2), ("scaling", 1), ("validate", 0)):
        assert len(_domains(sample, pipeline)) == n
    # a barrier run always solves its slide strip, at the default height
    barrier = dict(sample, kernel={"dim": 2, "s": 0.75, "family": "standard"},
                   geometry={"tau": 1.0}, experiment={})
    assert len(_domains(barrier, "barrier")) == 1
    sweep.calls = [c for c in sweep.calls if c[0] == "perimeter_w11"]
    (op_name, op), = sweep.ops(tmp_path / "pass")
    failures, _, _ = sweep.check(tmp_path / "pass", {op_name: op()})
    assert failures == {"perimeter_w11": []}


def _module_aliases(tree) -> set:
    """The names a source file binds to imported modules other than
    nlphase's own (``np``, ``math``, ``ndimage``, ...)."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name.split(".")[0] for a in node.names
                        if a.name.split(".")[0] != "nlphase"}
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module.split(".")[0] != "nlphase"):
            module = importlib.import_module(node.module)
            aliases |= {a.asname or a.name for a in node.names
                        if inspect.ismodule(getattr(module, a.name, None))}
    return aliases


def _chain_root(node):
    """The name an attribute chain ``a.b.c`` starts from, else None."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def test_every_public_name_has_a_caller():
    # a reference is a name or attribute in the library, the demos or the
    # benchmark, or a name in the benchmark's tracing tables; the package's
    # __all__ strings do not count, and neither does an attribute of another
    # package's module (``np.full`` does not call ``Field.full``)
    tracing = _perfbench("tracing")
    refs = {name for row in tracing.FUNCTIONS + tracing.METHODS for name in row}
    sources = [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").glob("*.py"),
               *(ROOT / "perfbench").glob("*.py")]
    for path in sources:
        tree = ast.parse(path.read_text())
        aliases = _module_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and _chain_root(node) not in aliases):
                refs.add(node.attr)
    # a public name is a top-level function or class, or a method or
    # property of a top-level class
    public = []
    for path in sorted((ROOT / "src" / "nlphase").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                public.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                public += [(f"{path.stem}.{node.name}.{m.name}", m.name)
                           for m in node.body
                           if isinstance(m, ast.FunctionDef)]
    uncalled = [qual for qual, name in public
                if not name.startswith("_") and name not in refs]
    assert uncalled == []


def test_oracle_entry_queries_exist():
    for meth in ("offset_weight", "tail_weights"):
        assert meth in WeightTable.__dict__


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
