"""The public names, the config keys the README documents and the entry
points the benchmark in ``bench/`` uses.

The benchmark hooks package functions by name and calls a few of them with
fixed arguments, so renaming one breaks it without breaking any other test.
This file imports ``bench/run.py`` and ``bench/spans.py`` and runs their
set-up code (no workload) against the package.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import arrayimg
from arrayimg import config

ROOT = Path(__file__).resolve().parent.parent


def _public(module):
    """The functions and classes that ``module`` defines under names without
    a leading underscore: its public API."""
    return {name for name, obj in vars(module).items()
            if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__}


# public names that no command, workload, tool or acceptance criterion reads,
# each kept for a stated reason; every other public name must be read
# somewhere beyond its definition and the unit tests
UNREFERENCED_PUBLIC = {
    "write_trace_csv": "writer of the solver trace that --trace will reach (ROADMAP item 6)",
    "paraxial_ratio": "the paper's closed-form paraxial ratio, checked against Monte Carlo",
}


def test_every_public_name_is_read_outside_unit_tests():
    """A definition is no ``ast.Name``, so a name counts as read once a package
    module (``__init__.py`` aside), ``bench/``, ``tools/`` or the acceptance
    suite uses it."""
    sources = [path.read_text() for path in
               sorted((ROOT / "src" / "arrayimg").glob("*.py"))
               + sorted((ROOT / "bench").glob("*.py"))
               + sorted((ROOT / "tools").glob("*.py"))
               + [ROOT / "tests" / "test_acceptance.py"]
               if path.name != "__init__.py"]
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}
    public = {name for m in pkgutil.iter_modules(arrayimg.__path__)
              for name in _public(importlib.import_module(f"arrayimg.{m.name}"))}
    assert set(UNREFERENCED_PUBLIC) <= public
    assert public - read == set(UNREFERENCED_PUBLIC)


def _fresh_modules(statement, prefixes):
    """Modules whose names start with one of ``prefixes`` that ``statement``
    leaves loaded in a fresh interpreter."""
    code = (f"import sys; {statement}; "
            f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    return out.strip()


def test_import_path_stays_light():
    """Importing the package and its CLI loads neither scipy.fft,
    scipy.integrate nor scipy.optimize: field synthesis imports the FFTs and
    ``autocorrelation_integral`` imports ``quad`` when called."""
    assert _fresh_modules("import arrayimg, arrayimg.cli",
                          ("scipy.fft", "scipy.integrate", "scipy.optimize")) == "[]"


def test_package_root_imports_nothing():
    """Public names are imported from their modules; the package root
    re-exports none of them, so ``import arrayimg`` loads no submodule and
    no NumPy."""
    assert _fresh_modules("import arrayimg", ("arrayimg.", "numpy")) == "[]"


def test_readme_documents_every_config_key():
    readme = (ROOT / "README.md").read_text()
    documented = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \|", readme, re.MULTILINE)
    assert len(documented) == len(set(documented))
    assert set(documented) == {(section, key) for section, keys in config._KNOWN.items()
                               for key in keys}


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "bench"))
        mp.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
        run = importlib.import_module("run")
        spans = importlib.import_module("spans")
        yield run, spans, run.import_package()


def test_every_hooked_name_exists(bench):
    run, spans, pkg = bench
    assert spans.instrument(spans.Tracer(), pkg)
    assert len(run.Collector(pkg).hooks()) == 2


def test_run_trial_hook_records_the_solve(bench):
    """The benchmark reads ``converged`` and ``iterations`` off each trial's
    ``ImagingResult.diagnostics``; a method without an l1 solve records
    ``None`` for both."""
    run, _, pkg = bench
    cfg = pkg["config"].load_config(run.SCENARIOS / "fig2_smv_noiseless.ini")
    scene = pkg["experiments"].build_scene(cfg, 1)
    collector = run.Collector(pkg)
    (recorded_run_trial,) = [hook for _, name, hook in collector.hooks()
                             if name == "run_trial"]
    for method in ("smv", "km"):
        recorded_run_trial(scene, method, 1)
    smv, km = collector.trials
    assert smv["converged"] is True and smv["iterations"] > 0 and smv["has_result"]
    assert km["converged"] is None and km["iterations"] is None and km["has_result"]


@pytest.mark.parametrize("workload", ["homogeneous-l1", "random-medium-scenes",
                                      "random-medium-mc"])
def test_plan_and_calls_bind(bench, workload):
    run, _, pkg = bench
    jobs = run.plan(pkg, workload, 1)
    assert jobs
    exp, rm = pkg["experiments"], pkg["random_medium"]
    for kind, payload in jobs:
        if kind == "scenario":
            inspect.signature(exp.run_scenario).bind(*payload, out_dir=run.OUT)
        elif kind == "mc":
            inspect.signature(exp.monte_carlo_stability).bind(
                payload, realizations=run.MC_REALIZATIONS, out_dir=run.OUT)
        else:
            geom, y1, y2, ctx, spec, seed = payload
            inspect.signature(rm.estimate_stability_ratio).bind(
                geom, y1, y2, ctx, spec, realizations=run.STABILITY_REALIZATIONS,
                mode="self", master_seed=seed)


def test_check_scene_on_fig2(bench):
    run, _, pkg = bench
    cfg = pkg["config"].load_config(run.SCENARIOS / "fig2_smv_noiseless.ini")
    scene = pkg["experiments"].build_scene(cfg, 1)
    checks = run.Collector(pkg).check_scene(scene)
    assert checks["symmetric"] and checks["noise"]
