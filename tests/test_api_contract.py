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
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import arrayimg
from arrayimg import config

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(arrayimg.__path__)])
def test_all_names_resolve(name):
    module = importlib.import_module(f"arrayimg.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing


def test_package_names_resolve():
    tree = ast.parse((ROOT / "src" / "arrayimg" / "__init__.py").read_text())
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(arrayimg, n)] == []


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
