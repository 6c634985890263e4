#!/usr/bin/env python3
"""arrayimg benchmark: run one named workload at a seed and print its metrics.

    python3 bench/run.py --workload homogeneous-l1 --seed 1 --seconds 30 --trace 0

One process, one caller: a closed loop that runs the workload's fixed batch
again while another whole batch still fits in ``--seconds``.  The library is
called through its public functions and imported from ``src/`` next to this
directory.  With ``--trace 0`` the last line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced batch and the
tracing overhead.  Earlier lines give the environment, the output checks and
the quality figures.  See ``bench/README.md`` for why each workload exists.
"""

import argparse
import contextlib
import dataclasses
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, instrument, layer_metrics, patched

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
OUT = ROOT / ".bench_out"

NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5  # fresh-interpreter set-ups; a module import is timed once per process

HOMOGENEOUS = ("fig1_multiple_scattering", "fig2_smv_noiseless",
               "fig4_optimal_illuminations", "fig5_hybrid_heavy_noise")
RANDOM = "fig89_random_medium"
SCENE_SEEDS = 10         # consecutive seeds per random-medium-scenes batch
MC_REALIZATIONS = 10
MC_METHODS = ["music", "km"]
STABILITY_N = 101
STABILITY_REALIZATIONS = 100
STABILITY_OFFSET = 10.0  # cross-range separation of the two points, wavelengths
WORKLOADS = ("homogeneous-l1", "random-medium-scenes", "random-medium-mc")
L1_METHODS = ("smv", "mmv", "hybrid")
SYMMETRY_RTOL = 1e-10    # reciprocity tolerance the Foldy-Lax/Born tests use
NOISE_RTOL = 1e-12       # |E|_F must equal percent * |P|_F up to rounding


def import_package():
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    from arrayimg import (config, experiments, foldy_lax, geometry, imaging,
                          random_medium)
    return {"numpy": numpy, "scipy": scipy, "config": config,
            "experiments": experiments, "foldy_lax": foldy_lax,
            "geometry": geometry, "imaging": imaging,
            "random_medium": random_medium}


def plan(pkg, workload, seed):
    """Load the workload's scenarios and return its batch as a job list.

    A job is ``(kind, payload)``: ``scenario`` runs ``run_scenario`` with
    artifacts, ``mc`` runs ``monte_carlo_stability`` with its table and
    ``stability`` runs ``estimate_stability_ratio``.
    """
    load = pkg["config"].load_config  # looked up per call so a trace sees it
    if workload == "homogeneous-l1":
        return [("scenario", (load(SCENARIOS / f"{name}.ini"), seed))
                for name in HOMOGENEOUS]
    cfg = load(SCENARIOS / f"{RANDOM}.ini")
    if workload == "random-medium-scenes":
        return [("scenario", (cfg, seed + i)) for i in range(SCENE_SEEDS)]
    geo, rm = pkg["geometry"], pkg["random_medium"]
    spec = rm.RandomMediumSpec(correlation_length=cfg.correlation_length,
                               sigma=cfg.sigma, kernel=cfg.kernel,
                               lattice_spacing=cfg.lattice_spacing, master_seed=seed)
    geom = geo.build_linear_array(STABILITY_N, max(cfg.apertures) / (STABILITY_N - 1))
    y1 = [0.0, cfg.center_range]
    y2 = [STABILITY_OFFSET, cfg.center_range]
    # monte_carlo_stability draws its realizations from seeds 1..R itself
    return [("mc", dataclasses.replace(cfg, methods=MC_METHODS)),
            ("stability", (geom, y1, y2, geo.WaveContext(cfg.wavelength), spec, seed))]


def setup(workload, seed):
    pkg = import_package()
    return pkg, plan(pkg, workload, seed)


class Collector:
    """Checks each scene as it is built and keeps each trial's outcome.

    It wraps ``build_scene`` and ``run_trial`` where ``experiments`` looks
    them up; the check work runs in a ``bench.check`` span when traced.
    """

    def __init__(self, pkg, tracer=None):
        self.np = pkg["numpy"]
        self.exp = pkg["experiments"]
        self.tracer = tracer
        self.scenes = []   # {"symmetric", "bitwise", "noise"}
        self.trials = []   # {"method", "error", "exact", "refl", "converged", "scene", "job"}
        self.job = -1

    def _checking(self):
        return self.tracer.span("bench.check") if self.tracer else contextlib.nullcontext()

    def hooks(self):
        build_scene, run_trial = self.exp.build_scene, self.exp.run_trial

        def checked_build_scene(cfg, seed, *args, **kwargs):
            scene = build_scene(cfg, seed, *args, **kwargs)
            with self._checking():
                self.scenes.append(self.check_scene(scene))
            return scene

        def recorded_run_trial(scene, method, seed):
            report, result = run_trial(scene, method, seed)
            diag = result.diagnostics if result is not None else {}
            self.trials.append({
                "method": method, "error": report.error, "exact": report.support_exact,
                "refl": report.reflectivity_error, "converged": diag.get("converged"),
                "iterations": diag.get("iterations"), "has_result": result is not None,
                "scene": len(self.scenes) - 1, "job": self.job})
            return report, result

        return [(self.exp, "build_scene", checked_build_scene),
                (self.exp, "run_trial", recorded_run_trial)]

    def check_scene(self, scene):
        np = self.np
        p = scene.response.matrix
        bitwise = bool(np.array_equal(p, p.T))
        if scene.response.provenance == "random-medium":  # mirrored: promised bit-exact
            symmetric = bitwise
        else:
            symmetric = bool(np.linalg.norm(p - p.T) <= SYMMETRY_RTOL * np.linalg.norm(p))
        target = scene.cfg.noise_percent * np.linalg.norm(p)
        noise = np.linalg.norm(scene.noise_matrix)
        return {"symmetric": symmetric, "bitwise": bitwise,
                "noise": bool(abs(noise - target) <= NOISE_RTOL * target)}


def run_batch(pkg, jobs, collector):
    """Run every job once; return ``(stability estimates, expected artifacts)``.

    Expected artifacts are ``(path, job index, method or None)``.
    """
    exp, rm = pkg["experiments"], pkg["random_medium"]
    estimates, expected = [], []
    for index, (kind, payload) in enumerate(jobs):
        collector.job = index
        if kind == "scenario":
            cfg, seed = payload
            exp.run_scenario(cfg, seed, out_dir=OUT)
            run_dir = OUT / cfg.scenario_id / str(seed)
            expected += [(run_dir / f, index, None)
                         for f in ("config.ini", "report.csv", "timings.csv", "response.csv")]
            for trial in collector.trials:
                if trial["job"] == index and trial["has_result"]:
                    m = trial["method"]
                    files = [f"{m}_support.csv", f"{m}_image.csv"] + \
                        ([f"{m}_image.pgm"] if cfg.write_pgm else [])
                    expected += [(run_dir / f, index, m) for f in files]
        elif kind == "mc":
            exp.monte_carlo_stability(payload, realizations=MC_REALIZATIONS, out_dir=OUT)
            expected.append((OUT / f"{payload.scenario_id}_stability.csv", index, None))
        else:
            geom, y1, y2, ctx, spec, seed = payload
            estimates.append(rm.estimate_stability_ratio(
                geom, y1, y2, ctx, spec, realizations=STABILITY_REALIZATIONS,
                mode="self", master_seed=seed))
    return estimates, expected


def timed_batch(pkg, jobs, tracer=None):
    """One batch with the output directory emptied first; returns
    ``(wall seconds, collector, estimates, expected artifacts, bytes written)``."""
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    collector = Collector(pkg, tracer)
    traced = patched(instrument(tracer, pkg)) if tracer else contextlib.nullcontext()
    with traced:
        with patched(collector.hooks()):
            start = time.perf_counter()
            if tracer:
                with tracer.span("bench.batch"):
                    estimates, expected = run_batch(pkg, jobs, collector)
            else:
                estimates, expected = run_batch(pkg, jobs, collector)
            wall = time.perf_counter() - start
    written = sum(f.stat().st_size for f in OUT.rglob("*") if f.is_file())
    return wall, collector, estimates, expected, written


class Outcome:
    """Checks and quality figures accumulated over a run's batches."""

    def __init__(self):
        self.trials = []
        self.scenes = []
        self.missing = []
        self.expected = 0
        self.bad_estimates = 0
        self.estimates = 0
        self.failed = 0

    def add(self, collector, estimates, expected):
        missing = [(p, job, m) for p, job, m in expected if not p.is_file()]
        self.expected += len(expected)
        self.missing += [str(p.relative_to(OUT)) for p, _, _ in missing]
        bad_scene = {i for i, s in enumerate(collector.scenes)
                     if not (s["symmetric"] and s["noise"])}
        for t in collector.trials:
            lost = any(job == t["job"] and m in (None, t["method"]) for _, job, m in missing)
            self.failed += bool(t["error"] or t["scene"] in bad_scene or lost)
        bad = [e for e in estimates
               if not (math.isfinite(e.estimate) and e.estimate >= 0
                       and math.isfinite(e.std_error))]
        self.failed += len(bad)
        self.bad_estimates += len(bad)
        self.estimates += len(estimates)
        self.trials += collector.trials
        self.scenes += collector.scenes

    @property
    def attempted(self):
        return len(self.trials) + self.estimates

    def checks(self):
        return {
            "trials": len(self.trials),
            "trial_errors": sum(bool(t["error"]) for t in self.trials),
            "scenes": len(self.scenes),
            "asymmetric_responses": sum(not s["symmetric"] for s in self.scenes),
            "bitwise_asymmetric_responses": sum(not s["bitwise"] for s in self.scenes),
            "noise_norm_mismatches": sum(not s["noise"] for s in self.scenes),
            "artifacts_expected": self.expected,
            "artifacts_missing": self.missing,
            "stability_estimates": self.estimates,
            "stability_estimates_invalid": self.bad_estimates,
        }

    def l1_trials(self):
        return [t for t in self.trials if t["method"] in L1_METHODS and t["has_result"]]

    def quality(self):
        """exact_rate, failed_share, unconverged_share, reflectivity_err; the
        last two are None on a workload without l1 solves."""
        l1 = self.l1_trials()
        refl = [t["refl"] for t in l1 if t["exact"] and math.isfinite(t["refl"])]
        return {
            "exact_rate": (sum(t["exact"] for t in self.trials) / len(self.trials)
                           if self.trials else None, "share"),
            "failed_share": (self.failed / self.attempted, "share"),
            "unconverged_share": (sum(not t["converged"] for t in l1) / len(l1)
                                  if l1 else None, "share"),
            "reflectivity_err": (statistics.median(refl) if refl else None, "ratio"),
        }

    def solves(self):
        return [{"method": t["method"], "iterations": t["iterations"],
                 "converged": t["converged"]} for t in self.l1_trials()]


def environment(pkg):
    np = pkg["numpy"]
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = {"name": "unknown", "version": "unknown"}
    src_lines = sum(len(f.read_text().splitlines()) for f in SRC.rglob("*.py"))
    return {"nproc": NPROC, "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": pkg["scipy"].__version__,
            "blas": blas, "blas_threads": BLAS_THREADS, "src_lines": src_lines}


def setup_seconds(workload, seed):
    """Set-up time (imports, load_config, input generation) of fresh
    interpreters, run one after another."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--probe-setup"], capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def emit(line):
    print(json.dumps(line), flush=True)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "arrayimg").is_dir() or not SCENARIOS.is_dir():
        sys.exit(f"bench: {SRC} and {SCENARIOS} are required; run from a full checkout")
    for var in BLAS_ENV:  # must precede the first numpy import
        os.environ[var] = str(BLAS_THREADS)

    if args.probe_setup:
        start = time.perf_counter()
        setup(args.workload, args.seed)
        print(time.perf_counter() - start)
        return 0

    if args.trace:
        return traced_run(args)
    setup_s, samples = setup_seconds(args.workload, args.seed)
    pkg, jobs = setup(args.workload, args.seed)
    env = environment(pkg)
    outcome = Outcome()
    walls, written = [], 0
    start = time.perf_counter()
    while True:
        wall, collector, estimates, expected, written = timed_batch(pkg, jobs)
        outcome.add(collector, estimates, expected)
        walls.append(wall)
        if time.perf_counter() - start + wall > args.seconds:
            break
    shutil.rmtree(OUT, ignore_errors=True)
    wall_s = statistics.median(walls)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    emit({"env": env, "workload": args.workload, "seed": args.seed,
          "batches": len(walls), "batch_walls_s": walls, "setup_samples_s": samples})
    emit({"checks": outcome.checks(),
          "counters": {"l1_solves": outcome.solves(), "bytes_written": written}})
    quality = {k: metric(v, u) for k, (v, u) in outcome.quality().items()}
    gated = {"wall_s": metric(wall_s, "s"), "setup_s": metric(setup_s, "s"),
             "peak_rss_mib": metric(peak, "MiB")}
    emit({"end_to_end": {**gated, **quality}})
    emit({"correct": outcome.failed == 0, "attempted": outcome.attempted,
          "failed": outcome.failed, "metrics": gated})
    return 0


def traced_run(args):
    """Alternate untraced and traced batches; report the traced per-layer
    metrics (median over traced batches) and the tracing overhead."""
    pkg = import_package()
    setup_tracer = Tracer()
    cfg = pkg["config"]
    with patched([(cfg, "load_config", setup_tracer.wrap(cfg.load_config,
                                                         "config.load_config"))]):
        jobs = plan(pkg, args.workload, args.seed)
    env = environment(pkg)
    outcome = Outcome()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        wall, collector, estimates, expected, _ = timed_batch(pkg, jobs)
        outcome.add(collector, estimates, expected)
        plain.append(wall)
        tracer = Tracer()
        wall, collector, estimates, expected, _ = timed_batch(pkg, jobs, tracer)
        outcome.add(collector, estimates, expected)
        traced.append(wall)
        layers.append(layer_metrics(tracer))
        if time.perf_counter() - start + plain[-1] + wall > args.seconds:
            break
    shutil.rmtree(OUT, ignore_errors=True)
    metrics = {name: metric(statistics.median(run[name][0] for run in layers), unit)
               for name, (_, unit) in layers[0].items()}
    metrics["config.load_config.busy_s"] = metric(
        setup_tracer.busy("config.load_config"), "s")
    metrics["trace.overhead_s"] = metric(
        statistics.median(traced) - statistics.median(plain), "s")
    emit({"env": env, "workload": args.workload, "seed": args.seed,
          "pairs": len(traced), "untraced_walls_s": plain, "traced_walls_s": traced})
    emit({"checks": outcome.checks(), "counters": {"l1_solves": outcome.solves()}})
    emit({"correct": outcome.failed == 0, "attempted": outcome.attempted,
          "failed": outcome.failed, "metrics": metrics})
    return 0


if __name__ == "__main__":
    sys.exit(main())
