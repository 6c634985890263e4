"""Span recording for the traced benchmark run.

Spans are recorded from outside the package.  For the length of one traced
batch, each instrumented public function is replaced by a wrapper installed
where its callers look it up: the importing module's global for functions,
the class attribute for methods.  Each span keeps its name, start, end and
parent; spans stay in memory until the batch ends and are then reduced to
the per-layer metrics.  A span's layer is the first dotted part of its name.
"""

import functools
import os
import time
from contextlib import contextmanager

LAYERS = ("greens", "foldy_lax", "sparse_solvers", "imaging", "random_medium",
          "experiments", "bench")


class Tracer:
    """In-memory span and counter store for one traced batch."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def current(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, fn, name, count=None):
        """Return ``fn`` recording a span per call; ``name`` may be a
        function of the call's arguments, ``count(tracer, args, result)``
        records counters after the call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name(args) if callable(name) else name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, args, result)
            return result
        return traced

    def busy(self, name):
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def calls(self, name):
        return sum(1 for n, *_ in self.spans if n == name)

    def self_times(self):
        """Per-span duration minus the duration of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_by(self, key):
        totals = {}
        for (name, *_), own in zip(self.spans, self.self_times()):
            k = key(name)
            totals[k] = totals.get(k, 0.0) + own
        return totals


@contextmanager
def patched(replacements):
    """Set ``owner.attr = value`` for each triple and restore on exit."""
    saved = [(owner, attr, owner.__dict__[attr] if isinstance(owner, type)
              else getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _file_bytes(counter):
    def count(tracer, args, _result):
        tracer.add(counter, os.path.getsize(args[0]))
    return count


def _solve_counts(tracer, _args, sol):
    tracer.add("sparse_solvers.iterations", sol.iterations)
    tracer.add("sparse_solvers.converged", int(sol.converged))
    tracer.add("sparse_solvers.solves", 1)


def _trial_counts(tracer, _args, out):
    report, _ = out
    tracer.add("experiments.failed_trials", int(bool(report.error)))
    tracer.add("experiments.exact_trials", int(report.support_exact))


def _interpolated_points(tracer, args, _result):
    tracer.add("random_medium.interpolate.points", len(args[1]))


def instrument(tracer, pkg):
    """Replacements that trace every layer's public entry points.

    ``pkg`` holds the imported modules by name.  Each entry names the layer
    that owns the function, so its time is charged there however it is
    reached.
    """
    exp, fl, img, rm = pkg["experiments"], pkg["foldy_lax"], pkg["imaging"], \
        pkg["random_medium"]

    def svd_name(args):  # the response matrix caches its SVD after one call
        return "foldy_lax.svd" if args[0]._svd is None else "foldy_lax.svd.cached"

    def smv_name(_args):  # hybrid-l1 reuses the SMV solver on its reduced system
        return "sparse_solvers.hybrid" if tracer.current() == "imaging.image_hybrid_l1" \
            else "sparse_solvers.smv"

    table = [
        (exp, "run_scenario", "experiments.run_scenario", None),
        (exp, "monte_carlo_stability", "experiments.monte_carlo_stability", None),
        (exp, "build_scene", "experiments.build_scene", None),
        (exp, "run_trial", "experiments.run_trial", _trial_counts),
        (exp, "sensing_matrix", "greens.sensing_matrix", None),
        (fl, "pairwise_green_matrix", "greens.pairwise_green_matrix", None),
        (img, "pairwise_green_matrix", "greens.pairwise_green_matrix", None),
        (exp, "response_matrix_foldy_lax", "foldy_lax.response", None),
        (exp, "response_matrix_born", "foldy_lax.response", None),
        (fl.ResponseMatrix, "svd", svd_name, None),
        (exp, "save_response_matrix", "foldy_lax.save_response_matrix",
         _file_bytes("foldy_lax.save_response_matrix.bytes")),
        (img, "solve_l1_smv", smv_name, _solve_counts),
        (img, "solve_l1_mmv", "sparse_solvers.mmv", _solve_counts),
        (exp, "image_smv", "imaging.image_smv", None),
        (exp, "image_mmv", "imaging.image_mmv", None),
        (exp, "image_hybrid_l1", "imaging.image_hybrid_l1", None),
        (img, "reflectivities_from_sources", "imaging.step2", None),
        (img, "build_hybrid_system", "imaging.hybrid_system", None),
        (exp, "optimal_illuminations", "imaging.optimal_illuminations", None),
        (exp, "image_music", "imaging.music", None),
        (exp, "image_km", "imaging.km", None),
        (exp, "sample_field", "random_medium.sample_field", None),
        (rm, "sample_field", "random_medium.sample_field", None),
        (exp, "response_matrix_random", "random_medium.response", None),
        (rm, "random_green_vector", "random_medium.random_green_vector", None),
        (rm.RandomFieldRealization, "interpolate", "random_medium.interpolate",
         _interpolated_points),
        (rm, "estimate_stability_ratio", "random_medium.estimate_stability_ratio", None),
    ]
    for writer in ("write_support_csv", "write_image_csv", "write_pgm"):
        table.append((exp, writer, "imaging.writes", _file_bytes("imaging.writes.bytes")))
    return [(owner, attr, tracer.wrap(getattr(owner, attr), name, count))
            for owner, attr, name, count in table]


def layer_metrics(tracer):
    """Per-layer metrics of one traced batch whose root span is ``bench.batch``."""
    t, c = tracer, tracer.counts
    solver_busy = sum(t.busy(f"sparse_solvers.{m}") for m in ("smv", "mmv", "hybrid"))
    iterations = c.get("sparse_solvers.iterations", 0)
    by_name = t.self_by(lambda name: name)
    by_layer = t.self_by(lambda name: name.split(".", 1)[0])
    out = {
        "greens.sensing_matrix.busy_s": (t.busy("greens.sensing_matrix"), "s"),
        "greens.sensing_matrix.calls": (t.calls("greens.sensing_matrix"), "count"),
        "greens.pairwise_green_matrix.busy_s": (t.busy("greens.pairwise_green_matrix"), "s"),
        "foldy_lax.response.busy_s": (t.busy("foldy_lax.response"), "s"),
        "foldy_lax.svd.busy_s": (t.busy("foldy_lax.svd") + t.busy("foldy_lax.svd.cached"), "s"),
        "foldy_lax.svd.computed": (t.calls("foldy_lax.svd"), "count"),
        "foldy_lax.svd.calls": (t.calls("foldy_lax.svd") + t.calls("foldy_lax.svd.cached"),
                                "count"),
        "foldy_lax.save_response_matrix.busy_s":
            (t.busy("foldy_lax.save_response_matrix"), "s"),
        "foldy_lax.save_response_matrix.bytes":
            (c.get("foldy_lax.save_response_matrix.bytes", 0), "bytes"),
        "sparse_solvers.smv.busy_s": (t.busy("sparse_solvers.smv"), "s"),
        "sparse_solvers.mmv.busy_s": (t.busy("sparse_solvers.mmv"), "s"),
        "sparse_solvers.hybrid.busy_s": (t.busy("sparse_solvers.hybrid"), "s"),
        "sparse_solvers.iterations": (iterations, "count"),
        "sparse_solvers.s_per_iteration": (solver_busy / iterations if iterations else 0.0, "s"),
        "sparse_solvers.converged": (c.get("sparse_solvers.converged", 0), "count"),
        "sparse_solvers.solves": (c.get("sparse_solvers.solves", 0), "count"),
        "imaging.step2.busy_s": (t.busy("imaging.step2"), "s"),
        "imaging.hybrid_system.busy_s": (t.busy("imaging.hybrid_system"), "s"),
        "imaging.optimal_illuminations.busy_s": (t.busy("imaging.optimal_illuminations"), "s"),
        "imaging.music.busy_s": (t.busy("imaging.music"), "s"),
        "imaging.km.busy_s": (t.busy("imaging.km"), "s"),
        "imaging.writes.busy_s": (t.busy("imaging.writes"), "s"),
        "imaging.writes.bytes": (c.get("imaging.writes.bytes", 0), "bytes"),
        "random_medium.sample_field.busy_s": (t.busy("random_medium.sample_field"), "s"),
        "random_medium.sample_field.calls": (t.calls("random_medium.sample_field"), "count"),
        "random_medium.random_green_vector.busy_s":
            (t.busy("random_medium.random_green_vector"), "s"),
        "random_medium.interpolate.busy_s": (t.busy("random_medium.interpolate"), "s"),
        "random_medium.interpolate.points":
            (c.get("random_medium.interpolate.points", 0), "count"),
        "random_medium.estimate_stability_ratio.busy_s":
            (t.busy("random_medium.estimate_stability_ratio"), "s"),
        "experiments.build_scene.self_s": (by_name.get("experiments.build_scene", 0.0), "s"),
        "experiments.run_trial.self_s": (by_name.get("experiments.run_trial", 0.0), "s"),
        "experiments.monte_carlo_stability.self_s":
            (by_name.get("experiments.monte_carlo_stability", 0.0), "s"),
        "experiments.trials": (t.calls("experiments.run_trial"), "count"),
        "experiments.failed_trials": (c.get("experiments.failed_trials", 0), "count"),
        "experiments.exact_trials": (c.get("experiments.exact_trials", 0), "count"),
        "trace.wall_s": (t.busy("bench.batch"), "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (by_layer.get(layer, 0.0), "s")
    return out
