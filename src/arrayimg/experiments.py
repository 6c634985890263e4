"""Scenario orchestration: noise injection, trial runs, Monte-Carlo loops
over noise and medium realizations, success metrics and report files."""

import time
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .config import METHODS, ScenarioConfig, parse_illuminations
from .errors import ConfigurationError, DomainError
from .geometry import ImageWindow, WaveContext, build_linear_array, place_scatterers
from .greens import SensingMatrix, mutual_coherence, sensing_matrix, theorem1_margin
from .foldy_lax import response_matrix_born, response_matrix_foldy_lax
from .random_medium import (RandomMediumSpec, region_for, response_matrix_random,
                            sample_field)
from .sparse_solvers import SolverParams, theorem2_error_bound
from .imaging import (image_hybrid_l1, image_km, image_mmv, image_music,
                      image_smv, optimal_illuminations, select_rank)
from .io import (run_directory, save_response_matrix, write_certificates_csv,
                 write_coherence_report, write_image_csv, write_monte_carlo_csv,
                 write_pgm, write_report_csv, write_support_csv, write_timings_csv)


@dataclass
class TrialReport:
    method: str
    scenario_id: str
    seed: int
    support_exact: bool
    precision: float
    recall: float
    reflectivity_error: float  # relative l2 on the true support; NaN if n/a
    wall_time: float
    error: str = ""
    # the l1 solve, from ImagingResult.diagnostics; converged is None without one
    iterations: int = 0
    converged: bool | None = None
    residual: float = float("nan")


def add_noise(data: np.ndarray, percent: float, seed: int = 0):
    """Add complex circular Gaussian noise E drawn from ``seed``; return
    ``(data + E, ||E||_F)`` with ``||E||_F`` exactly ``percent * ||data||_F``
    (``percent`` is a fraction, not a percentage)."""
    if percent < 0:
        raise ConfigurationError("noise percent must be nonnegative")
    data = np.asarray(data, dtype=complex)
    target = percent * np.linalg.norm(data)
    if target == 0.0:
        return data.copy(), 0.0
    rng = np.random.default_rng(seed)
    e = np.empty(data.shape, dtype=complex)
    e.real = rng.standard_normal(data.shape)
    e.imag = rng.standard_normal(data.shape)
    e *= target / np.linalg.norm(e)
    return data + e, float(target)


@dataclass
class Scene:
    """Everything a trial needs: geometry, truth, and the noisy response."""

    cfg: ScenarioConfig
    sensing: object
    rho: object
    response: object  # noise-free response matrix
    noisy: object     # response matrix with injected noise

    @property
    def noise_matrix(self) -> np.ndarray:
        """The injected E (zeros if noiseless)."""
        return self.noisy.matrix - self.response.matrix


def _sensing(cfg: ScenarioConfig) -> SensingMatrix:
    """Sensing matrix of the configured array and window.  It depends on no
    seed, so scenes of one geometry share it (read-only)."""
    return _geometry_sensing(cfg.n, cfg.pitch, cfg.center_range, cfg.rows, cfg.cols,
                             cfg.spacing, cfg.wavelength)


@lru_cache(maxsize=1)
def _geometry_sensing(n, pitch, center_range, rows, cols, spacing,
                      wavelength) -> SensingMatrix:
    """``_sensing`` keyed on the geometry it reads; one geometry is kept."""
    return sensing_matrix(build_linear_array(n, pitch),
                          ImageWindow(center_range, rows, cols, spacing),
                          WaveContext(wavelength=wavelength))


def _truth(cfg: ScenarioConfig, seed: int):
    """The ``(sensing, rho)`` pair of ``build_scene``, without a forward model.
    The scatterer phases are uniform on [0, 2 pi), drawn from ``seed``."""
    sensing = _sensing(cfg)
    phases = np.random.default_rng([seed, 1]).uniform(0.0, 2.0 * np.pi, len(cfg.magnitudes))
    values = np.asarray(cfg.magnitudes) * np.exp(1j * phases)
    entries = [(sensing.window.rowcol_to_index(r, c), v)
               for (r, c), v in zip(cfg.cells, values)]
    return sensing, place_scatterers(sensing.window, entries)


def build_scene(cfg: ScenarioConfig, seed: int) -> Scene:
    """Construct geometry, draw scatterer phases, run the forward model and
    inject noise.  Sub-seeds are derived deterministically from ``seed``."""
    sensing, rho = _truth(cfg, seed)
    if cfg.medium_kind == "random-phase":
        spec = RandomMediumSpec(correlation_length=cfg.correlation_length, sigma=cfg.sigma,
                                kernel=cfg.kernel, lattice_spacing=cfg.lattice_spacing)
        region = region_for(np.vstack([sensing.geom.positions, sensing.window.points]), spec)
        field = sample_field(spec, region, seed=seed)
        response = response_matrix_random(field, sensing, rho)
    elif cfg.forward == "born":
        response = response_matrix_born(sensing, rho)
    else:
        response = response_matrix_foldy_lax(sensing, rho)

    noise_seed = int(np.random.SeedSequence([seed, 2]).generate_state(1)[0])
    noisy_mat, _ = add_noise(response.matrix, cfg.noise_percent, seed=noise_seed)
    noisy = type(response)(matrix=noisy_mat, provenance=response.provenance, seed=seed)
    return Scene(cfg=cfg, sensing=sensing, rho=rho, response=response, noisy=noisy)


def _illuminations(spec: str, scene: Scene, rng: np.random.Generator) -> np.ndarray:
    n = scene.sensing.n
    kind, value = parse_illuminations(spec, n)
    if kind == "optimal":
        return optimal_illuminations(scene.noisy, value)
    picks = rng.choice(n, size=value, replace=False) if kind == "random" else [value]
    f = np.zeros((n, len(picks)), dtype=complex)
    f[picks, np.arange(len(picks))] = 1.0
    return f


def _solver_params(cfg: ScenarioConfig, delta: float) -> SolverParams:
    return SolverParams(delta=delta, max_iterations=cfg.max_iterations,
                        tolerance=cfg.tolerance,
                        support_threshold=cfg.support_threshold)


def run_trial(scene: Scene, method: str, seed: int):
    """Run one imaging method against the scene; returns ``(report, result)``."""
    if method not in METHODS:
        raise ConfigurationError(f"unknown method {method!r}")
    cfg = scene.cfg
    truth = scene.rho
    rng = np.random.default_rng([seed, 3])
    start = time.perf_counter()
    result = None
    error = ""
    try:
        if method in ("smv", "mmv"):
            f = _illuminations(cfg.illuminations, scene, rng)
            if method == "smv":
                f = f[:, :1]
            data = scene.noisy.matrix @ f
            # delta is the exact norm of the noise in the consumed data
            params = _solver_params(cfg, float(np.linalg.norm(scene.noise_matrix @ f)))
            if method == "smv":
                result = image_smv(data[:, 0], f[:, 0], scene.sensing, params)
            else:
                result = image_mmv(data, f, scene.sensing, params)
        elif method == "hybrid":
            result = image_hybrid_l1(scene.noisy, scene.sensing,
                                     _solver_params(cfg, 0.0),
                                     m_tilde=select_rank(scene.noisy, cfg.known_rank),
                                     delta_fraction=cfg.hybrid_delta_fraction)
        elif method == "music":
            result = image_music(scene.noisy, scene.sensing,
                                 m_tilde=select_rank(scene.noisy, cfg.known_rank))
        elif method == "km":
            f = _illuminations(cfg.illuminations, scene, rng)
            data = scene.noisy.matrix @ f
            result = image_km(data, f, scene.sensing, peak_count=max(truth.m, 1))
    except (ConfigurationError, DomainError, np.linalg.LinAlgError) as exc:
        # the method cannot run on this scene: record the failed trial
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start

    # a failed trial recovers nothing and records no solve
    exact, precision, recall, rel, diagnostics = False, 0.0, 0.0, float("nan"), {}
    if result is not None:
        true_support = set(int(i) for i in truth.support)
        recovered = set(int(i) for i in result.support)
        tp = len(true_support & recovered)
        precision = tp / len(recovered) if recovered else (1.0 if not true_support else 0.0)
        recall = tp / len(true_support) if true_support else 1.0
        exact = recovered == true_support
        if method in ("smv", "mmv", "hybrid") and truth.m:
            idx = truth.support
            est = np.nan_to_num(result.reflectivity[idx])
            rel = float(np.linalg.norm(est - truth.values[idx])
                        / np.linalg.norm(truth.values[idx]))
        diagnostics = result.diagnostics
    report = TrialReport(method=method, scenario_id=cfg.scenario_id, seed=seed,
                         support_exact=exact, precision=precision, recall=recall,
                         reflectivity_error=rel, wall_time=wall, error=error,
                         **diagnostics)
    return report, result


def run_scenario(cfg: ScenarioConfig, seed: int | None = None,
                 out_dir=None) -> list:
    """Full pipeline for one seed: forward model, noise, every configured
    method, metrics and artifact files under ``out_dir/<scenario>/<seed>/``."""
    seed = cfg.seed if seed is None else seed
    scene = build_scene(cfg, seed)
    reports = []
    results = {}
    for method in cfg.methods:
        report, result = run_trial(scene, method, seed)
        reports.append(report)
        if result is not None:
            results[method] = result

    if out_dir is not None:
        run_dir = run_directory(out_dir, cfg, seed)
        write_report_csv(run_dir / "report.csv", reports)
        write_timings_csv(run_dir / "timings.csv", reports)
        save_response_matrix(run_dir / "response.csv", scene.noisy)
        for method, result in results.items():
            write_support_csv(run_dir / f"{method}_support.csv", result,
                              scene.sensing.window)
            write_image_csv(run_dir / f"{method}_image.csv", result,
                            scene.sensing.window)
            if cfg.write_pgm:
                write_pgm(run_dir / f"{method}_image.pgm", result,
                          scene.sensing.window)
    return reports


def monte_carlo_stability(cfg: ScenarioConfig, realizations: int | None = None,
                          out_dir=None):
    """Success-rate table across apertures over seeded realizations.

    Seeds 1..R each run ``run_scenario``, so tables are reproducible; a failed
    trial counts as a non-success, and each row counts unconverged and errored trials.
    """
    realizations = cfg.realizations if realizations is None else realizations
    if realizations < 10:
        raise ConfigurationError("Monte-Carlo batches need >= 10 realizations")
    rows = []
    for aperture in cfg.apertures or [None]:  # None: the configured array
        scene_cfg = cfg if aperture is None else replace(cfg, pitch=aperture / (cfg.n - 1))
        reports = [report for seed in range(1, realizations + 1)
                   for report in run_scenario(scene_cfg, seed)]
        for method in cfg.methods:
            batch = [r for r in reports if r.method == method]
            rows.append({
                "aperture": _sensing(scene_cfg).geom.aperture,
                "method": method,
                "success_rate": float(np.mean([r.support_exact for r in batch])),
                "mean_precision": float(np.mean([r.precision for r in batch])),
                "mean_recall": float(np.mean([r.recall for r in batch])),
                "realizations": realizations,
                "unconverged": sum(r.converged is False for r in batch),
                "errored": sum(bool(r.error) for r in batch),
            })
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_monte_carlo_csv(out / f"{cfg.scenario_id}_stability.csv", rows)
    return rows


def coherence_report(cfg: ScenarioConfig, out_dir=None) -> dict:
    """Coherence, Theorem-1 margins and Theorem-2 bounds for the scenario.

    The grid-wide coherence is reported alongside the support-restricted one
    (the recovery condition only needs to hold on the scatterer support).
    Both depend on the sensing matrix alone, so no forward model runs.
    """
    sensing, rho = _truth(cfg, cfg.seed)
    eps, pair = mutual_coherence(sensing.matrix)
    m = rho.m
    report = {"grid_coherence": eps, "m": m}
    eps_for_margin = eps
    if m >= 2:
        eps_for_margin, _ = mutual_coherence(sensing.matrix[:, rho.support])
        report["support_coherence"] = eps_for_margin
    margin = theorem1_margin(eps_for_margin, m)
    report["margin"] = margin
    report["certified"] = margin > 0
    bounds = []
    for delta in cfg.delta_grid:
        if m >= 1 and (m - 1) * eps_for_margin < 1:
            bounds.append((delta, theorem2_error_bound(delta, m, eps_for_margin),
                           "certified" if margin > 0 else "not-certified"))
        else:
            bounds.append((delta, float("nan"), "not-certified"))
    report["bounds"] = bounds

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_coherence_report(out / f"{cfg.scenario_id}_coherence.csv",
                               eps, pair, m, margin)
        write_certificates_csv(out / f"{cfg.scenario_id}_certificates.csv",
                               m, eps_for_margin, bounds)
    return report
