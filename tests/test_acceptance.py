"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines; the whole suite takes roughly 15-25 minutes, dominated by
the Monte-Carlo criteria.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from arrayimg.config import load_config
from arrayimg.geometry import ImageWindow, WaveContext, build_linear_array, \
    place_scatterers
from arrayimg.greens import green, pairwise_green_matrix, sensing_matrix
from arrayimg.foldy_lax import (foldy_lax_matrix, multiple_scattering_ratio,
                                response_matrix_born, response_matrix_foldy_lax,
                                solve_exciting_fields)
from arrayimg.random_medium import (RandomMediumSpec, autocorrelation_integral,
                                    effective_aperture, estimate_second_moment,
                                    estimate_stability_ratio, stability_bound)
from arrayimg.sparse_solvers import solve_l1_smv
from arrayimg.experiments import (build_scene, coherence_report,
                                  monte_carlo_stability, run_scenario, run_trial)
from oracles import brute_force_l0, write_stability_csv

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
CTX = WaveContext(wavelength=1.0)


def _verdict(number: int, label: str, ok: bool) -> bool:
    print(f"\n[acceptance {number:2d}] {label}: {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def fig2_cfg():
    return load_config(SCENARIOS / "fig2_smv_noiseless.ini")


@pytest.fixture(scope="module")
def fig1_cfg():
    return load_config(SCENARIOS / "fig1_multiple_scattering.ini")


@pytest.fixture(scope="module")
def fig4_cfg():
    return load_config(SCENARIOS / "fig4_optimal_illuminations.ini")


@pytest.fixture(scope="module")
def fig5_cfg():
    return load_config(SCENARIOS / "fig5_hybrid_heavy_noise.ini")


@pytest.fixture(scope="module")
def fig89_cfg():
    return load_config(SCENARIOS / "fig89_random_medium.ini")


def test_criterion_01_noiseless_smv_exact(fig2_cfg, tmp_path):
    start = time.perf_counter()
    cert = coherence_report(fig2_cfg)
    margin_ok = cert["margin"] > 0 and cert["m"] == 3
    reports = run_scenario(fig2_cfg, seed=1, out_dir=tmp_path)
    smv = reports[0]
    elapsed = time.perf_counter() - start
    ok = (margin_ok and smv.support_exact
          and smv.reflectivity_error <= 1e-3 and elapsed <= 60.0)
    _verdict(1, "noiseless SMV exact recovery", ok)
    assert margin_ok, cert
    assert smv.support_exact and smv.error == ""
    assert smv.reflectivity_error <= 1e-3
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_oracle_equivalence():
    agree = 0
    total = 50
    for trial in range(total):
        rng = np.random.default_rng([2024, trial])
        m = int(rng.integers(1, 3))
        while True:
            a = rng.standard_normal((128, 16)) + 1j * rng.standard_normal((128, 16))
            a /= np.linalg.norm(a, axis=0)
            gram = np.abs(a.conj().T @ a)
            np.fill_diagonal(gram, 0.0)
            if gram.max() * m < 0.5:
                break
        supp = np.sort(rng.choice(16, size=m, replace=False))
        coef = rng.uniform(0.5, 2.0, m) * np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        b = a[:, supp] @ coef
        sol = solve_l1_smv(a, b)
        oracle_supp, _ = brute_force_l0(a, b, max_support=2)
        agree += list(sol.support) == list(oracle_supp)
    ok = agree == total
    _verdict(2, f"l1/l0 oracle support agreement ({agree}/{total})", ok)
    assert ok


def test_criterion_03_foldy_lax_correctness():
    # analytic 2x2 inverse
    pts = np.array([[0.0, 40.0], [3.0, 44.0]])
    gval = green(pts[0], pts[1], CTX)[0, 0]
    a1, a2 = 2.0 * np.exp(1j * 0.3), 1.5 * np.exp(-1j * 1.2)
    z = foldy_lax_matrix([a1, a2], pairwise_green_matrix(pts, CTX))
    inc = np.array([1.0 + 0.2j, -0.4 + 0.9j])
    exc = solve_exciting_fields(z, inc)
    det = 1.0 - a1 * a2 * gval ** 2
    expected = np.array([inc[0] + a2 * gval * inc[1],
                         a1 * gval * inc[0] + inc[1]]) / det
    analytic_ok = bool(np.linalg.norm(exc - expected)
                       <= 1e-12 * np.linalg.norm(expected))

    # Born-limit halving
    geom = build_linear_array(20, 1.0)
    win = ImageWindow(50.0, 9, 9, 2.0)
    sens = sensing_matrix(geom, win, CTX)
    idx = [win.rowcol_to_index(2, 3), win.rowcol_to_index(6, 5)]
    base = np.array([2.0 * np.exp(1j * 0.9), 1.4 * np.exp(-1j * 2.0)])
    ratios = []
    for t in (1e-2, 5e-3, 2.5e-3):
        rho = place_scatterers(win, list(zip(idx, t * base)))
        full = response_matrix_foldy_lax(sens, rho).matrix
        born = response_matrix_born(sens, rho).matrix
        ratios.append(np.linalg.norm(full - born) / np.linalg.norm(born))
    halving_ok = all(abs(r1 / r2 - 2.0) <= 0.4 for r1, r2 in zip(ratios, ratios[1:]))
    ok = analytic_ok and halving_ok
    _verdict(3, "Foldy-Lax analytic inverse and Born-limit scaling", ok)
    assert analytic_ok
    assert halving_ok, ratios


def test_criterion_04_multiple_scattering_band(fig1_cfg):
    hits = 0
    ratios = []
    for seed in range(1, 11):
        scene = build_scene(fig1_cfg, seed)
        f = np.zeros(scene.sensing.n, dtype=complex)
        f[scene.sensing.n // 2] = 1.0
        ratio = multiple_scattering_ratio(scene.rho, f, scene.sensing)
        ratios.append(ratio)
        hits += 0.5 <= ratio <= 1.0
    ok = hits >= 8
    _verdict(4, f"multiple-scattering ratio in [0.5, 1.0] ({hits}/10)", ok)
    assert ok, np.round(ratios, 3)


@pytest.mark.slow
def test_criterion_05_optimal_illuminations(fig4_cfg):
    wins3 = wins1 = 0
    for seed in range(1, 11):
        scene = build_scene(fig4_cfg, seed)
        report3, _ = run_trial(scene, "mmv", seed)
        scene.cfg = replace(fig4_cfg, illuminations="optimal:1")
        report1, _ = run_trial(scene, "mmv", seed)
        scene.cfg = fig4_cfg
        wins3 += report3.support_exact
        wins1 += report1.support_exact
    ok = wins3 >= 7 and wins1 < wins3
    _verdict(5, f"optimal illuminations: v=3 {wins3}/10, v=1 {wins1}/10", ok)
    assert wins3 >= 7
    assert wins1 < wins3


def test_criterion_06_hybrid_under_heavy_noise(fig5_cfg):
    start = time.perf_counter()
    wins = {"hybrid": 0, "music": 0, "km": 0}
    for seed in range(1, 11):
        scene = build_scene(fig5_cfg, seed)
        for method in wins:
            report, _ = run_trial(scene, method, seed)
            wins[method] += report.support_exact
    elapsed = time.perf_counter() - start
    ok = (wins["hybrid"] >= 8 and wins["music"] >= 5 and wins["km"] <= 2
          and elapsed <= 300.0)
    _verdict(6, f"100% noise: hybrid {wins['hybrid']}/10, music {wins['music']}/10, "
                f"km {wins['km']}/10 in {elapsed:.0f}s", ok)
    assert wins["hybrid"] >= 8
    assert wins["music"] >= 5
    assert wins["km"] <= 2
    assert elapsed <= 300.0


def test_criterion_07_autocorrelation_quadrature():
    g = autocorrelation_integral("gaussian")
    p = autocorrelation_integral("power-law")
    ok = abs(g + np.sqrt(np.pi / 2)) <= 1e-6 and abs(p + 1.0) <= 1e-6
    _verdict(7, f"autocorrelation integrals ({g:.7f}, {p:.7f})", ok)
    assert abs(g + np.sqrt(np.pi / 2)) <= 1e-6
    assert abs(p + 1.0) <= 1e-6


def test_criterion_08_second_moment_formula():
    start = time.perf_counter()
    spec = RandomMediumSpec(correlation_length=20.0, sigma=0.001,
                            kernel="gaussian", master_seed=0)
    a_e = effective_aperture(spec, 1000.0)
    assert a_e == pytest.approx(6.386, abs=2e-3)
    kappa = CTX.wavenumber
    measured = {}
    for dy in (1.0, 3.0):
        ratio, se = estimate_second_moment([0.0, 0.0], [0.0, 1000.0],
                                           [dy, 1000.0], CTX, spec,
                                           realizations=500, master_seed=8)
        measured[dy] = ratio
    predicted = {dy: float(np.exp(-kappa ** 2 * a_e ** 2 * dy ** 2 / (2 * 1e6)))
                 for dy in (1.0, 3.0)}
    within = all(abs(measured[dy] / predicted[dy] - 1.0) <= 0.15 for dy in measured)
    elapsed = time.perf_counter() - start
    ok = within and elapsed <= 600.0
    _verdict(8, f"second-moment ratio within 15% "
                f"(measured/predicted {measured[1.0]/predicted[1.0]:.4f}, "
                f"{measured[3.0]/predicted[3.0]:.4f}) in {elapsed:.0f}s", ok)
    assert ok


@pytest.mark.slow
def test_criterion_09_stability_ordering(tmp_path):
    spec = RandomMediumSpec(correlation_length=20.0, sigma=0.001,
                            kernel="gaussian", master_seed=0)
    y1, y2 = [0.0, 1000.0], [10.0, 1000.0]
    estimates = []
    rows = []
    for aperture in (500.0, 1000.0, 2000.0):  # 25l, 50l, 100l
        geom = build_linear_array(501, aperture / 500)
        est = estimate_stability_ratio(geom, y1, y2, CTX, spec,
                                       realizations=100, mode="self",
                                       master_seed=9)
        estimates.append(est)
        rows.append((aperture, est.estimate, est.std_error,
                     stability_bound(spec, aperture, 1000.0, 10.0, CTX)))
    write_stability_csv(tmp_path / "stability_curve.csv", rows)
    assert (tmp_path / "stability_curve.csv").exists()
    pairs_ok = []
    for small, large in zip(estimates, estimates[1:]):
        slack = 2 * (small.std_error + large.std_error)
        pairs_ok.append(large.estimate < small.estimate + slack)
    values = ", ".join(f"{e.estimate:.3e}" for e in estimates)
    ok = all(pairs_ok)
    _verdict(9, f"stability ratio decay over apertures ({values})", ok)
    assert ok, [e.estimate for e in estimates]


@pytest.mark.slow
def test_criterion_10_random_medium_orderings(fig89_cfg, tmp_path):
    rows = monte_carlo_stability(fig89_cfg, realizations=20, out_dir=tmp_path)
    rates = {(round(r["aperture"]), r["method"]): r["success_rate"] for r in rows}
    unconverged = {round(r["aperture"]): r["unconverged"] for r in rows
                   if r["method"] == "hybrid"}
    h_small, h_large = rates[(500, "hybrid")], rates[(2000, "hybrid")]
    m_large = rates[(2000, "music")]
    k_small, k_large = rates[(500, "km")], rates[(2000, "km")]
    ok = (h_large >= h_small and h_large >= m_large >= k_large
          and k_small <= 0.2 and k_large <= 0.2)
    _verdict(10, f"random medium: hybrid {h_small:.2f}->{h_large:.2f}, "
                 f"music@100l {m_large:.2f}, km {k_small:.2f}/{k_large:.2f}; "
                 f"hybrid unconverged {unconverged[500]}/{unconverged[2000]}", ok)
    assert h_large >= h_small
    assert h_large >= m_large >= k_large
    assert k_small <= 0.2 and k_large <= 0.2


def test_criterion_11_determinism(fig2_cfg, fig89_cfg, tmp_path):
    pairs = []
    for cfg, seed in ((fig2_cfg, 1), (fig89_cfg, 1)):
        out_a = tmp_path / f"{cfg.scenario_id}-a"
        out_b = tmp_path / f"{cfg.scenario_id}-b"
        run_scenario(cfg, seed=seed, out_dir=out_a)
        run_scenario(cfg, seed=seed, out_dir=out_b)
        rel = Path(cfg.scenario_id) / str(seed) / "report.csv"
        pairs.append((out_a / rel).read_bytes() == (out_b / rel).read_bytes())
    ok = all(pairs)
    _verdict(11, "byte-identical report CSVs on re-run", ok)
    assert ok
