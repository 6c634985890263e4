from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from arrayimg.config import ScenarioConfig, load_config, parse_length
from arrayimg.errors import ConfigurationError
from arrayimg.experiments import (_sensing, add_noise, build_scene,
                                  coherence_report, monte_carlo_stability,
                                  run_scenario, run_trial)
from arrayimg.greens import sensing_matrix
from arrayimg.imaging import image_hybrid_l1
from arrayimg.io import write_report_csv
from arrayimg.random_medium import KERNELS, RandomMediumSpec

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SMALL_INI = """
[wave]
wavelength = 1.0

[array]
n = 80
pitch = 1.0

[window]
center_range = 80
rows = 11
cols = 11
spacing = 2.0

[scatterers]
cells = 2,2; 8,8
magnitudes = 1.5, 0.9

[solver]
max_iterations = 20000
tolerance = 1e-8

[experiment]
scenario_id = small
seed = 3
methods = smv, hybrid, music, km
noise_percent = 0.0
illuminations = central
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL_INI)
    return load_config(path)


class TestAddNoise:
    def test_zero_percent(self):
        data = np.ones((4, 4), dtype=complex)
        noisy, norm = add_noise(data, 0.0, seed=1)
        assert norm == 0.0
        assert np.array_equal(noisy, data)

    @settings(max_examples=60, deadline=None)
    @given(shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
           data_seed=st.integers(0, 2 ** 32 - 1),
           percent=st.floats(1e-6, 10.0), seed=st.integers(0, 2 ** 32 - 1))
    @example(shape=(6, 6), data_seed=0, percent=0.5, seed=2)
    def test_exact_norm(self, shape, data_seed, percent, seed):
        rng = np.random.default_rng(data_seed)
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        noisy, norm = add_noise(data, percent, seed=seed)
        e = noisy - data
        assert np.linalg.norm(e) == pytest.approx(percent * np.linalg.norm(data),
                                                  rel=1e-12)
        assert norm == pytest.approx(np.linalg.norm(e), rel=1e-12)

    def test_deterministic(self):
        data = np.ones((3, 5), dtype=complex)
        n1, _ = add_noise(data, 0.3, seed=7)
        n2, _ = add_noise(data, 0.3, seed=7)
        assert np.array_equal(n1, n2)

    def test_negative_percent_rejected(self):
        with pytest.raises(ConfigurationError):
            add_noise(np.ones(2), -0.1)

    def test_draw_order(self):
        # the real parts take the first standard-normal draws, the imaginary
        # parts the next ones, bit for bit as standard_normal + 1j * standard_normal
        data = np.arange(1.0, 13.0).reshape(3, 4).astype(complex)
        noisy, target = add_noise(data, 0.25, seed=11)
        rng = np.random.default_rng(11)
        e = rng.standard_normal(data.shape) + 1j * rng.standard_normal(data.shape)
        e *= target / np.linalg.norm(e)
        assert noisy.tobytes() == (data + e).tobytes()


class TestConfig:
    def test_parse_length_units(self):
        assert parse_length("25", None) == 25.0
        assert parse_length("25l", 20.0) == 500.0
        with pytest.raises(ConfigurationError):
            parse_length("25l", None)

    def test_small_ini(self, small_cfg):
        cfg = small_cfg
        assert cfg.n == 80 and cfg.rows == 11 and cfg.spacing == 2.0
        assert cfg.cells == [(2, 2), (8, 8)]
        assert cfg.magnitudes == [1.5, 0.9]
        assert cfg.methods == ["smv", "hybrid", "music", "km"]
        assert cfg.raw_text.strip().startswith("[wave]")

    def test_aperture_in_correlation_lengths(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("""
[medium]
kind = random-phase
correlation_length = 20
sigma = 0.001

[array]
n = 501
pitch = 0.2l

[experiment]
scenario_id = x
""")
        cfg = load_config(path)
        assert cfg.pitch == 2000.0 / 500  # the 100l aperture over 500 gaps, to the bit

    def test_random_phase_requires_correlation_length(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[medium]\nkind = random-phase\nsigma = 0.01\n")
        with pytest.raises(ConfigurationError):
            load_config(path)

    @pytest.mark.parametrize("spacing, ok", [("4", True), ("4.001", False)])
    def test_lattice_spacing_bound_matches_spec(self, spacing, ok, tmp_path):
        # load_config draws the line where RandomMediumSpec does: l / 5
        path = tmp_path / "medium.ini"
        path.write_text("[medium]\nkind = random-phase\ncorrelation_length = 20\n"
                        f"lattice_spacing = {spacing}\n")
        spec = dict(correlation_length=20.0, sigma=0.0, lattice_spacing=float(spacing))
        if ok:
            RandomMediumSpec(**spec)
            assert load_config(path).lattice_spacing == 4.0
            return
        with pytest.raises(ConfigurationError):
            RandomMediumSpec(**spec)
        with pytest.raises(ConfigurationError, match=r"\[medium\] lattice_spacing = '4.001'"):
            load_config(path)

    def test_unknown_method_rejected(self, tmp_path):
        path = tmp_path / "bad2.ini"
        path.write_text("[experiment]\nmethods = smv, sorcery\n")
        with pytest.raises(ConfigurationError):
            load_config(path)

    @pytest.mark.parametrize("name", ["bogus", "raw_text"])
    def test_unknown_override_rejected(self, name):
        # raw_text is a field, but the parser's snapshot, not a key
        with pytest.raises(ConfigurationError, match=f"unknown override '{name}'"):
            load_config(SCENARIOS / "fig2_smv_noiseless.ini", {name: "x"})

    def test_kernel_words_are_the_kernel_table(self):
        # tests/test_cli.py's BAD_VALUES checks that another name is refused
        for kernel in KERNELS:
            assert load_config(SCENARIOS / "fig89_random_medium.ini",
                               {"kernel": kernel}).kernel == kernel

    def test_method_list_separators(self, tmp_path):
        # methods is a list like every other: ',' and ';' both separate, and
        # ';' never starts a comment, with or without a space before it
        path = tmp_path / "methods.ini"
        for methods in ("smv; km, music", "smv ; km , music"):
            path.write_text(f"[experiment]\nmethods = {methods}\n")
            assert load_config(path).methods == ["smv", "km", "music"]
        path.write_text("[scatterers]\ncells = 2,2 ; 3,3\nmagnitudes = 1.0, 2.0\n")
        assert load_config(path).cells == [(2, 2), (3, 3)]
        path.write_text("[experiment]\n; methods = km\n")  # not a comment line either
        with pytest.raises(ConfigurationError, match=r"unknown keys \['; methods'\]"):
            load_config(path)

    def test_hybrid_delta_fraction_read_as_written(self, tmp_path, monkeypatch):
        # one default, the library's: 0 (the equality-constrained reduced
        # problem) whatever the medium or the noise
        for cfg in (ScenarioConfig(), ScenarioConfig(noise_percent=0.5),
                    ScenarioConfig(medium_kind="random-phase", correlation_length=20.0)):
            assert cfg.hybrid_delta_fraction == 0.0
        assert load_config(SCENARIOS / "fig5_hybrid_heavy_noise.ini").hybrid_delta_fraction == 0.02
        assert load_config(SCENARIOS / "fig89_random_medium.ini").hybrid_delta_fraction == 0.1

        seen = []

        def recorder(*args, delta_fraction, **kwargs):
            seen.append(delta_fraction)
            return image_hybrid_l1(*args, delta_fraction=delta_fraction, **kwargs)

        path = tmp_path / "small.ini"
        path.write_text(SMALL_INI)
        monkeypatch.setattr("arrayimg.experiments.image_hybrid_l1", recorder)
        for overrides in ({"noise_percent": 0.5},
                          {"noise_percent": 0.5, "hybrid_delta_fraction": 0.07}):
            scene = build_scene(load_config(path, overrides), seed=3)
            report, _ = run_trial(scene, "hybrid", 3)
            assert report.error == ""
        assert seen == [0.0, 0.07]


class TestScene:
    def test_deterministic_build(self, small_cfg):
        s1 = build_scene(small_cfg, seed=5)
        s2 = build_scene(small_cfg, seed=5)
        assert np.array_equal(s1.response.matrix, s2.response.matrix)
        assert np.array_equal(s1.rho.values, s2.rho.values)
        s3 = build_scene(small_cfg, seed=6)
        assert not np.array_equal(s1.rho.values, s3.rho.values)  # random phases

    def test_sensing_shared_and_read_only(self, small_cfg):
        # the sensing matrix depends on no seed, so scenes share one
        s1 = build_scene(small_cfg, seed=5)
        s2 = build_scene(small_cfg, seed=6)
        assert s1.sensing is s2.sensing
        with pytest.raises(ValueError):
            s1.sensing.matrix[0, 0] = 0.0

    @pytest.mark.parametrize("key, value", [
        ("n", 81), ("pitch", 1.5), ("center_range", 90.0), ("rows", 12),
        ("cols", 12), ("spacing", 2.5), ("wavelength", 0.5)])
    def test_sensing_keyed_on_each_geometry_value(self, small_cfg, key, value):
        base = _sensing(small_cfg)
        other = _sensing(replace(small_cfg, **{key: value}))
        assert other is not base
        assert other.matrix.shape != base.matrix.shape \
            or not np.array_equal(other.matrix, base.matrix)

    def test_noise_injected_at_requested_level(self, small_cfg):
        small_cfg = replace(small_cfg, noise_percent=0.25)
        scene = build_scene(small_cfg, seed=5)
        ratio = np.linalg.norm(scene.noise_matrix) / np.linalg.norm(scene.response.matrix)
        assert ratio == pytest.approx(0.25, rel=1e-12)


class TestRunTrial:
    def test_successful_methods(self, small_cfg):
        scene = build_scene(small_cfg, seed=3)
        for method in ("smv", "hybrid", "music"):
            report, result = run_trial(scene, method, seed=3)
            assert report.support_exact, (method, report)
            assert report.precision == 1.0 and report.recall == 1.0
            assert report.error == ""
        report, _ = run_trial(scene, "km", seed=3)
        assert report.error == ""  # KM runs; exactness not required

    def test_solver_diagnostics_carried(self, small_cfg):
        scene = build_scene(small_cfg, seed=3)
        for method in ("smv", "hybrid"):
            report, result = run_trial(scene, method, seed=3)
            assert report.converged is True
            assert report.iterations == result.diagnostics["iterations"] > 0
            assert report.residual == result.diagnostics["residual"]
        report, _ = run_trial(scene, "music", seed=3)
        assert report.converged is None and report.iterations == 0

    def test_module_error_recorded(self, small_cfg):
        small_cfg = replace(small_cfg, known_rank=9999)
        scene = build_scene(small_cfg, seed=3)
        report, result = run_trial(scene, "music", seed=3)
        assert not report.support_exact
        assert report.error == "ConfigurationError: rank 9999 outside [1, 80]"
        assert result is None

    def test_unknown_method_raises(self, small_cfg):
        scene = build_scene(small_cfg, seed=3)
        with pytest.raises(ConfigurationError, match="kmm"):
            run_trial(scene, "kmm", 3)

    def test_programming_error_propagates(self, small_cfg, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("unexpected keyword")

        monkeypatch.setattr("arrayimg.experiments.image_music", broken)
        scene = build_scene(small_cfg, seed=3)
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_trial(scene, "music", seed=3)

    def test_shape_bug_propagates(self):
        # sensing for one more transducer than the data: a caller's bug, which
        # must raise rather than be recorded as a method that failed
        cfg = load_config(SCENARIOS / "fig4_optimal_illuminations.ini")
        scene = build_scene(cfg, seed=1)
        scene = replace(scene, sensing=_sensing(replace(cfg, n=cfg.n + 1)))
        for method in ("mmv", "smv"):
            with pytest.raises(ValueError, match="data length") as exc:
                run_trial(scene, method, 1)
            assert not isinstance(exc.value, ConfigurationError)

    def test_reflectivity_error_metric(self, small_cfg):
        scene = build_scene(small_cfg, seed=3)
        report, _ = run_trial(scene, "smv", seed=3)
        assert report.reflectivity_error < 1e-4
        report_km, _ = run_trial(scene, "km", seed=3)
        assert np.isnan(report_km.reflectivity_error)


class TestRunScenario:
    def test_artifacts_written(self, small_cfg, tmp_path):
        out = tmp_path / "runs"
        reports = run_scenario(small_cfg, seed=3, out_dir=out)
        assert len(reports) == 4
        run_dir = out / "small" / "3"
        for name in ("config.ini", "report.csv", "timings.csv", "response.csv",
                     "smv_support.csv", "smv_image.csv", "music_image.csv"):
            assert (run_dir / name).exists(), name

    def test_pgm_written(self, small_cfg, tmp_path):
        cfg = replace(small_cfg, methods=["km"], write_pgm=True)
        run_scenario(cfg, seed=3, out_dir=tmp_path)
        lines = (tmp_path / "small" / "3" / "km_image.pgm").read_text().splitlines()
        assert lines[:3] == ["P2", "11 11", "255"]
        values = [int(v) for line in lines[3:] for v in line.split()]
        assert len(values) == 121 and max(values) == 255 and min(values) >= 0

    def test_report_csv_deterministic(self, small_cfg, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run_scenario(small_cfg, seed=3, out_dir=out1)
        run_scenario(small_cfg, seed=3, out_dir=out2)
        r1 = (out1 / "small" / "3" / "report.csv").read_bytes()
        r2 = (out2 / "small" / "3" / "report.csv").read_bytes()
        assert r1 == r2
        s1 = (out1 / "small" / "3" / "smv_support.csv").read_bytes()
        s2 = (out2 / "small" / "3" / "smv_support.csv").read_bytes()
        assert s1 == s2

    def test_empty_scatterers_no_crash(self, small_cfg, tmp_path):
        small_cfg = replace(small_cfg, cells=[], magnitudes=[])
        reports = run_scenario(small_cfg, seed=3, out_dir=tmp_path / "r")
        assert all(r.error == "" for r in reports if r.method in ("smv", "km"))
        smv = [r for r in reports if r.method == "smv"][0]
        assert smv.precision == 1.0 and smv.recall == 1.0  # empty == empty


class TestMonteCarloStability:
    def test_sigma_zero_reduces_to_homogeneous(self, tmp_path):
        path = tmp_path / "mc.ini"
        path.write_text("""
[array]
n = 80
pitch = 1.0

[window]
center_range = 80
rows = 11
cols = 11
spacing = 2.0

[scatterers]
cells = 2,2; 8,8
magnitudes = 1.5, 0.9

[medium]
kind = random-phase
correlation_length = 20
sigma = 0.0

[experiment]
scenario_id = mc
methods = hybrid, music
forward = born
realizations = 10
known_rank = 2
""")
        cfg = load_config(path)
        rows = monte_carlo_stability(cfg, out_dir=tmp_path)
        by_method = {r["method"]: r for r in rows}
        assert by_method["hybrid"]["success_rate"] == 1.0
        assert by_method["music"]["success_rate"] == 1.0
        table = (tmp_path / "mc_stability.csv").read_text().splitlines()
        assert table[0].startswith("aperture,method,success_rate")
        assert len(table) == 3

    def test_rows_count_the_run_scenario_reports(self, small_cfg, tmp_path):
        # a capped l1 solve, and more optimal illuminations than the rank of
        # two scatterers, so both counts show
        cfg = replace(small_cfg, max_iterations=50, illuminations="optimal:3",
                      apertures=[40.0, 79.0])
        rows = monte_carlo_stability(cfg, realizations=10, out_dir=tmp_path)
        expected = []
        for aperture in cfg.apertures:
            scene_cfg = replace(cfg, pitch=aperture / (cfg.n - 1))
            reports = [r for seed in range(1, 11) for r in run_scenario(scene_cfg, seed)]
            for method in cfg.methods:
                batch = [r for r in reports if r.method == method]
                expected.append((_sensing(scene_cfg).geom.aperture.hex(), method,
                                 np.mean([r.support_exact for r in batch]),
                                 sum(r.converged is False for r in batch),
                                 sum(bool(r.error) for r in batch)))
        assert [(r["aperture"].hex(), r["method"], r["success_rate"], r["unconverged"],
                 r["errored"]) for r in rows] == expected
        assert any(r["unconverged"] for r in rows) and any(r["errored"] for r in rows)
        table = (tmp_path / "small_stability.csv").read_text().splitlines()
        assert table[0].endswith(",realizations,unconverged,errored")
        assert [line.split(",")[-2:] for line in table[1:]] == \
            [[str(r["unconverged"]), str(r["errored"])] for r in rows]

    def test_sensing_matrix_built_once_per_aperture(self, small_cfg, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return sensing_matrix(*args)

        monkeypatch.setattr("arrayimg.experiments.sensing_matrix", counted)
        small_cfg = replace(small_cfg, methods=["music"], apertures=[40.0, 79.0])
        rows = monte_carlo_stability(small_cfg, realizations=10)
        assert len(rows) == 2
        assert len(calls) == 2

    def test_minimum_realizations(self, small_cfg):
        with pytest.raises(ConfigurationError):
            monte_carlo_stability(small_cfg, realizations=5)


class TestCoherenceReport:
    def test_duplicate_column_pathology(self, tmp_path):
        # grid points mirrored across the array line are equidistant from
        # every transducer, so their sensing columns are identical; load_config
        # refuses a window that reaches the array line, so build it directly
        cfg = ScenarioConfig(n=20, pitch=1.0, center_range=0.0, rows=3, cols=1,
                             spacing=4.0, cells=[(0, 0), (2, 0)], magnitudes=[1.0, 1.0],
                             scenario_id="dup", forward="born",
                             delta_grid=[0.0, 0.1])
        report = coherence_report(cfg, out_dir=tmp_path)
        assert report["grid_coherence"] == pytest.approx(1.0, abs=1e-12)
        assert report["margin"] < 0
        assert not report["certified"]
        certs = (tmp_path / "dup_certificates.csv").read_text()
        assert "not-certified" in certs
        assert (tmp_path / "dup_coherence.csv").exists()

    def test_desk_scale_margin_positive(self, small_cfg, tmp_path):
        report = coherence_report(small_cfg, out_dir=tmp_path)
        assert report["m"] == 2
        assert report["support_coherence"] < report["grid_coherence"]
        assert report["margin"] > 0
        assert report["certified"]

    @pytest.mark.parametrize("medium", ["", "[medium]\nkind = random-phase\n"
                                            "correlation_length = 20\nsigma = 0.001\n"],
                             ids=["homogeneous", "random-phase"])
    def test_no_forward_model(self, medium, tmp_path, monkeypatch):
        # the bounds depend on the sensing matrix alone
        def forbidden(*args, **kwargs):
            raise AssertionError("coherence_report ran the forward model")

        for name in ("response_matrix_foldy_lax", "response_matrix_born",
                     "response_matrix_random", "sample_field", "add_noise"):
            monkeypatch.setattr(f"arrayimg.experiments.{name}", forbidden)
        path = tmp_path / "small.ini"
        path.write_text(SMALL_INI + medium)
        report = coherence_report(load_config(path), out_dir=tmp_path)
        assert report["m"] == 2 and report["certified"]
        assert (tmp_path / "small_certificates.csv").exists()

    def test_report_rows_written(self, small_cfg):
        small_cfg = replace(small_cfg, delta_grid=[0.0, 1e-6])
        report = coherence_report(small_cfg)
        assert len(report["bounds"]) == 2
        assert report["bounds"][0][1] == pytest.approx(0.0)


class TestReportCsv:
    def test_nan_error_written_blank(self, tmp_path):
        from arrayimg.experiments import TrialReport
        rep = TrialReport(method="km", scenario_id="s", seed=1,
                          support_exact=False, precision=0.5, recall=0.5,
                          reflectivity_error=float("nan"), wall_time=0.1)
        path = tmp_path / "r.csv"
        write_report_csv(path, [rep])
        line = path.read_text().splitlines()[1]
        assert line == "km,s,1,0,0.5,0.5,,"
