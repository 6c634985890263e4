import json
import re

import pytest

from arrayimg.cli import main

CONFIG = """
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
phases = random

[experiment]
scenario_id = cli-demo
seed = 3
methods = smv, music
illuminations = central
realizations = 10
delta_grid = 0.0, 0.01
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(CONFIG)
    return path


class TestCli:
    def test_simulate(self, config_path, tmp_path, capsys):
        rc = main(["simulate", "--config", str(config_path),
                   "--out", str(tmp_path / "runs")])
        assert rc == 0
        assert (tmp_path / "runs" / "cli-demo" / "3" / "response.csv").exists()
        assert "response.csv" in capsys.readouterr().out

    def test_image(self, config_path, tmp_path, capsys):
        rc = main(["image", "--config", str(config_path),
                   "--out", str(tmp_path / "runs")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "smv: exact" in out
        assert (tmp_path / "runs" / "cli-demo" / "3" / "report.csv").exists()

    def test_image_reports_unconverged_solve(self, config_path, tmp_path, capsys):
        assert main(["image", "--config", str(config_path),
                     "--out", str(tmp_path / "runs")]) == 0
        assert capsys.readouterr().err == ""  # the uncapped solve converges
        capped = tmp_path / "capped.ini"
        capped.write_text(CONFIG + "\n[solver]\nmax_iterations = 50\n")
        rc = main(["image", "--config", str(capped), "--out", str(tmp_path / "runs")])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("smv:")
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert re.fullmatch(r"smv: not converged after 50 iterations \(residual \S+\)",
                            lines[0])
        assert float(lines[0].rsplit(" ", 1)[1].rstrip(")")) > 0

    def test_image_with_method_override_and_seed(self, config_path, tmp_path, capsys):
        rc = main(["image", "--config", str(config_path), "--seed", "9",
                   "--methods", "music", "--out", str(tmp_path / "runs")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("music:")
        assert (tmp_path / "runs" / "cli-demo" / "9" / "music_image.csv").exists()

    def test_coherence(self, config_path, tmp_path, capsys):
        rc = main(["coherence", "--config", str(config_path),
                   "--out", str(tmp_path / "runs")])
        assert rc == 0
        assert "certified=True" in capsys.readouterr().out

    def test_stability(self, config_path, tmp_path, capsys):
        rc = main(["stability", "--config", str(config_path),
                   "--realizations", "10", "--out", str(tmp_path / "runs")])
        assert rc == 0
        assert "success=" in capsys.readouterr().out
        assert (tmp_path / "runs" / "cli-demo_stability.csv").exists()

    def test_missing_config_machine_readable_error(self, tmp_path, capsys):
        rc = main(["image", "--config", str(tmp_path / "nope.ini")])
        assert rc != 0
        err = capsys.readouterr().err.strip().splitlines()[-1]
        payload = json.loads(err)
        assert payload["error"]
        assert payload["message"]

    def test_bad_config_returns_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[experiment]\nmethods = sorcery\n")
        rc = main(["image", "--config", str(bad)])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ConfigurationError"

    @pytest.mark.parametrize("methods", ["km,kmm", ","], ids=["unknown", "empty"])
    def test_bad_method_override_returns_one(self, methods, config_path, tmp_path, capsys):
        rc = main(["image", "--config", str(config_path), "--methods", methods,
                   "--out", str(tmp_path / "runs")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ConfigurationError"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("spec", ["centrl", "element:80", "random:0", "optimal:x"])
    def test_bad_illumination_spec_returns_one(self, spec, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(CONFIG.replace("illuminations = central",
                                      f"illuminations = {spec}"))
        rc = main(["image", "--config", str(bad), "--out", str(tmp_path / "runs")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ConfigurationError"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("extra, name", [("[solver]\nmax_iteration = 5\n", "max_iteration"),
                                             ("[solvers]\nmax_iterations = 5\n", "solvers")],
                             ids=["key", "section"])
    def test_unknown_key_returns_one(self, extra, name, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(CONFIG + extra)
        rc = main(["image", "--config", str(bad), "--out", str(tmp_path / "runs")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ConfigurationError"
        assert repr(name) in payload["message"]
        assert not (tmp_path / "runs").exists()
