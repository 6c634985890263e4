import configparser
import json
import re

import pytest

from arrayimg.cli import main
from arrayimg.config import _KNOWN

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


# Values load_config rejects, for every key it reads: a key added to the
# table without a case here fails test_bad_value_returns_one.
BAD_VALUES = {
    ("wave", "wavelength"): ["0", "abc", "inf", "nan"],
    ("array", "n"): ["abc", "0"],
    ("array", "pitch"): ["-1", "25l", "inf", "nan"],  # 25l: no correlation length
    ("array", "aperture"): ["-5", "inf", "nan"],
    ("window", "center_range"): ["abc", "10", "-5",  # rows = 11, spacing = 2: row 0 at 0
                               "inf", "nan"],
    ("window", "rows"): ["0"],
    ("window", "cols"): ["2.5"],
    ("window", "spacing"): ["-1", "inf", "nan"],
    ("scatterers", "cells"): ["2,2,2", "2,x", "2,2; 11,8", "-1,2; 8,8",  # rows = cols = 11
                              "2,2; 2,2"],
    ("scatterers", "magnitudes"): ["1.5, x", "1.5",  # one value for two cells
                                   "1.5, inf", "nan, 0.9"],
    ("scatterers", "phases"): ["sometimes", "0.0", "0.0, inf", "nan, 0.0"],
    ("medium", "kind"): ["plasma", "random-phase"],  # no correlation length
    ("medium", "correlation_length"): ["0", "inf", "nan"],
    ("medium", "sigma"): ["-0.1", "inf", "nan"],
    ("medium", "kernel"): ["cubic"],
    ("medium", "lattice_spacing"): ["0", "inf", "nan"],
    ("solver", "max_iterations"): ["0"],
    ("solver", "tolerance"): ["-1", "abc", "inf", "nan"],
    ("solver", "support_threshold"): ["1.5", "inf", "nan"],
    ("solver", "hybrid_delta_fraction"): ["1", "inf", "nan"],
    ("experiment", "scenario_id"): ["", "../up"],
    ("experiment", "seed"): ["-1"],
    ("experiment", "methods"): ["sorcery"],
    ("experiment", "noise_percent"): ["-0.5", "inf", "nan"],
    ("experiment", "forward"): ["ray"],
    ("experiment", "illuminations"): ["centrl"],
    ("experiment", "km_illuminations"): ["element:80"],
    ("experiment", "known_rank"): ["0", "81"],  # n = 80
    ("experiment", "apertures"): ["-10", "inf", "nan"],
    ("experiment", "realizations"): ["0"],
    ("experiment", "delta_grid"): ["-0.1", "inf", "nan"],
    ("experiment", "write_pgm"): ["maybe"],
}


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

    def test_stability_single_element(self, tmp_path, capsys):
        # no [experiment] apertures: the configured array runs, even at n = 1
        path = tmp_path / "one.ini"
        path.write_text("[array]\nn = 1\npitch = 1.0\n\n"
                        "[window]\ncenter_range = 80\nrows = 5\ncols = 5\nspacing = 2.0\n\n"
                        "[scatterers]\ncells = 2,2\nmagnitudes = 1.0\nphases = 0.0\n\n"
                        "[experiment]\nscenario_id = one\nmethods = km\nrealizations = 10\n")
        rc = main(["stability", "--config", str(path), "--out", str(tmp_path / "runs")])
        assert rc == 0
        table = (tmp_path / "runs" / "one_stability.csv").read_text().splitlines()
        assert len(table) == 2 and table[1].startswith("0,km,")

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

    def test_bad_seed_override_returns_one(self, config_path, tmp_path, capsys):
        rc = main(["simulate", "--config", str(config_path), "--seed", "-1",
                   "--out", str(tmp_path / "runs")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ConfigurationError"
        assert "[experiment] seed = '-1'" in payload["message"]
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command, takes_seed", [
        ("simulate", True), ("image", True), ("stability", False), ("coherence", False)])
    def test_seed_flag_only_where_read(self, command, takes_seed, config_path, tmp_path,
                                       capsys):
        # stability draws its seeds 1..R itself and coherence reads no seed
        argv = [command, "--config", str(config_path), "--seed", "5",
                "--out", str(tmp_path / "runs")]
        if takes_seed:
            assert main(argv) == 0
            assert (tmp_path / "runs" / "cli-demo" / "5").is_dir()
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
            assert not (tmp_path / "runs").exists()

    def test_bad_realizations_override_returns_one(self, config_path, tmp_path, capsys):
        rc = main(["stability", "--config", str(config_path), "--realizations", "5",
                   "--out", str(tmp_path / "runs")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ConfigurationError"
        assert "[experiment] realizations = '5'" in payload["message"]
        assert not (tmp_path / "runs").exists()

    def test_override_into_missing_section(self, tmp_path, capsys):
        path = tmp_path / "no_experiment.ini"
        path.write_text(CONFIG[:CONFIG.index("[experiment]")])
        rc = main(["simulate", "--config", str(path), "--seed", "3",
                   "--out", str(tmp_path / "runs")])
        assert rc == 0
        assert (tmp_path / "runs" / "scenario" / "3" / "response.csv").exists()

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
                                             ("[solvers]\nmax_iterations = 5\n", "solvers"),
                                             ("[experiment]\nseed = 4\n", "experiment")],
                             ids=["key", "section", "duplicate"])
    def test_unknown_key_returns_one(self, extra, name, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(CONFIG + extra)
        rc = main(["image", "--config", str(bad), "--out", str(tmp_path / "runs")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ConfigurationError"
        assert repr(name) in payload["message"]
        assert not (tmp_path / "runs").exists()

    def test_forward_under_random_medium(self, tmp_path, capsys):
        # the random-phase response is single scattering: foldy-lax is refused
        medium = "[medium]\nkind = random-phase\ncorrelation_length = 20\n"
        for forward in ("foldy-lax", "born", "auto"):
            path = tmp_path / f"{forward}.ini"
            path.write_text(CONFIG + f"forward = {forward}\n" + medium)
            rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / forward)])
            assert rc == (1 if forward == "foldy-lax" else 0), forward
            assert (tmp_path / forward).exists() == (rc == 0)
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[0])
        assert payload["error"] == "ConfigurationError"
        assert "[experiment] forward = 'foldy-lax'" in payload["message"]

    @pytest.mark.parametrize("settings, named", [
        ({("array", "n"): "1", ("experiment", "apertures"): "40"},
         "[experiment] apertures = '40': needs [array] n >= 2"),
        ({("array", "n"): "1", ("array", "aperture"): "40"},
         "[array] aperture = '40': needs [array] n >= 2"),
        ({("medium", "kind"): "random-phase", ("medium", "correlation_length"): "20",
          ("medium", "lattice_spacing"): "4.5"},
         "[medium] lattice_spacing = '4.5': exceeds [medium] correlation_length / 5 = 4"),
    ], ids=["apertures", "aperture", "lattice_spacing"])
    def test_bad_key_combination_returns_one(self, settings, named, tmp_path, capsys):
        parser = configparser.ConfigParser()
        parser.read_string(CONFIG)
        for (section, key), value in settings.items():
            if not parser.has_section(section):
                parser.add_section(section)
            parser.set(section, key, value)
        bad = tmp_path / "bad.ini"
        with open(bad, "w") as fh:
            parser.write(fh)
        rc = main(["stability", "--config", str(bad), "--out", str(tmp_path / "runs")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ConfigurationError"
        assert named in payload["message"]
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("section, key", sorted((section, key) for section, keys
                                                    in _KNOWN.items() for key in keys))
    def test_bad_value_returns_one(self, section, key, tmp_path, capsys):
        for value in BAD_VALUES[(section, key)]:
            parser = configparser.ConfigParser()
            parser.read_string(CONFIG)
            if not parser.has_section(section):
                parser.add_section(section)
            parser.set(section, key, value)
            bad = tmp_path / "bad.ini"
            with open(bad, "w") as fh:
                parser.write(fh)
            rc = main(["image", "--config", str(bad), "--out", str(tmp_path / "runs")])
            assert rc == 1, value
            payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert payload["error"] == "ConfigurationError"
            assert f"[{section}] {key} = " in payload["message"], value
            assert not (tmp_path / "runs").exists()
