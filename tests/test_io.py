"""Exact bytes of every artifact writer on small hand-built inputs."""

from types import SimpleNamespace

import numpy as np
import pytest

from arrayimg.experiments import TrialReport
from arrayimg.foldy_lax import ResponseMatrix
from arrayimg.geometry import build_image_window
from arrayimg.imaging import ImagingResult
from arrayimg.io import (run_directory, save_response_matrix, write_certificates_csv,
                         write_coherence_report,
                         write_image_csv, write_monte_carlo_csv, write_pgm,
                         write_report_csv, write_stability_csv,
                         write_support_csv, write_timings_csv, write_trace_csv)

NAN = float("nan")
INF = float("inf")

# rows 0 and 1 of a 2 x 5 lattice
WINDOW = build_image_window(100.0, 2, 5, 1.0)


def written(tmp_path, write, *args) -> bytes:
    """Call ``write(path, *args)`` on a scratch path and return the bytes."""
    path = tmp_path / "artifact"
    write(path, *args)
    return path.read_bytes()


def result_with(image, support=(), reflectivity=None, screened=()):
    refl = np.zeros(WINDOW.k, dtype=complex) if reflectivity is None else reflectivity
    return ImagingResult(support=np.array(support, dtype=int),
                         reflectivity=refl, image=np.asarray(image, dtype=float),
                         diagnostics={"screened": list(screened)})


def report(method, error=NAN, exact=True, message="", wall=0.25):
    return TrialReport(method=method, scenario_id="s", seed=7, support_exact=exact,
                       precision=1.0, recall=2.0 / 3.0, reflectivity_error=error,
                       wall_time=wall, error=message)


MATRIX = np.array([[complex(1.0, 2.0), complex(-0.0, INF)],
                   [complex(NAN, -1.5), complex(0.1, 0.0)]])


class TestMatrixCsv:
    def test_bytes_with_header(self, tmp_path):
        path = tmp_path / "m.csv"
        save_response_matrix(path, ResponseMatrix(matrix=MATRIX, provenance="t"))
        assert path.read_bytes() == (
            b'# {"n": 2, "provenance": "t", "seed": null}\n'
            b"1,2,-0,inf\n"
            b"nan,-1.5,0.10000000000000001,0\n")

    def test_bytes_of_non_contiguous_view(self, tmp_path):
        path = tmp_path / "m.csv"
        save_response_matrix(path, ResponseMatrix(matrix=MATRIX[:, ::-1].T, provenance="t"))
        assert path.read_bytes() == (b'# {"n": 2, "provenance": "t", "seed": null}\n'
                                     b"-0,inf,0.10000000000000001,0\n"
                                     b"1,2,nan,-1.5\n")

    def test_response_matrix(self, tmp_path):
        resp = ResponseMatrix(matrix=np.array([[1.0, 2.0j], [2.0j, complex(-0.0, 0.0)]]),
                              provenance="born", seed=3)
        path = tmp_path / "response.csv"
        save_response_matrix(path, resp)
        assert path.read_bytes() == (b'# {"n": 2, "provenance": "born", "seed": 3}\n'
                                     b"1,0,0,2\n"
                                     b"0,2,-0,0\n")


class TestReports:
    def test_coherence(self, tmp_path):
        margins = {5: -0.1, 3: 0.14}
        assert written(tmp_path, write_coherence_report, 0.12, (3, 9), margins) == (
            b"quantity,value\n"
            b"coherence,0.12\n"
            b"argmax_i,3\n"
            b"argmax_j,9\n"
            b"margin_m3,0.14000000000000001\n"
            b"margin_m5,-0.10000000000000001\n")

    def test_certificates(self, tmp_path):
        bounds = [(0.0, 0.0, "certified"), (1e-7, NAN, "not-certified"),
                  (0.5, 1.0 / 3.0, "certified")]
        assert written(tmp_path, write_certificates_csv, 2, 0.25, bounds) == (
            b"delta,m,epsilon,theorem2_bound,verdict\n"
            b"0,2,0.25,0,certified\n"
            b"1e-07,2,0.25,,not-certified\n"
            b"0.5,2,0.25,0.333333333333,certified\n")

    def test_report(self, tmp_path):
        reports = [report("smv", error=-0.0),
                   report("km", exact=False, message="DomainError: bad point")]
        assert written(tmp_path, write_report_csv, reports) == (
            b"method,scenario,seed,support_exact,precision,recall,"
            b"reflectivity_error,error\n"
            b"smv,s,7,1,1,0.666666666667,-0,\n"
            b"km,s,7,0,1,0.666666666667,,DomainError: bad point\n")

    def test_timings(self, tmp_path):
        reports = [report("smv", wall=2.0 / 3.0), report("music", wall=INF)]
        assert written(tmp_path, write_timings_csv, reports) == (
            b"method,seed,wall_time_s\n"
            b"smv,7,0.666667\n"
            b"music,7,inf\n")

    def test_monte_carlo(self, tmp_path):
        rows = [{"aperture": 500.0, "method": "music", "success_rate": 0.1,
                 "mean_precision": 1.0 / 3.0, "mean_recall": NAN, "realizations": 10}]
        assert written(tmp_path, write_monte_carlo_csv, rows) == (
            b"aperture,method,success_rate,mean_precision,mean_recall,realizations\n"
            b"500,music,0.1,0.333333333333,nan,10\n")

    def test_stability_curve(self, tmp_path):
        rows = [(500.0, 1e-3, -0.0, INF)]
        assert written(tmp_path, write_stability_csv, rows) == (
            b"aperture,ratio_estimate,std_error,closed_form_bound\n"
            b"500,0.001,-0,inf\n")

    def test_trace(self, tmp_path):
        trace = [(10, 1.0 / 3.0, 2.5e-300), (20, 0.1, NAN)]
        assert written(tmp_path, write_trace_csv, trace) == (
            b"iteration,objective,residual\n"
            b"10,0.33333333333333331,2.5e-300\n"
            b"20,0.10000000000000001,nan\n")


class TestImages:
    def test_support_with_screened_component(self, tmp_path):
        refl = np.zeros(WINDOW.k, dtype=complex)
        refl[3] = complex(-0.0, 2.0)
        refl[7] = complex(NAN, NAN)
        res = result_with(np.zeros(WINDOW.k), support=[3, 7], reflectivity=refl,
                          screened=[7])
        assert written(tmp_path, write_support_csv, res, WINDOW) == (
            b"index,row,col,re,im,abs,flag\n"
            b"3,0,3,-0,2,2,ok\n"
            b"7,1,2,nan,nan,nan,screened\n")

    def test_image_csv_maps_nan_and_inf(self, tmp_path):
        image = [0.0, -0.0, 1.0 / 3.0, INF, NAN, 2.0, 0.5, 1e-7, 7.0, 1.0]
        assert written(tmp_path, write_image_csv, result_with(image), WINDOW) == (
            b"0,-0,0.333333333333,1.79769313486e+308,0\n"
            b"2,0.5,1e-07,7,1\n")

    def test_pgm(self, tmp_path):
        image = [0.0, 1.0 / 3.0, 0.5, 1.0, NAN, 0.0, 0.0, 0.0, 0.0, 0.25]
        assert written(tmp_path, write_pgm, result_with(image), WINDOW) == (
            b"P2\n5 2\n255\n"
            b"0 85 128 255 0\n"
            b"0 0 0 0 64\n")

    def test_all_zero_pgm(self, tmp_path):
        assert written(tmp_path, write_pgm, result_with(np.zeros(WINDOW.k)), WINDOW) == (
            b"P2\n5 2\n255\n"
            b"0 0 0 0 0\n"
            b"0 0 0 0 0\n")


class TestRunDirectory:
    def test_layout_and_config_snapshot(self, tmp_path):
        cfg = SimpleNamespace(scenario_id="demo", raw_text="[experiment]\nseed = 2\n")
        run_dir = run_directory(tmp_path / "out", cfg, 5)
        assert run_dir == tmp_path / "out" / "demo" / "5"
        assert (run_dir / "config.ini").read_bytes() == b"[experiment]\nseed = 2\n"

    def test_in_memory_config(self, tmp_path):
        cfg = SimpleNamespace(scenario_id="demo", raw_text="")
        run_dir = run_directory(tmp_path, cfg, 1)
        run_directory(tmp_path, cfg, 1)  # an existing directory is reused
        assert (run_dir / "config.ini").read_bytes() == b"# built in memory\n"
