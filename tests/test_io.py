"""Exact bytes of every artifact writer on small hand-built inputs, and the
response CSV's kernel against the row loop it replaced."""

import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from arrayimg.experiments import TrialReport
from arrayimg.foldy_lax import ResponseMatrix
from arrayimg.geometry import ImageWindow
from arrayimg.imaging import ImagingResult
from arrayimg.io import (_BLOCK_ROWS, _format_rows, run_directory, save_response_matrix,
                         write_certificates_csv,
                         write_coherence_report,
                         write_image_csv, write_monte_carlo_csv, write_pgm,
                         write_report_csv, write_support_csv, write_timings_csv,
                         write_trace_csv)
from oracles import write_stability_csv

NAN = float("nan")
INF = float("inf")

# rows 0 and 1 of a 2 x 5 lattice
WINDOW = ImageWindow(100.0, 2, 5, 1.0)


def written(tmp_path, write, *args) -> bytes:
    """Call ``write(path, *args)`` on a scratch path and return the bytes."""
    path = tmp_path / "artifact"
    write(path, *args)
    return path.read_bytes()


def result_with(image, support=(), reflectivity=None, screened=()):
    refl = np.zeros(WINDOW.k, dtype=complex) if reflectivity is None else reflectivity
    return ImagingResult(support=np.array(support, dtype=int),
                         reflectivity=refl, image=np.asarray(image, dtype=float),
                         screened=list(screened))


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


def reference_rows(rows) -> bytes:
    """The row loop ``save_response_matrix`` ran before its vectorized kernel,
    on float rows: the reference for every byte the kernel prints."""
    row_format = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return "".join(row_format % tuple(row.tolist()) for row in rows).encode()


def assert_rows_match(values, width=7):
    """``_format_rows`` equals the reference on ``values``, signs flipped too,
    laid out ``width`` to a row."""
    values = np.asarray(values, dtype=float)
    values = np.concatenate([values, -values])
    rows = np.resize(values, (-(-values.size // width), width))
    assert _format_rows(rows) == reference_rows(rows)


POWERS = np.array([float(f"1e{p}") for p in range(-300, 301)])
# values whose |x| 10**(16 - k) has a fraction within 1e-6 of 1/2, found by an
# exact rational search: the kernel hands them to '%.17g'
NEAR_TIES = [5.51303878157196e-10, 5.990450830989934e-13, 8.339800849279886e-08,
             4.6465836402925275e-05]
# any float64: subnormals, +-0, +-inf and nan (the bits form reaches every NaN)
ANY_FLOAT = st.one_of(
    st.floats(),
    st.floats(-1e-4, 1e-4),  # the magnitudes of a response matrix
    st.integers(0, 2 ** 64 - 1).map(lambda b: struct.unpack("<d", b.to_bytes(8, "little"))[0]))


class TestResponseKernel:
    @given(st.integers(1, 4), st.integers(1, 6), st.data())
    def test_any_rows_match_the_loop(self, rows, cols, data):
        values = data.draw(st.lists(ANY_FLOAT, min_size=rows * cols, max_size=rows * cols))
        block = np.array(values, dtype=float).reshape(rows, cols)
        assert _format_rows(block) == reference_rows(block)

    def test_exact_decimal_ties(self):
        """Doubles in [1e15, 2**53) with fraction 0.25 or 0.75 (all lie below
        2**51) print their 17th digit rounded half to even."""
        whole = np.random.default_rng(3).integers(10 ** 15, 2 ** 51, 200).astype(float)
        ends = [1e15 + 0.25, 1e15 + 0.75, 2.0 ** 51 - 0.25, 2.0 ** 51 - 0.75]
        assert_rows_match(np.concatenate([whole[:100] + 0.25, whole[100:] + 0.75, ends]))

    def test_powers_of_ten_and_neighbours(self):
        assert_rows_match(np.concatenate([POWERS, np.nextafter(POWERS, 0),
                                          np.nextafter(POWERS, np.inf)]))

    def test_round_up_to_next_decade(self):
        assert_rows_match([9.99999999999999999e-5, 9.9999999999999999e-15, 9.9999999999999995e-5,
                           9.99999999999999999e17, 1e23, 1e-50]
                          + [float(f"9.99999999999999999e{p}") for p in range(-40, 40)])

    def test_notation_switches(self):
        """'%g' is fixed from exponent -4 to 16 and scientific outside."""
        assert_rows_match([1e-5, 1.2345678901234567e-5, 9.9999999999999991e-5, 1e-4,
                           1.2345678901234567e-4, 1e16, 1.2345678901234567e16,
                           np.nextafter(1e17, 0), 1e17, 1.2345678901234567e17])

    def test_near_ties_and_specials(self):
        assert_rows_match(NEAR_TIES + [0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
                                       1.7976931348623157e308, 1e-270, 1e270])

    def test_blocks_and_separators(self, tmp_path):
        """A matrix whose row count is no multiple of the block size, with
        values the kernel hands back at block and row edges."""
        n = _BLOCK_ROWS + 3
        rng = np.random.default_rng(11)
        values = rng.standard_normal((n, 2 * n)) * 10.0 ** rng.uniform(-14, -5, (n, 2 * n))
        for row in (0, _BLOCK_ROWS - 1, _BLOCK_ROWS, n - 1):
            values[row, [0, -1]] = [np.nan, 0.5]
        values[_BLOCK_ROWS, 1:5] = NEAR_TIES
        path = tmp_path / "response.csv"
        save_response_matrix(path, ResponseMatrix(matrix=values.view(complex), provenance="t"))
        header = f'# {{"n": {n}, "provenance": "t", "seed": null}}\n'.encode()
        assert path.read_bytes() == header + reference_rows(values)


class TestReports:
    def test_coherence(self, tmp_path):
        head = (b"quantity,value\n"
                b"coherence,0.12\n"
                b"argmax_i,3\n"
                b"argmax_j,9\n")
        assert written(tmp_path, write_coherence_report, 0.12, (3, 9), 5, -0.1) == (
            head + b"margin_m5,-0.10000000000000001\n")
        assert written(tmp_path, write_coherence_report, 0.12, (3, 9), 0, 0.5) == head

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
                 "mean_precision": 1.0 / 3.0, "mean_recall": NAN, "realizations": 10,
                 "unconverged": 3, "errored": 0}]
        assert written(tmp_path, write_monte_carlo_csv, rows) == (
            b"aperture,method,success_rate,mean_precision,mean_recall,realizations,"
            b"unconverged,errored\n"
            b"500,music,0.1,0.333333333333,nan,10,3,0\n")

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
