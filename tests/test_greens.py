import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from arrayimg import greens
from arrayimg.errors import DomainError
from arrayimg.geometry import (ArrayGeometry, ImageWindow, WaveContext,
                               build_linear_array)
from arrayimg.greens import (green, mutual_coherence, pairwise_green_matrix,
                             sensing_matrix, theorem1_margin)
from arrayimg.io import write_coherence_report

CTX = WaveContext(wavelength=1.0)


class TestGreenHomogeneous:
    def test_full_period_distance(self):
        g = green([0.0, 0.0], [0.0, 1.0], CTX)[0, 0]
        assert g == pytest.approx(1.0 / (4 * np.pi), rel=1e-12)

    def test_half_period_distance(self):
        g = green([0.0, 0.0], [0.5, 0.0], CTX)[0, 0]
        assert g == pytest.approx(-1.0 / (2 * np.pi), rel=1e-12)

    def test_hundred_wavelengths(self):
        # frozen from an independent high-precision evaluation:
        # exp(200*pi*i) / (400*pi) = 1 / (400*pi) exactly
        g = green([0.0, 0.0], [0.0, 100.0], CTX)[0, 0]
        assert abs(g) == pytest.approx(7.957747154594767e-04, rel=1e-12)
        assert np.angle(g) == pytest.approx(0.0, abs=1e-10)

    def test_coincident_points(self):
        with pytest.raises(DomainError):
            green([1.0, 2.0], [1.0, 2.0], CTX)

    def test_reciprocity(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = rng.uniform(-50, 50, 2)
            y = rng.uniform(-50, 50, 2)
            if np.linalg.norm(x - y) < 1e-6:
                continue
            assert green(x, y, CTX)[0, 0] == pytest.approx(
                green(y, x, CTX)[0, 0], rel=1e-13)

    def test_magnitude_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            x = rng.uniform(-30, 30, 2)
            y = rng.uniform(60, 160, 2)
            r = np.linalg.norm(x - y)
            g = green(x, y, CTX)[0, 0]
            assert abs(g) * 4 * np.pi * r == pytest.approx(1.0, rel=1e-12)


class TestGreenVector:
    def test_single_transducer(self):
        geom = build_linear_array(1, 1.0)
        v = green(geom.positions, [3.0, 40.0], CTX)[:, 0]
        assert v.shape == (1,)
        assert v[0] == green(geom.positions[0], [3.0, 40.0], CTX)[0, 0]

    def test_symmetry_under_reversal(self):
        geom = build_linear_array(11, 1.0)
        v = green(geom.positions, [0.0, 70.0], CTX)[:, 0]
        assert np.allclose(v, v[::-1], rtol=1e-12)

    def test_norm_against_loop_oracle(self):
        geom = build_linear_array(100, 1.0)
        y = np.array([2.0, 100.0])
        v = green(geom.positions, y, CTX)[:, 0]
        loop = sum(abs(green(geom.positions[i], y, CTX)[0, 0]) ** 2
                   for i in range(100))
        assert np.linalg.norm(v) ** 2 == pytest.approx(loop, rel=1e-12)

    def test_coincident(self):
        geom = build_linear_array(3, 1.0)
        with pytest.raises(DomainError):
            green(geom.positions, geom.positions[1], CTX)


class TestSensingMatrix:
    def test_single_point_window(self):
        geom = build_linear_array(5, 1.0)
        win = ImageWindow(50.0, 1, 1, 1.0)
        mat = sensing_matrix(geom, win, CTX)
        v = green(geom.positions, win.points[0], CTX)[:, 0]
        assert np.allclose(mat.matrix[:, 0], v)

    def test_column_norms_positive(self):
        geom = build_linear_array(20, 1.0)
        win = ImageWindow(60.0, 5, 5, 2.0)
        mat = sensing_matrix(geom, win, CTX)
        norms = np.linalg.norm(mat.matrix, axis=0)
        assert np.all(norms > 0) and np.all(np.isfinite(norms))

    def test_paper_scale_columns_match_oracle(self):
        geom = build_linear_array(100, 1.0)
        win = ImageWindow(100.0, 41, 41, 1.0)
        mat = sensing_matrix(geom, win, CTX)
        assert mat.matrix.shape == (100, 1681)
        rng = np.random.default_rng(0)
        for j in map(int, rng.choice(1681, 5, replace=False)):
            col = np.array([green(geom.positions[i], win.points[j], CTX)[0, 0]
                            for i in range(100)])
            assert np.allclose(mat.matrix[:, j], col, rtol=1e-13)

    def test_coincidence_detected(self):
        geom = build_linear_array(3, 1.0)
        win = ImageWindow(0.0, 1, 3, 1.0)  # grid lands on the array line
        with pytest.raises(DomainError):
            sensing_matrix(geom, win, CTX)


class TestMutualCoherence:
    def test_orthogonal_columns(self):
        eps, _ = mutual_coherence(np.eye(4, dtype=complex))
        assert eps == pytest.approx(0.0, abs=1e-14)

    def test_identical_columns(self):
        col = np.array([1.0, 1j, 2.0])
        mat = np.column_stack([col, 3 * col, np.array([1.0, 0, 0])])
        eps, pair = mutual_coherence(mat)
        assert eps == pytest.approx(1.0, rel=1e-12)
        assert pair == (0, 1)

    def test_brute_force_oracle_on_subgrid(self):
        geom = build_linear_array(100, 1.0)
        win = ImageWindow(100.0, 41, 41, 1.0)
        mat = sensing_matrix(geom, win, CTX)
        sub = mat.matrix[:, ::97]  # sparse sub-grid of the paper geometry
        eps, pair = mutual_coherence(sub)
        k = sub.shape[1]
        best, best_pair = -1.0, None
        for i in range(k):
            for j in range(i + 1, k):
                v = abs(np.vdot(sub[:, i], sub[:, j])) / (
                    np.linalg.norm(sub[:, i]) * np.linalg.norm(sub[:, j]))
                if v > best:
                    best, best_pair = v, (i, j)
        assert eps == pytest.approx(best, rel=1e-12)
        assert pair == best_pair

    def test_blocked_scan_matches_direct(self, monkeypatch):
        # every shipped grid fits one block, so only this test crosses block
        # edges; a block of 1 multiplies by one row (gemv, not gemm), which
        # may round the maximum differently in the last bit
        rng = np.random.default_rng(5)
        k = 40
        mat = rng.standard_normal((8, k)) + 1j * rng.standard_normal((8, k))
        eps_direct, pair_direct = mutual_coherence(mat)
        for block in (1, 7, k - 1):
            monkeypatch.setattr(greens, "COHERENCE_BLOCK", block)
            eps_blocked, pair_blocked = mutual_coherence(mat)
            assert eps_blocked == pytest.approx(eps_direct, rel=1e-15), block
            assert pair_blocked == pair_direct, block

    def test_unit_modulus_column_scaling_invariance(self):
        rng = np.random.default_rng(6)
        mat = rng.standard_normal((10, 12)) + 1j * rng.standard_normal((10, 12))
        eps, _ = mutual_coherence(mat)
        scaled = mat * np.exp(1j * rng.uniform(0, 2 * np.pi, 12))[None, :]
        eps2, _ = mutual_coherence(scaled)
        assert eps2 == pytest.approx(eps, rel=1e-12)
        assert 0.0 <= eps <= 1.0

    def test_single_column_rejected(self):
        with pytest.raises(DomainError):
            mutual_coherence(np.ones((4, 1), dtype=complex))


class TestTheorem1Margin:
    def test_zero_coherence(self):
        assert theorem1_margin(0.0, 5) == pytest.approx(0.5)

    def test_boundary(self):
        assert theorem1_margin(0.1, 5) == pytest.approx(0.0)

    def test_invalid(self):
        with pytest.raises(DomainError):
            theorem1_margin(1.5, 2)
        with pytest.raises(DomainError):
            theorem1_margin(0.5, -1)


class TestCsvRoundTrip:
    def test_coherence_report(self, tmp_path):
        path = tmp_path / "coh.csv"
        write_coherence_report(path, 0.12, (3, 9), 3, 0.14)
        text = path.read_text()
        assert "coherence,0.12" in text
        assert "margin_m3,0.14" in text


class TestPairwiseGreens:
    def test_symmetric_zero_diagonal(self):
        pts = np.array([[0.0, 10.0], [3.0, 11.0], [-2.0, 14.0]])
        g = pairwise_green_matrix(pts, CTX)
        assert np.all(np.diag(g) == 0)
        assert np.allclose(g, g.T, rtol=1e-13)

    def test_coincident_rejected(self):
        pts = np.array([[0.0, 10.0], [0.0, 10.0]])
        with pytest.raises(DomainError):
            pairwise_green_matrix(pts, CTX)


coordinate = st.floats(-300.0, 300.0, allow_nan=False, allow_infinity=False)


class TestOneKernel:
    @settings(max_examples=150, deadline=None)
    @given(positions=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=4,
                              unique=True),
           center=st.floats(-300.0, 300.0), rows=st.integers(1, 3),
           cols=st.integers(1, 3), spacing=st.floats(1e-3, 50.0),
           wavelength=st.floats(0.05, 20.0))
    def test_every_entry_point_is_bit_identical(self, positions, center, rows, cols,
                                                spacing, wavelength):
        """green on one point pair and on the array, the sensing-matrix column
        and the pairwise entry evaluate the same bits for every
        transducer/point pair."""
        ctx = WaveContext(wavelength=wavelength)
        pos = np.array(positions, dtype=float)
        geom = ArrayGeometry(positions=pos)
        window = ImageWindow(center, rows, cols, spacing)
        pts = window.points
        both = np.vstack([pos, pts])
        gaps = np.linalg.norm(both[:, None, :] - both[None, :, :], axis=2)
        assume((gaps + np.eye(len(both))).min() > 1e-9)
        n = len(pos)
        sens = sensing_matrix(geom, window, ctx).matrix
        pair = pairwise_green_matrix(both, ctx)
        for j, y in enumerate(pts):
            column = green(geom.positions, y, ctx)[:, 0]
            assert column.tobytes() == sens[:, j].tobytes()
            assert column.tobytes() == pair[:n, n + j].tobytes()
            assert column.tobytes() == pair[n + j, :n].tobytes()
            single = np.array([green(x, y, ctx)[0, 0] for x in pos])
            assert column.tobytes() == single.tobytes()
