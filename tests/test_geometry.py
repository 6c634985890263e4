import numpy as np
import pytest

from arrayimg.errors import ConfigurationError
from arrayimg.geometry import (ImageWindow, WaveContext,
                               build_linear_array, place_scatterers)


class TestWaveContext:
    def test_wavenumber_identity(self):
        ctx = WaveContext(wavelength=1.0)
        assert ctx.wavenumber * ctx.wavelength == pytest.approx(2.0 * np.pi, rel=1e-15)

    @pytest.mark.parametrize("wl", [0.0, -1.0])
    def test_invalid_wavelength(self, wl):
        with pytest.raises(ConfigurationError):
            WaveContext(wavelength=wl)


class TestLinearArray:
    def test_paper_array_100(self):
        geom = build_linear_array(100, 1.0)
        assert geom.n == 100
        assert geom.aperture == pytest.approx(99.0)
        gaps = np.diff(geom.positions[:, 0])
        assert np.allclose(gaps, 1.0, rtol=1e-12)

    def test_aperture_25l_with_501(self):
        # 501 transducers over 25 correlation lengths (l = 20 wavelengths)
        aperture = 25 * 20.0
        geom = build_linear_array(501, aperture / 500)
        assert np.allclose(np.diff(geom.positions[:, 0]), 1.0, rtol=1e-12)
        assert geom.aperture == pytest.approx(500.0)

    def test_single_transducer(self):
        geom = build_linear_array(1, 1.0)
        assert geom.aperture == 0.0
        assert geom.positions.shape == (1, 2)

    def test_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            build_linear_array(0, 1.0)
        with pytest.raises(ConfigurationError):
            build_linear_array(10, 0.0)

    def test_positions_on_range_zero(self):
        geom = build_linear_array(7, 0.5)
        assert np.all(geom.positions[:, 1] == 0.0)
        assert np.allclose(geom.positions[:, 0].mean(), 0.0, atol=1e-12)


class TestImageWindow:
    def test_paper_window(self):
        win = ImageWindow(100.0, 41, 41, 1.0)
        assert win.k == 1681
        center = win.points.mean(axis=0)
        assert center == pytest.approx([0.0, 100.0])

    def test_single_point(self):
        win = ImageWindow(50.0, 1, 1, 1.0)
        assert win.k == 1
        assert win.points[0] == pytest.approx([0.0, 50.0])

    def test_index_round_trip(self):
        win = ImageWindow(100.0, 21, 21, 1.0)
        assert win.k == 441
        for i in range(win.k):
            r, c = win.index_to_rowcol(i)
            assert win.rowcol_to_index(r, c) == i

    def test_row_major_layout(self):
        win = ImageWindow(10.0, 3, 4, 2.0)
        assert win.index_to_rowcol(0) == (0, 0)
        assert win.index_to_rowcol(4) == (1, 0)
        # rows advance range, columns advance cross-range
        assert win.points[4][1] - win.points[0][1] == pytest.approx(2.0)
        assert win.points[1][0] - win.points[0][0] == pytest.approx(2.0)

    def test_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            ImageWindow(10.0, 0, 5, 1.0)
        with pytest.raises(ConfigurationError):
            ImageWindow(10.0, 5, 5, -1.0)
        win = ImageWindow(10.0, 2, 2, 1.0)
        with pytest.raises(ConfigurationError):
            win.index_to_rowcol(4)


class TestPlaceScatterers:
    def test_five_scatterers(self):
        win = ImageWindow(100.0, 41, 41, 1.0)
        rng = np.random.default_rng(0)
        mags = [2.96, 2.76, 2.05, 1.54, 1.35]
        idx = [10, 200, 500, 900, 1500]
        entries = [(i, m * np.exp(1j * rng.uniform(0, 2 * np.pi)))
                   for i, m in zip(idx, mags)]
        rho = place_scatterers(win, entries)
        assert rho.m == 5
        assert list(rho.support) == sorted(idx)
        assert np.abs(rho.values[idx]) == pytest.approx(mags)

    def test_empty(self):
        win = ImageWindow(100.0, 5, 5, 1.0)
        rho = place_scatterers(win, [])
        assert rho.m == 0
        assert not rho.values.any()

    def test_four_scatterers_section54(self):
        win = ImageWindow(1000.0, 41, 41, 1.0)
        mags = [0.8, 1.0, 0.5, 0.7]
        rho = place_scatterers(win, list(zip([3, 44, 700, 1000], mags)))
        assert rho.m == 4

    def test_duplicate_and_range_errors(self):
        win = ImageWindow(100.0, 5, 5, 1.0)
        with pytest.raises(ConfigurationError):
            place_scatterers(win, [(3, 1.0), (3, 2.0)])
        with pytest.raises(ConfigurationError):
            place_scatterers(win, [(25, 1.0)])

    def test_support_round_trip_random(self):
        win = ImageWindow(100.0, 10, 10, 1.0)
        rng = np.random.default_rng(42)
        for _ in range(20):
            k = rng.integers(0, 10)
            idx = rng.choice(100, size=k, replace=False)
            rho = place_scatterers(win, [(int(i), 1.0 + 1j) for i in idx])
            assert list(rho.support) == sorted(int(i) for i in idx)
