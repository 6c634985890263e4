import numpy as np
import pytest

from arrayimg.errors import ConfigurationError, DomainError
from arrayimg.experiments import add_noise
from arrayimg.geometry import (ImageWindow, WaveContext,
                               build_linear_array, place_scatterers)
from arrayimg.greens import theorem1_margin
from arrayimg.random_medium import (RandomMediumSpec, effective_aperture,
                                    estimate_second_moment, estimate_stability_ratio,
                                    stability_bound)
from arrayimg.sparse_solvers import SolverParams, theorem2_error_bound
from oracles import paraxial_ratio

NAN = float("nan")
INF = float("inf")


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

    @pytest.mark.parametrize("n, pitch", [
        (501, 1.0), (501, 2.0), (501, 4.0), (100, 1.0), (50, 1.0), (101, 20.0)])
    def test_aperture_is_the_extent_to_the_bit(self, n, pitch):
        # the shipped arrays: the derived extent equals (n - 1) * pitch exactly
        assert build_linear_array(n, pitch).aperture == (n - 1) * pitch

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


def stability_bound_at(aperture, separation=10.0):
    return stability_bound(RandomMediumSpec(20.0, 0.001), aperture, 1000.0, separation,
                           WaveContext(1.0))


def paraxial_ratio_at(xi, eta):
    return paraxial_ratio(build_linear_array(11, 10.0), xi, eta, WaveContext(1.0),
                          RandomMediumSpec(20.0, 0.001), 1000.0)


def second_moment_with(realizations):
    return estimate_second_moment([0.0, 0.0], [0.0, 100.0], [3.0, 100.0], WaveContext(1.0),
                                  RandomMediumSpec(20.0, 0.001), realizations=realizations)


def stability_ratio_with(realizations):
    return estimate_stability_ratio(build_linear_array(11, 10.0), [0.0, 1000.0],
                                    [5.0, 1000.0], WaveContext(1.0),
                                    RandomMediumSpec(20.0, 0.001), realizations=realizations)


@pytest.mark.parametrize("error, call", [
    (ConfigurationError, lambda: WaveContext(NAN)),
    (ConfigurationError, lambda: build_linear_array(3, NAN)),
    (ConfigurationError, lambda: ImageWindow(100.0, 3, 3, NAN)),
    (ConfigurationError, lambda: RandomMediumSpec(correlation_length=NAN, sigma=0.1)),
    (ConfigurationError, lambda: RandomMediumSpec(correlation_length=10.0, sigma=NAN)),
    (ConfigurationError, lambda: RandomMediumSpec(10.0, 0.1, lattice_spacing=0.0)),
    (ConfigurationError, lambda: RandomMediumSpec(10.0, 0.1, lattice_spacing=-1.0)),
    (ConfigurationError, lambda: RandomMediumSpec(10.0, 0.1, lattice_spacing=NAN)),
    (ConfigurationError, lambda: add_noise(np.ones((3, 3)), NAN)),
    (DomainError, lambda: effective_aperture(RandomMediumSpec(10.0, 0.1), NAN)),
    (DomainError, lambda: theorem2_error_bound(NAN, 3, 0.1)),
    (ConfigurationError, lambda: WaveContext(INF)),
    (ConfigurationError, lambda: build_linear_array(3, INF)),
    (ConfigurationError, lambda: ImageWindow(NAN, 2, 2, 1.0)),
    (ConfigurationError, lambda: ImageWindow(INF, 2, 2, 1.0)),
    (ConfigurationError, lambda: ImageWindow(100.0, 2, 2, INF)),
    (ConfigurationError, lambda: RandomMediumSpec(correlation_length=INF, sigma=0.001)),
    (ConfigurationError, lambda: RandomMediumSpec(correlation_length=20.0, sigma=INF)),
    (DomainError, lambda: theorem1_margin(0.5, NAN)),
    (DomainError, lambda: theorem2_error_bound(INF, 3, 0.1)),
    (DomainError, lambda: effective_aperture(RandomMediumSpec(10.0, 0.1), INF)),
    (DomainError, lambda: stability_bound_at(0.0)),
    (DomainError, lambda: stability_bound_at(-500.0)),
    (DomainError, lambda: stability_bound_at(NAN)),
    (DomainError, lambda: stability_bound_at(500.0, NAN)),
    (DomainError, lambda: stability_bound_at(500.0, INF)),
    (DomainError, lambda: stability_bound_at(500.0, -10.0)),
    (DomainError, lambda: paraxial_ratio_at(NAN, 0.0)),
    (DomainError, lambda: paraxial_ratio_at(0.0, NAN)),
    (DomainError, lambda: paraxial_ratio_at(INF, 0.0)),
    (DomainError, lambda: paraxial_ratio_at(0.0, -INF)),
    (ConfigurationError, lambda: SolverParams(delta=INF)),
    (ConfigurationError, lambda: SolverParams(tolerance=INF)),
    (ConfigurationError, lambda: SolverParams(max_iterations=INF)),
    (ConfigurationError, lambda: SolverParams(max_iterations=2.5)),
    (ConfigurationError, lambda: add_noise(np.ones((3, 3)), INF)),
    (ConfigurationError, lambda: second_moment_with(2.5)),
    (ConfigurationError, lambda: second_moment_with(INF)),
    (ConfigurationError, lambda: stability_ratio_with(250.0)),
], ids=["wavelength", "pitch", "spacing", "correlation-length", "sigma",
        "lattice-zero", "lattice-negative", "lattice-nan", "noise", "aperture-range",
        "bound-delta", "wavelength-inf", "pitch-inf", "center-range-nan",
        "center-range-inf", "spacing-inf", "correlation-length-inf", "sigma-inf",
        "margin-count-nan", "bound-delta-inf", "aperture-range-inf",
        "stability-aperture-zero", "stability-aperture-negative",
        "stability-aperture-nan", "stability-separation-nan",
        "stability-separation-inf", "stability-separation-negative", "paraxial-xi-nan",
        "paraxial-eta-nan", "paraxial-xi-inf", "paraxial-eta-inf", "solver-delta-inf",
        "solver-tolerance-inf", "solver-iterations-inf", "solver-iterations-float",
        "noise-inf", "second-moment-realizations-float", "second-moment-realizations-inf",
        "stability-realizations-float"])
def test_nan_and_nonpositive_inputs_refused(error, call):
    """A library caller's NaN or infinity, a synthesis lattice spacing of zero
    or less, a nonpositive aperture, a negative separation or a count that is
    not an integer is refused where it enters, not met later as a NaN or
    infinite result, a division by zero or a ``TypeError``."""
    with pytest.raises(error):
        call()
