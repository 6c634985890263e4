import os
import signal
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scipy.fft import fft2, ifft2, next_fast_len

from arrayimg import random_medium
from arrayimg.config import load_config
from arrayimg.errors import ConfigurationError, DomainError
from arrayimg.experiments import _truth
from arrayimg.geometry import (ImageWindow, WaveContext,
                               build_linear_array, place_scatterers)
from arrayimg.greens import green_homogeneous, green_vector, sensing_matrix
from arrayimg.foldy_lax import response_matrix_born
from arrayimg.random_medium import (_KERNELS, RandomMediumSpec,
                                    _derived_seed, _variance_with_se,
                                    autocorrelation_integral, effective_aperture,
                                    estimate_second_moment,
                                    estimate_stability_ratio,
                                    paraxial_ratio, phase_line_integral,
                                    random_green_vector, region_for,
                                    response_matrix_random, sample_field,
                                    stability_bound)
from arrayimg.io import write_stability_csv

CTX = WaveContext(wavelength=1.0)
L_CORR = 20.0
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def box(cross_min, cross_max, range_min, range_max):
    """A sampling region as ``sample_field`` takes it: its ``(low, high)`` corners."""
    return (cross_min, range_min), (cross_max, range_max)


def gaussian_spec(sigma=0.001, seed=0):
    return RandomMediumSpec(correlation_length=L_CORR, sigma=sigma,
                            kernel="gaussian", master_seed=seed)


class TestAutocorrelationIntegral:
    def test_gaussian_analytic(self):
        assert autocorrelation_integral("gaussian") == pytest.approx(
            -np.sqrt(np.pi / 2), abs=1e-9)

    def test_power_law_analytic(self):
        assert autocorrelation_integral("power-law") == pytest.approx(-1.0, abs=1e-9)

    def test_negative_for_all_kernels(self):
        for kind in ("gaussian", "power-law"):
            assert autocorrelation_integral(kind) < 0

    def test_unsupported_kernel(self):
        with pytest.raises(ConfigurationError):
            autocorrelation_integral("cauchy")


class TestEffectiveAperture:
    def test_zero_sigma(self):
        ea = effective_aperture(gaussian_spec(sigma=0.0), 1000.0)
        assert ea == 0.0

    def test_paper_scale_value(self):
        # sigma = 0.001, l = 20, L = 1000 -> a_e ~ 6.386 wavelengths
        ea = effective_aperture(gaussian_spec(), 1000.0)
        expected = 0.001 * 1000.0 * np.sqrt(
            -1.0 + (2 * 1000.0 / (3 * 20.0)) * np.sqrt(np.pi / 2))
        assert ea == pytest.approx(expected, rel=1e-9)
        assert ea == pytest.approx(6.386, abs=2e-3)

    def test_linear_in_sigma(self):
        a1 = effective_aperture(gaussian_spec(sigma=0.001), 1000.0)
        a2 = effective_aperture(gaussian_spec(sigma=0.002), 1000.0)
        assert a2 == pytest.approx(2 * a1, rel=1e-12)

    def test_short_range_rejected(self):
        with pytest.raises(DomainError):
            effective_aperture(gaussian_spec(), 10.0)  # L < validity scale

    def test_regime_warning(self):
        spec = RandomMediumSpec(correlation_length=2.0, sigma=0.001,
                                kernel="gaussian")
        with pytest.warns(UserWarning):
            effective_aperture(spec, 100.0, wavelength=5.0)


class TestSampleField:
    def test_determinism(self):
        spec = gaussian_spec()
        region = box(-40.0, 40.0, 0.0, 80.0)
        f1 = sample_field(spec, region, seed=11)
        f2 = sample_field(spec, region, seed=11)
        assert np.array_equal(f1.values, f2.values)
        f3 = sample_field(spec, region, seed=12)
        assert not np.array_equal(f1.values, f3.values)

    def test_values_own_a_c_ordered_block(self):
        # ray plans read the values through a flat view, and a view of the
        # padded lattice would keep the whole lattice alive
        field = sample_field(gaussian_spec(), box(-40.0, 40.0, 0.0, 80.0), seed=5)
        assert field.values.flags.c_contiguous and field.values.flags.owndata

    @settings(max_examples=25, deadline=None)
    @given(low=st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0)),
           size=st.tuples(st.floats(0.0, 30.0), st.floats(0.0, 30.0)))
    @example(low=(0.0, 0.0), size=(0.0, 0.0))
    def test_at_least_two_nodes_per_axis(self, low, size):
        # the invariant _BilinearPlan relies on, a zero-extent region included
        region = box(low[0], low[0] + size[0], low[1], low[1] + size[1])
        field = sample_field(gaussian_spec(), region, seed=0)
        assert min(field.values.shape) >= 2 and field.origin == low

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (1, 1)])
    def test_one_node_axis_rejected(self, shape):
        # sample_field never makes such a lattice; a hand-built one is refused
        # instead of being read at a corner it does not have
        field = random_medium.RandomFieldRealization(
            values=np.ones(shape), origin=(0.0, 0.0), spacing=1.0,
            spec=gaussian_spec(), imag=np.ones(shape))
        with pytest.raises(DomainError, match="one node"):
            field.interpolate([[0.0, 0.0]])

    def test_lattice_spacing_guard(self):
        with pytest.raises(ConfigurationError):
            RandomMediumSpec(correlation_length=L_CORR, sigma=0.001,
                             lattice_spacing=L_CORR / 2)

    def test_mean_and_variance(self):
        spec = gaussian_spec()
        region = box(-50.0, 50.0, 0.0, 100.0)
        vals = np.concatenate([sample_field(spec, region, seed=s).values.ravel()
                               for s in range(150)])
        assert vals.size >= 1e5
        assert abs(vals.mean()) <= 3.0 / np.sqrt(vals.size) * 30  # correlated samples
        assert 0.95 <= vals.var() <= 1.05

    def test_autocorrelation_at_one_length(self):
        spec = gaussian_spec()
        region = box(-50.0, 50.0, 0.0, 100.0)
        prods = []
        lag_cells = int(round(L_CORR / spec.lattice_spacing))
        for s in range(220):
            v = sample_field(spec, region, seed=s).values
            prods.append(np.mean(v[:, :-lag_cells] * v[:, lag_cells:]))
        assert np.mean(prods) == pytest.approx(np.exp(-0.5), abs=0.05)

    def test_power_law_covariance(self):
        spec = RandomMediumSpec(correlation_length=L_CORR, sigma=0.001,
                                kernel="power-law", master_seed=0)
        region = box(-50.0, 50.0, 0.0, 100.0)
        prods = []
        lag_cells = int(round(L_CORR / spec.lattice_spacing))
        for s in range(220):
            v = sample_field(spec, region, seed=s).values
            prods.append(np.mean(v[:, :-lag_cells] * v[:, lag_cells:]))
        assert np.mean(prods) == pytest.approx(2 * np.exp(-1), abs=0.05)

    def test_real_and_imaginary_halves(self):
        # two nodes one correlation length apart, one sample of each half per
        # draw: each half has variance 1 and covariance e^(-1/2) at the lag,
        # and every cross moment of the halves is 0.  Each bound is four
        # standard errors of a mean of n products of unit Gaussians: sqrt(2/n)
        # for a square, sqrt((1 + rho^2)/n) at correlation rho, sqrt(1/n) for
        # independent factors
        spec = gaussian_spec()
        region = box(0.0, 20.0, 0.0, 20.0)
        lag = int(round(L_CORR / spec.lattice_spacing))
        n = 400
        draws = [sample_field(spec, region, seed=s) for s in range(n)]
        assert draws[0].imag.flags.c_contiguous and draws[0].imag.flags.owndata
        assert draws[0].imag.shape == draws[0].values.shape and draws[0].values.shape[1] > lag
        re = np.array([[d.values[0, 0], d.values[0, lag]] for d in draws])
        im = np.array([[d.imag[0, 0], d.imag[0, lag]] for d in draws])
        rho = np.exp(-0.5)
        for half in (re, im):
            assert abs(np.mean(half[:, 0] ** 2) - 1) <= 4 * np.sqrt(2 / n)
            assert abs(np.mean(half[:, 1] ** 2) - 1) <= 4 * np.sqrt(2 / n)
            assert abs(np.mean(half[:, 0] * half[:, 1]) - rho) <= 4 * np.sqrt((1 + rho ** 2) / n)
        for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
            assert abs(np.mean(re[:, a] * im[:, b])) <= 4 * np.sqrt(1 / n)


class TestPhaseLineIntegral:
    def test_zero_field(self):
        spec = gaussian_spec()
        region = box(-40.0, 40.0, 0.0, 80.0)
        field = sample_field(spec, region, seed=0)
        field.values = np.zeros_like(field.values)
        assert phase_line_integral(field, [0.0, 0.0], [10.0, 70.0]) == 0.0

    def test_constant_field(self):
        spec = gaussian_spec()
        region = box(-40.0, 40.0, 0.0, 80.0)
        field = sample_field(spec, region, seed=0)
        field.values = np.full_like(field.values, 2.5)
        nu = phase_line_integral(field, [0.0, 0.0], [10.0, 70.0])
        assert nu == pytest.approx(2.5, rel=1e-12)

    def test_quadrature_refinement(self):
        spec = gaussian_spec()
        region = box(-40.0, 40.0, 0.0, 80.0)
        field = sample_field(spec, region, seed=7)
        x, y = np.array([0.0, 0.0]), np.array([3.0, 75.0])
        coarse = phase_line_integral(field, x, y)
        # halving the correlation length halves the quadrature step
        fine_spec = RandomMediumSpec(correlation_length=L_CORR / 2, sigma=0.001,
                                     lattice_spacing=L_CORR / 10)
        fine_field = type(field)(values=field.values, origin=field.origin,
                                 spacing=field.spacing, spec=fine_spec, imag=field.imag)
        fine = phase_line_integral(fine_field, x, y)
        assert abs(coarse - fine) <= 0.01 * max(abs(fine), 1e-12)

    def test_rows_match_single_segments(self):
        field = sample_field(gaussian_spec(), box(-40.0, 40.0, 0.0, 80.0), seed=3)
        starts = np.array([[-12.0, 0.0], [12.0, 0.0]])  # equal lengths, equal steps
        y = [0.0, 70.0]
        rows = phase_line_integral(field, starts, y)
        assert rows.shape == (2,)
        assert np.array_equal(rows, [phase_line_integral(field, x, y) for x in starts])

    def test_segment_outside_region(self):
        spec = gaussian_spec()
        region = box(-40.0, 40.0, 0.0, 80.0)
        field = sample_field(spec, region, seed=0)
        with pytest.raises(DomainError):
            phase_line_integral(field, [0.0, 0.0], [0.0, 300.0])


    @pytest.mark.parametrize("point", [[np.nan, 10.0], [10.0, np.nan], [np.inf, 10.0]])
    def test_non_finite_point_rejected(self, point):
        field = sample_field(gaussian_spec(), box(-40.0, 40.0, 0.0, 80.0), seed=0)
        with pytest.raises(DomainError):
            field.interpolate([point])


class TestGreenRandom:
    def test_vector_norm_preserved(self):
        spec = gaussian_spec(sigma=0.01)
        geom = build_linear_array(64, 1.0)
        y = np.array([3.0, 400.0])
        region = region_for(np.vstack([geom.positions, y]), spec)
        field = sample_field(spec, region, seed=3)
        g = random_green_vector(field, geom, y, CTX)
        g0 = green_vector(geom, y, CTX)
        assert np.linalg.norm(g) == pytest.approx(np.linalg.norm(g0), rel=1e-12)
        assert np.allclose(np.abs(g), np.abs(g0), rtol=1e-12)

    @pytest.mark.slow
    def test_second_moment_formula(self):
        # MC check of the second-moment decay with the derived a_e
        spec = gaussian_spec()
        x = [0.0, 0.0]
        ea = effective_aperture(spec, 1000.0)
        kappa = CTX.wavenumber
        ratios = []
        for dy in (1.0, 3.0, 10.0):
            ratio, se = estimate_second_moment(x, [0.0, 1000.0], [dy, 1000.0],
                                               CTX, spec, realizations=500,
                                               master_seed=5)
            pred = np.exp(-kappa ** 2 * ea ** 2 * dy ** 2 / (2 * 1000.0 ** 2))
            assert ratio == pytest.approx(pred, rel=0.10)
            ratios.append(ratio)
        assert ratios[0] > ratios[1] > ratios[2]  # monotone decay in |y1 - y2|


class TestResponseMatrixRandom:
    def setup_scene(self, sigma, entries=((6, 0.8), (18, 1.2 * np.exp(1j))), seed=2):
        spec = RandomMediumSpec(correlation_length=L_CORR, sigma=sigma,
                                kernel="gaussian", master_seed=0)
        geom = build_linear_array(32, 1.0)
        win = ImageWindow(400.0, 5, 5, 3.0)
        sens = sensing_matrix(geom, win, CTX)
        rho = place_scatterers(win, entries)
        region = region_for(np.vstack([geom.positions, win.points]), spec)
        field = sample_field(spec, region, seed=seed)
        return spec, geom, win, sens, rho, field

    def test_zero_sigma_equals_born(self):
        spec, geom, win, sens, rho, field = self.setup_scene(0.0)
        rand = response_matrix_random(field, sens, rho)
        born = response_matrix_born(sens, rho)
        assert np.allclose(rand.matrix, born.matrix, rtol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(entries=st.lists(
               st.tuples(st.integers(0, 24),
                         st.complex_numbers(min_magnitude=0.05, max_magnitude=3.0,
                                            allow_nan=False, allow_infinity=False)),
               min_size=1, max_size=6, unique_by=lambda entry: entry[0]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(entries=[(6, 0.8), (18, 1.2 * np.exp(1j))], seed=2)
    def test_symmetry_exact(self, entries, seed):
        spec, geom, win, sens, rho, field = self.setup_scene(0.01, entries, seed)
        rand = response_matrix_random(field, sens, rho)
        assert np.array_equal(rand.matrix, rand.matrix.T)

    def test_single_scatterer_rank_one_magnitude(self):
        spec = gaussian_spec(sigma=0.01)
        geom = build_linear_array(32, 1.0)
        win = ImageWindow(400.0, 5, 5, 3.0)
        sens = sensing_matrix(geom, win, CTX)
        rho = place_scatterers(win, [(12, 0.9 * np.exp(1j * 0.3))])
        region = region_for(np.vstack([geom.positions, win.points]), spec)
        field = sample_field(spec, region, seed=4)
        rand = response_matrix_random(field, sens, rho)
        _, s, _ = rand.svd()
        g0 = sens.matrix[:, 12]
        assert s[0] == pytest.approx(0.9 * np.linalg.norm(g0) ** 2, rel=1e-10)
        assert s[1] <= 1e-10 * s[0]


class TestStabilityEstimators:
    def test_zero_sigma_zero_ratio(self):
        spec = gaussian_spec(sigma=0.0)
        geom = build_linear_array(64, 2.0)
        est = estimate_stability_ratio(geom, [0.0, 1000.0], [5.0, 1000.0], CTX,
                                       spec, realizations=100, mode="self")
        assert est.estimate == pytest.approx(0.0, abs=1e-20)

    def test_too_few_realizations(self):
        spec = gaussian_spec()
        geom = build_linear_array(16, 2.0)
        with pytest.raises(ConfigurationError):
            estimate_stability_ratio(geom, [0.0, 1000.0], [5.0, 1000.0], CTX,
                                     spec, realizations=10)

    @pytest.mark.parametrize("realizations, ok", [(1, False), (2, True)])
    def test_second_moment_needs_two_realizations(self, realizations, ok):
        # one realization leaves the standard error zero degrees of freedom
        args = ([0.0, 0.0], [0.0, 100.0], [3.0, 100.0], CTX, gaussian_spec())
        if ok:
            ratio, se = estimate_second_moment(*args, realizations=realizations)
            assert np.isfinite(ratio) and np.isfinite(se)
        else:
            with pytest.raises(ConfigurationError):
                estimate_second_moment(*args, realizations=realizations)

    def test_bad_mode(self):
        spec = gaussian_spec()
        geom = build_linear_array(16, 2.0)
        with pytest.raises(ConfigurationError):
            estimate_stability_ratio(geom, [0.0, 1000.0], [5.0, 1000.0], CTX,
                                     spec, realizations=100, mode="other")

    @pytest.mark.slow
    def test_self_mode_decays_with_aperture(self):
        # the closed-form bound is derived for an area aperture; a linear
        # array tracks it only up to an order-of-magnitude geometric factor,
        # so the assertions here are the decay itself plus that bracket
        spec = gaussian_spec()
        y1, y2 = [0.0, 1000.0], [10.0, 1000.0]
        results = []
        for n, aperture in ((126, 25 * L_CORR), (251, 50 * L_CORR)):
            geom = build_linear_array(n, aperture / (n - 1))
            est = estimate_stability_ratio(geom, y1, y2, CTX, spec,
                                           realizations=100, mode="self",
                                           master_seed=9)
            bound = stability_bound(spec, aperture, 1000.0, 10.0, CTX)
            assert bound / 10 <= est.estimate <= 30 * bound
            results.append(est)
        small, large = results
        assert large.estimate < small.estimate + 2 * (small.std_error
                                                      + large.std_error)

    @pytest.mark.slow
    def test_mixed_mode_runs_and_is_small(self):
        spec = gaussian_spec()
        geom = build_linear_array(126, 25 * L_CORR / 125)
        est = estimate_stability_ratio(geom, [0.0, 1000.0], [10.0, 1000.0], CTX,
                                       spec, realizations=100, mode="mixed",
                                       master_seed=4)
        assert 0.0 <= est.estimate < 1.0
        assert est.std_error > 0


# Reference spellings of the synthesis, the interpolation, the line integral
# and both estimator loops as they were before the seed-free work (spectral
# amplitude, ray plans) moved out of the realization loops.  The package must
# match them bit for bit.  Realization r of both estimator loops is half r % 2
# (0 real, 1 imaginary) of draw r // 2, seeded by _derived_seed(seed0, r // 2).

def _reference_field_values(spec, region, seed, half=0):
    step = spec.lattice_spacing
    l = spec.correlation_length
    (cross_min, range_min), (cross_max, range_max) = region
    n_cross = int(np.ceil((cross_max - cross_min) / step)) + 2
    n_range = int(np.ceil((range_max - range_min) / step)) + 2
    pad = int(np.ceil(_KERNELS[spec.kernel]["pad"] * l / step))
    m_cross = next_fast_len(n_cross + pad)
    m_range = next_fast_len(n_range + pad)

    ix = np.arange(m_cross)
    iz = np.arange(m_range)
    dx = np.minimum(ix, m_cross - ix) * step
    dz = np.minimum(iz, m_range - iz) * step
    r = np.sqrt(dx[:, None] ** 2 + dz[None, :] ** 2) / l
    cov = _KERNELS[spec.kernel]["r"](r)
    eig = np.maximum(fft2(cov).real, 0.0)

    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((m_cross, m_range)) \
        + 1j * rng.standard_normal((m_cross, m_range))
    synthesis = ifft2(np.sqrt(eig) * noise)
    sample = (synthesis.real, synthesis.imag)[half] * np.sqrt(m_cross * m_range)
    return np.ascontiguousarray(sample[:n_cross, :n_range])


def _reference_interpolate(field, points):
    p = np.atleast_2d(np.asarray(points, dtype=float))
    u = (p[:, 0] - field.origin[0]) / field.spacing
    v = (p[:, 1] - field.origin[1]) / field.spacing
    n0, n1 = field.values.shape
    if np.any(u < -1e-9) or np.any(v < -1e-9) or \
            np.any(u > n0 - 1 + 1e-9) or np.any(v > n1 - 1 + 1e-9):
        raise DomainError("interpolation point outside the sampled region")
    u = np.clip(u, 0.0, n0 - 1)
    v = np.clip(v, 0.0, n1 - 1)
    i0 = np.minimum(u.astype(int), n0 - 2) if n0 > 1 else np.zeros_like(u, dtype=int)
    j0 = np.minimum(v.astype(int), n1 - 2) if n1 > 1 else np.zeros_like(v, dtype=int)
    fu = u - i0
    fv = v - j0
    i1 = np.minimum(i0 + 1, n0 - 1)
    j1 = np.minimum(j0 + 1, n1 - 1)
    vals = (field.values[i0, j0] * (1 - fu) * (1 - fv)
            + field.values[i1, j0] * fu * (1 - fv)
            + field.values[i0, j1] * (1 - fu) * fv
            + field.values[i1, j1] * fu * fv)
    return vals


def _reference_phase_line_integral(field, x, y):
    starts = np.atleast_2d(np.asarray(x, dtype=float))
    diffs = np.asarray(y, dtype=float)[None, :] - starts
    dists = np.linalg.norm(diffs, axis=1)
    steps = max(1, int(np.ceil(dists.max() / (field.spec.correlation_length / 10.0))))
    s = (np.arange(steps) + 0.5) / steps
    pts = starts[:, None, :] + s[None, :, None] * diffs[:, None, :]
    nu = _reference_interpolate(field, pts.reshape(-1, 2)).reshape(len(starts), steps) \
        .mean(axis=1)
    return float(nu[0]) if np.ndim(x) == 1 else nu


def _reference_field(spec, region, seed, half=0):
    return random_medium.RandomFieldRealization(
        values=_reference_field_values(spec, region, seed, half),
        origin=region[0],
        spacing=spec.lattice_spacing, spec=spec,
        imag=_reference_field_values(spec, region, seed, 1 - half))


def _reference_green_random(field, x, y, ctx):
    base = green_homogeneous(x, y, ctx)
    dist = float(np.linalg.norm(np.asarray(y, float) - np.asarray(x, float)))
    nu = _reference_phase_line_integral(field, x, y)
    return base * np.exp(1j * field.spec.sigma * ctx.wavenumber * dist * nu)


def _reference_random_green_vector(field, geom, y, ctx):
    y = np.asarray(y, dtype=float)
    base = green_vector(geom, y, ctx)
    dists = np.linalg.norm(y[None, :] - geom.positions, axis=1)
    nu = _reference_phase_line_integral(field, geom.positions, y)
    return base * np.exp(1j * field.spec.sigma * ctx.wavenumber * dists * nu)


def _reference_second_moment(x, y1, y2, ctx, spec, realizations, master_seed):
    seed0 = master_seed
    x = np.asarray(x, dtype=float)
    pts = np.vstack([np.asarray(y1, float), np.asarray(y2, float)])
    region = region_for(np.vstack([x, pts]), spec)
    samples = np.empty(realizations, dtype=complex)
    for r in range(realizations):
        field = _reference_field(spec, region, _derived_seed(seed0, r // 2), r % 2)
        g1 = _reference_green_random(field, x, pts[0], ctx)
        g2 = _reference_green_random(field, x, pts[1], ctx)
        samples[r] = g1 * np.conj(g2)
    base = green_homogeneous(x, pts[0], ctx) * np.conj(green_homogeneous(x, pts[1], ctx))
    ratio = np.abs(samples.mean()) / np.abs(base)
    se = float(np.std(samples / base, ddof=1) / np.sqrt(realizations))
    return float(ratio), se


def _reference_stability_ratio(geom, y1, y2, ctx, spec, realizations, mode, master_seed):
    seed0 = master_seed
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    region = region_for(np.vstack([geom.positions, y1, y2]), spec)
    g0_1 = green_vector(geom, y1, ctx)
    g0_2 = green_vector(geom, y2, ctx)
    samples = np.empty(realizations, dtype=complex)
    for r in range(realizations):
        field = _reference_field(spec, region, _derived_seed(seed0, r // 2), r % 2)
        g2 = _reference_random_green_vector(field, geom, y2, ctx)
        if mode == "self":
            g1 = _reference_random_green_vector(field, geom, y1, ctx)
        else:
            g1 = g0_1
        samples[r] = np.vdot(g1, g2)
    denom = float(np.linalg.norm(g0_1) ** 2 * np.linalg.norm(g0_2) ** 2)
    var, se = _variance_with_se(samples)
    return random_medium.StabilityEstimate(estimate=var / denom, std_error=se / denom)


KERNELS = st.sampled_from(["gaussian", "power-law"])
SEEDS = st.integers(0, 2 ** 32 - 1)
COORD = st.floats(-60.0, 60.0, allow_nan=False)


def _spec(kernel, sigma=0.01, seed=0):
    return RandomMediumSpec(correlation_length=L_CORR, sigma=sigma, kernel=kernel,
                            master_seed=seed)


class TestMatchesReference:
    """The seed-free work built once gives the same bits as rebuilding it."""

    @settings(max_examples=20, deadline=None)
    @given(kernel=KERNELS, seed=SEEDS,
           low=st.tuples(COORD, COORD), size=st.tuples(st.floats(0.0, 90.0),
                                                        st.floats(0.0, 90.0)))
    def test_field_values(self, kernel, seed, low, size):
        region = box(low[0], low[0] + size[0], low[1], low[1] + size[1])
        spec = _spec(kernel)
        field = sample_field(spec, region, seed=seed)
        assert field.values.tobytes() == \
            _reference_field_values(spec, region, seed).tobytes()

    @settings(max_examples=10, deadline=None)
    @given(kernel=KERNELS, seed=SEEDS)
    def test_imaginary_half(self, kernel, seed):
        region = box(-30.0, 30.0, 0.0, 60.0)
        spec = _spec(kernel)
        field = sample_field(spec, region, seed=seed)
        assert field.imag.tobytes() == \
            _reference_field_values(spec, region, seed, half=1).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(kernel=KERNELS, seed=SEEDS,
           starts=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=6),
           end=st.tuples(COORD, COORD))
    @example(kernel="gaussian", seed=0, starts=[(-60.0, -60.0)], end=(60.0, 60.0))
    def test_line_integrals_and_interpolation(self, kernel, seed, starts, end):
        spec = _spec(kernel)
        starts = np.array(starts)
        field = sample_field(spec, region_for(np.vstack([starts, end]), spec), seed=seed)
        assert np.array_equal(phase_line_integral(field, starts, end),
                              _reference_phase_line_integral(field, starts, end))
        single = phase_line_integral(field, starts[0], end)
        assert type(single) is float
        assert single == _reference_phase_line_integral(field, starts[0], end)
        # lattice nodes, the far corner included, and the segment's end points
        n0, n1 = field.values.shape
        corners = np.array([[0, 0], [n0 - 1, n1 - 1], [n0 - 1, 0], [0, n1 - 1]])
        points = np.vstack([np.asarray(field.origin) + corners * field.spacing,
                            starts, end])
        assert np.array_equal(field.interpolate(points),
                              _reference_interpolate(field, points))

    def test_blocked_rays_on_fig89_geometry(self):
        # fig89's array and window: 501 segments of several hundred nodes each
        # run through many blocks of phase_line_integral, the last one partial
        geom = build_linear_array(501, 4.0)
        window = ImageWindow(1000.0, 41, 41, 1.0)
        spec = _spec("gaussian", sigma=0.001)
        region = region_for(np.vstack([geom.positions, window.points]), spec)
        field = sample_field(spec, region, seed=1)
        for y in window.points[[0, 860, window.k - 1]]:
            _, _, s = random_medium._ray_frame(geom.positions, y, L_CORR)
            rays = random_medium._BLOCK_NODES // len(s)
            assert len(s) > 300 and geom.n > rays > 1 and geom.n % rays
            assert np.array_equal(phase_line_integral(field, geom.positions, y),
                                  _reference_phase_line_integral(field, geom.positions, y))
            assert np.array_equal(random_green_vector(field, geom, y, CTX),
                                  _reference_random_green_vector(field, geom, y, CTX))
        # only the last segment, so only the last block, leaves the lattice
        starts = geom.positions.copy()
        starts[-1, 0] = field.origin[0] + field.spacing * field.values.shape[0]
        with pytest.raises(DomainError):
            phase_line_integral(field, starts, window.points[0])

    def test_planned_rays_match_blocked_rays_on_fig89(self):
        # the estimators' planned rays and the forward model's blocked rays are
        # two paths to one quadrature, kept for speed: the fig89 scene of seed
        # 1 must read the same bits along both at every true scatterer
        cfg = load_config(SCENARIOS / "fig89_random_medium.ini")
        sensing, rho = _truth(cfg, 1)
        spec = RandomMediumSpec(correlation_length=cfg.correlation_length, sigma=cfg.sigma,
                                kernel=cfg.kernel, lattice_spacing=cfg.lattice_spacing)
        positions = sensing.geom.positions
        field = sample_field(spec, region_for(np.vstack([positions, sensing.window.points]),
                                              spec), seed=1)
        assert len(rho.support) == len(cfg.cells) > 0
        for y in sensing.window.points[rho.support]:
            planned = random_medium._ray_plan(field, positions, y)(field.values)
            assert planned.tobytes() == phase_line_integral(field, positions, y).tobytes()

    @settings(max_examples=6, deadline=None)
    @given(kernel=KERNELS, seed=st.integers(0, 2 ** 16), offset=st.floats(0.5, 15.0),
           mode=st.sampled_from(["self", "mixed"]))
    def test_stability_ratio(self, kernel, seed, offset, mode):
        spec = _spec(kernel)
        geom = build_linear_array(5, 10.0)
        y1, y2 = [0.0, 100.0], [offset, 100.0]
        args = (geom, y1, y2, CTX, spec, 100, mode, seed)
        assert estimate_stability_ratio(*args) == _reference_stability_ratio(*args)

    @settings(max_examples=10, deadline=None)
    @given(kernel=KERNELS, seed=st.integers(0, 2 ** 16),
           x=st.tuples(COORD, COORD), offset=st.floats(0.5, 15.0),
           realizations=st.integers(2, 20))
    def test_second_moment(self, kernel, seed, x, offset, realizations):
        spec = _spec(kernel)
        y1, y2 = [x[0], x[1] + 80.0], [x[0] + offset, x[1] + 80.0]
        args = (x, y1, y2, CTX, spec, realizations, seed)
        assert estimate_second_moment(*args) == _reference_second_moment(*args)

    def test_spectral_amplitude_shared_read_only(self):
        spec = _spec("gaussian")
        region = box(-40.0, 40.0, 0.0, 80.0)
        sample_field(spec, region, seed=1)
        hits = random_medium._spectral_amplitude.cache_info().hits
        sample_field(spec, region, seed=2)
        assert random_medium._spectral_amplitude.cache_info().hits == hits + 1
        amplitude = random_medium._spectral_amplitude.__wrapped__(
            "gaussian", L_CORR, spec.lattice_spacing, 64, 64)
        assert not amplitude.flags.writeable

    @pytest.mark.parametrize("estimate", [
        lambda geom, spec: estimate_stability_ratio(
            geom, [0.0, 100.0], [5.0, 100.0], CTX, spec, realizations=100),
        lambda geom, spec: estimate_second_moment(
            [0.0, 0.0], [0.0, 100.0], [5.0, 100.0], CTX, spec, realizations=3),
    ], ids=["stability", "second_moment"])
    def test_plan_outside_region_raises(self, estimate, monkeypatch):
        # a region that misses the far end of every ray
        monkeypatch.setattr(random_medium, "region_for",
                            lambda points, spec: box(-30.0, 30.0, -10.0, 50.0))
        with pytest.raises(DomainError):
            estimate(build_linear_array(5, 10.0), _spec("gaussian"))

    @pytest.mark.parametrize("realizations", [100, 120])
    @pytest.mark.parametrize("estimate, plans", [
        (lambda geom, spec, r: estimate_stability_ratio(
            geom, [0.0, 100.0], [5.0, 100.0], CTX, spec, realizations=r, mode="self"), 2),
        (lambda geom, spec, r: estimate_stability_ratio(
            geom, [0.0, 100.0], [5.0, 100.0], CTX, spec, realizations=r, mode="mixed"), 1),
        (lambda geom, spec, r: estimate_second_moment(
            [0.0, 0.0], [0.0, 100.0], [5.0, 100.0], CTX, spec, realizations=r), 2),
    ], ids=["self", "mixed", "second_moment"])
    def test_rays_planned_once_per_estimate(self, estimate, plans, realizations,
                                            monkeypatch):
        # one plan per ray set on the first field, whatever the realization count
        made = []

        class CountingPlan(random_medium._BilinearPlan):
            def __init__(self, field, points):
                made.append(field)
                super().__init__(field, points)

        monkeypatch.setattr(random_medium, "_BilinearPlan", CountingPlan)
        estimate(build_linear_array(5, 10.0), _spec("gaussian"), realizations)
        assert len(made) == plans and len(set(map(id, made))) == 1  # all on one field


def _cpus(monkeypatch, count):
    """Let the process appear to run on ``count`` CPUs."""
    monkeypatch.setattr(random_medium.os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


# fig89's medium and the benchmark's stability estimate: 101 elements over the
# 100l aperture, two points 10 wavelengths apart at range 50l, 100 realizations
FIG89_ESTIMATE = (build_linear_array(101, 2000.0 / 100), [0.0, 1000.0], [10.0, 1000.0],
                  CTX, gaussian_spec(sigma=0.001), 100)
FIG89_SECOND_MOMENT = ([0.0, 0.0], [0.0, 1000.0], [10.0, 1000.0], CTX,
                       gaussian_spec(sigma=0.001), 100, 1)


@pytest.fixture(scope="module")
def fig89_references():
    return {mode: _reference_stability_ratio(*FIG89_ESTIMATE, mode, 1)
            for mode in ("self", "mixed")}


class TestRealizationSplit:
    """Draws split by stride over the caller and one helper thread per
    further CPU give the reference's bits at every CPU count."""

    @pytest.mark.slow
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["self", "mixed"])
    def test_stability_ratio_on_any_cpu_count(self, cpus, mode, fig89_references,
                                              monkeypatch):
        _cpus(monkeypatch, cpus)
        if cpus == 1:  # one CPU: the caller draws every field, and no thread starts
            def no_thread(thread):
                raise AssertionError("a helper thread started at one CPU")
            monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert estimate_stability_ratio(*FIG89_ESTIMATE, mode, 1) == fig89_references[mode]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_second_moment_on_any_cpu_count(self, cpus, monkeypatch):
        reference = _reference_second_moment(*FIG89_SECOND_MOMENT)
        _cpus(monkeypatch, cpus)
        assert estimate_second_moment(*FIG89_SECOND_MOMENT) == reference

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_slot_holds_its_draw_and_half(self, cpus, monkeypatch):
        # slot r is realization r: half r % 2 of draw r // 2, the last
        # imaginary half of an odd count unread
        _cpus(monkeypatch, cpus)
        spec = _spec("gaussian")
        starts, end = np.array([[0.0, 0.0], [10.0, 0.0]]), np.array([5.0, 100.0])
        region = region_for(np.vstack([starts, end]), spec)
        samples = random_medium._realization_samples(
            spec, region, 7, 9, starts, [end], lambda nus: complex(*nus[0]))
        for r, got in enumerate(samples):
            field = _reference_field(spec, region, _derived_seed(7, r // 2), r % 2)
            assert got == complex(*_reference_phase_line_integral(field, starts, end))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_odd_count_draws_half_rounded_up(self, cpus, monkeypatch):
        _cpus(monkeypatch, cpus)
        calls = []
        sample = random_medium.sample_field

        def counted(spec, region, seed):
            calls.append(seed)
            return sample(spec, region, seed)

        monkeypatch.setattr(random_medium, "sample_field", counted)
        args = (build_linear_array(5, 10.0), [0.0, 100.0], [5.0, 100.0], CTX,
                _spec("gaussian"), 101, "self", 3)
        estimate = estimate_stability_ratio(*args)
        assert sorted(calls) == sorted(_derived_seed(3, k) for k in range(51))
        assert estimate == _reference_stability_ratio(*args)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_estimate_leaves_no_thread(self, cpus, monkeypatch):
        # every helper is joined before the estimate returns
        _cpus(monkeypatch, cpus)
        before = threading.active_count()
        estimate_stability_ratio(build_linear_array(5, 10.0), [0.0, 100.0], [5.0, 100.0],
                                 CTX, _spec("gaussian"), 100)
        assert threading.active_count() == before
        estimate_second_moment([0.0, 0.0], [0.0, 100.0], [5.0, 100.0], CTX,
                               _spec("gaussian"), realizations=10)
        assert threading.active_count() == before

    def test_no_helper_without_a_realization(self, monkeypatch):
        # four realizations (two draws) on eight CPUs: one helper runs draw 1,
        # realizations 2 and 3, and no thread starts for the six strides that
        # hold none
        _cpus(monkeypatch, 8)
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        estimate_second_moment([0.0, 0.0], [0.0, 100.0], [5.0, 100.0], CTX,
                               _spec("gaussian"), realizations=4)
        assert len(started) == 1

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_helper_error_raised_after_every_task(self, cpus, monkeypatch):
        _cpus(monkeypatch, cpus)
        args = (build_linear_array(5, 10.0), [0.0, 100.0], [5.0, 100.0], CTX,
                _spec("gaussian"), 100, "self", 3)
        bad_seed = _derived_seed(3, 1)  # draw 1, the first of stride 1
        entered, left, raised = [], [], []
        sample = random_medium.sample_field

        def failing_once(spec, region, seed):
            entered.append(seed)
            try:
                if seed == bad_seed and not raised:
                    raised.append((DomainError("planted"), threading.current_thread()))
                    raise raised[0][0]
                return sample(spec, region, seed)
            finally:
                left.append(seed)

        monkeypatch.setattr(random_medium, "sample_field", failing_once)
        with pytest.raises(DomainError) as caught:
            estimate_stability_ratio(*args)
        error, thread = raised[0]
        assert caught.value is error and thread is not threading.current_thread()
        # stride 1 stopped at its first draw; every other stride ran to its end
        assert len(left) == len(entered) == 50 - len(range(1, 50, cpus)) + 1
        assert estimate_stability_ratio(*args) == _reference_stability_ratio(*args)


    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_builds_its_own_pool(self, monkeypatch):
        # a child forked after an estimate starts and joins helper threads of
        # its own, and gives the parent's bits
        _cpus(monkeypatch, 2)
        args = (build_linear_array(5, 10.0), [0.0, 100.0], [5.0, 100.0], CTX,
                _spec("gaussian"), 100)
        expected = estimate_stability_ratio(*args)
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                signal.alarm(20)  # a hung child dies instead of holding the test
                os.write(write, repr(estimate_stability_ratio(*args)).encode())
            finally:
                os._exit(0)
        os.close(write)
        _, status = os.waitpid(pid, 0)
        with os.fdopen(read) as out:
            assert status == 0 and out.read() == repr(expected)

class TestParaxialRatio:
    def test_zero_offsets(self):
        spec = gaussian_spec()
        geom = build_linear_array(101, 1.0)
        assert paraxial_ratio(geom, 0.0, 0.0, CTX, spec, 1000.0) == 0.0

    def test_quadratic_aperture_scaling(self):
        spec = gaussian_spec()
        # compare apertures a and 2a at offsets where every sinc factor is
        # held fixed by scaling xi inversely with a
        a1 = build_linear_array(101, 1.0)    # a = 100
        a2 = build_linear_array(201, 1.0)    # a = 200
        v1 = paraxial_ratio(a1, 4.0, 0.0, CTX, spec, 1000.0)
        v2 = paraxial_ratio(a2, 2.0, 0.0, CTX, spec, 1000.0)
        # xi scaled so the aperture sinc is fixed; divide out the remaining
        # offset-dependent factors, leaving the (l/a)^2 quadratic decay
        kappa = CTX.wavenumber
        ae = effective_aperture(spec, 1000.0)
        g1 = 1 - np.exp(-kappa ** 2 * ae ** 2 * 16.0 / 1e6)
        g2 = 1 - np.exp(-kappa ** 2 * ae ** 2 * 4.0 / 1e6)
        sinc_l1 = np.sinc(4.0 * L_CORR / 1000.0)
        sinc_l2 = np.sinc(2.0 * L_CORR / 1000.0)
        ratio = (v1 / g1 / sinc_l1) / (v2 / g2 / sinc_l2)
        assert ratio == pytest.approx(4.0, rel=1e-6)

    def test_regime_guard(self):
        spec = gaussian_spec()
        geom = build_linear_array(501, 1.0)  # aperture 500 > 1000 / 5
        with pytest.raises(DomainError):
            paraxial_ratio(geom, 5.0, 0.0, CTX, spec, 1000.0)

    @pytest.mark.slow
    def test_upper_bounds_monte_carlo(self):
        # the closed-form prediction dominates the measured ratio at a = L/10
        spec = gaussian_spec()
        geom = build_linear_array(101, 1.0)  # a = 100 = L/10
        est = estimate_stability_ratio(geom, [0.0, 1000.0], [5.0, 1000.0], CTX,
                                       spec, realizations=100, mode="self",
                                       master_seed=6)
        pred = paraxial_ratio(geom, 5.0, 0.0, CTX, spec, 1000.0)
        assert est.estimate <= pred


class TestExports:
    def test_stability_csv(self, tmp_path):
        path = tmp_path / "stab.csv"
        write_stability_csv(path, [(500.0, 1e-3, 1e-4, 2e-3)])
        text = path.read_text().splitlines()
        assert text[0] == "aperture,ratio_estimate,std_error,closed_form_bound"
        assert text[1].startswith("500,0.001")
