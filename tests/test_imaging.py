import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from arrayimg.errors import ConfigurationError
from arrayimg.geometry import (ImageWindow, WaveContext,
                               build_linear_array, place_scatterers)
from arrayimg.greens import green, pairwise_green_matrix, sensing_matrix
from arrayimg.foldy_lax import (ResponseMatrix, effective_source_vector,
                                response_matrix_born, response_matrix_foldy_lax)
from arrayimg.sparse_solvers import SolverParams, SparseSolution
from arrayimg.imaging import (MUSIC_NORM_FLOOR, PEAK_SEPARATION, RANK_THRESHOLD,
                              SCREEN_FLOOR_REL, _noise_space_norms, _peak_image,
                              build_hybrid_system, image_hybrid_l1, image_km, image_mmv,
                              image_music, image_smv,
                              optimal_illuminations, reflectivities_from_sources,
                              select_rank)
from arrayimg.io import write_image_csv, write_pgm, write_support_csv

CTX = WaveContext(wavelength=1.0)


def scene(cells, alphas, n=50, rows=21, cols=21, spacing=2.0, center=100.0):
    geom = build_linear_array(n, 1.0)
    win = ImageWindow(center, rows, cols, spacing)
    sens = sensing_matrix(geom, win, CTX)
    idx = [win.rowcol_to_index(r, c) for r, c in cells]
    rho = place_scatterers(win, list(zip(idx, alphas)))
    return sens, rho, sorted(idx)


def central_element(n):
    f = np.zeros(n, dtype=complex)
    f[n // 2] = 1.0
    return f


def diagonal_response(sv):
    """Response matrix whose singular values are ``sv``."""
    return ResponseMatrix(matrix=np.diag(np.asarray(sv, dtype=complex)), provenance="born")


class TestSelectRank:
    def test_hard_gap(self):
        assert select_rank(diagonal_response([5.0, 3.0, 1e-12])) == 2

    def test_known_m_override(self):
        assert select_rank(diagonal_response([5.0, 3.0, 1e-12]), known_m=3) == 3
        # a known rank asks the SVD for the top known_m values only
        sens, rho, _ = scene([(3, 3), (15, 5)], [1.0, 0.5])
        resp = response_matrix_born(sens, rho)
        assert select_rank(resp, known_m=3) == 3
        assert resp._svd[1].size == 3

    @settings(max_examples=200, deadline=None)
    @given(sv=st.lists(st.floats(1e-12, 1e6), min_size=1, max_size=30).map(
               lambda v: sorted(v, reverse=True)),
           data=st.data())
    def test_rank_bounded_and_monotone(self, sv, data):
        resp = diagonal_response(sv)
        rank = select_rank(resp)
        assert 1 <= rank <= len(sv)
        # the rank keeps the prefix of the descending spectrum at or above the
        # threshold, and only it
        s = resp.svd()[1]
        assert np.all(s[:rank] >= RANK_THRESHOLD * s[0])
        assert np.all(s[rank:] < RANK_THRESHOLD * s[0])
        known = data.draw(st.integers(1, len(sv)))
        assert select_rank(diagonal_response(sv), known_m=known) == known

    def test_born_m4(self):
        mags = [0.8, 1.0, 0.5, 0.7]
        sens, rho, _ = scene([(3, 3), (5, 15), (15, 5), (17, 17)], mags)
        assert select_rank(response_matrix_born(sens, rho)) == 4

    def test_empty_and_zero(self):
        with pytest.raises(ConfigurationError):
            select_rank(diagonal_response([]))
        with pytest.raises(ConfigurationError):
            select_rank(diagonal_response([0.0, 0.0]))
        with pytest.raises(ConfigurationError):
            select_rank(diagonal_response([1.0]), known_m=2)

    @pytest.mark.parametrize("known_m", [0, 31])
    def test_known_rank_refused_before_svd(self, known_m):
        resp = diagonal_response(np.arange(30.0, 0.0, -1.0))
        with pytest.raises(ConfigurationError,
                           match=rf"^rank {known_m} outside \[1, 30\]$"):
            select_rank(resp, known_m=known_m)
        assert resp._svd is None


class TestImageSmv:
    def test_no_scatterers(self):
        sens, rho, _ = scene([], [])
        f = central_element(50)
        resp = response_matrix_foldy_lax(sens, rho)
        res = image_smv(resp.matrix @ f, f, sens)
        assert res.support.size == 0
        assert not res.reflectivity.any()

    def test_two_scatterer_round_trip(self):
        alphas = [1.8 * np.exp(1j * 0.3), 1.1 * np.exp(-1j * 1.0)]
        sens, rho, idx = scene([(5, 4), (15, 16)], alphas)
        f = central_element(50)
        b = response_matrix_foldy_lax(sens, rho).matrix @ f
        res = image_smv(b, f, sens)
        assert list(res.support) == idx
        err = np.linalg.norm(res.reflectivity[idx] - rho.values[idx])
        assert err <= 1e-6 * np.linalg.norm(rho.values[idx])

    def test_two_step_consistency(self):
        # reconstructed reflectivities re-fed through the forward model
        alphas = [2.0, 1.3 * np.exp(1j * 2.0)]
        sens, rho, idx = scene([(5, 4), (15, 16)], alphas)
        f = central_element(50)
        b = response_matrix_foldy_lax(sens, rho).matrix @ f
        res = image_smv(b, f, sens)
        rho_hat = place_scatterers(sens.window,
                                   list(zip(res.support, res.reflectivity[res.support])))
        b_hat = response_matrix_foldy_lax(sens, rho_hat).matrix @ f
        assert np.linalg.norm(b_hat - b) <= 1e-6 * np.linalg.norm(b)

    def test_screening_flagged(self):
        # craft effective sources whose reconstructed exciting field vanishes
        # at the second support point; the component must come back flagged,
        # not silently divided
        sens, rho, idx = scene([(5, 4), (15, 16)], [1.0, 1.0])
        f = central_element(50)
        pts = sens.window.points[idx]
        gval = green(pts[0], pts[1], CTX)[0, 0]
        incident2 = sens.matrix[:, idx[1]] @ f
        gamma = np.array([-incident2 / gval, 0.5 + 0j])
        res = reflectivities_from_sources(step_one_solution(sens, idx, gamma[:, None]),
                                          f[:, None], sens)
        assert res.screened == [idx[1]]
        assert np.isnan(res.reflectivity[idx[1]].real)
        assert np.isfinite(res.reflectivity[idx[0]])


def step_one_solution(sens, support, gamma):
    """A step-one solution holding ``gamma`` (``(M, J)``) on ``support``."""
    support = np.asarray(support)
    solution = np.zeros((sens.k, gamma.shape[1]), dtype=complex)
    solution[support] = gamma
    return SparseSolution(solution=solution, iterations=1, residual_norm=0.0,
                          support=support, converged=True)


def _reference_two_step(sol, illuminations, sens):
    """Step two spelled one illumination at a time: one pairwise Green's
    matrix and one division per column, then a mean over each component's
    unscreened estimates.  Returns ``(reflectivity, screened)``."""
    support = sol.support
    sources = sol.solution.reshape(sens.k, -1)
    reflectivity = np.zeros(sens.k, dtype=complex)
    screened = []
    if support.size:
        estimates = np.zeros((support.size, illuminations.shape[1]), dtype=complex)
        valid = np.zeros(estimates.shape, dtype=bool)
        for j in range(illuminations.shape[1]):
            f = illuminations[:, j]
            gamma = sources[support, j]
            pair = pairwise_green_matrix(sens.window.points[support], sens.ctx)
            exciting = sens.matrix[:, support].T @ f + pair @ gamma
            screen = np.abs(exciting) < SCREEN_FLOOR_REL * np.linalg.norm(f)
            valid[:, j] = ~screen
            estimates[~screen, j] = gamma[~screen] / exciting[~screen]
        for local, idx in enumerate(support):
            if valid[local].any():
                reflectivity[idx] = estimates[local, valid[local]].mean()
            else:
                screened.append(int(idx))
                reflectivity[idx] = complex(np.nan, np.nan)
    return reflectivity, screened


STEP_TWO_SCENE = scene([], [])[0]


class TestStepTwoMatchesReference:
    @staticmethod
    def forced_illuminations(sens, support, gamma, screen, rng):
        """Random illuminations, each corrected (minimum norm) so that the
        exciting field vanishes to rounding exactly where ``screen`` is set."""
        g_t = sens.matrix[:, support].T
        pair = pairwise_green_matrix(sens.window.points[support], sens.ctx)
        f = rng.standard_normal((sens.n, gamma.shape[1])) \
            + 1j * rng.standard_normal((sens.n, gamma.shape[1]))
        for j in range(f.shape[1]):
            rows = screen[:, j]
            if rows.any():
                target = -(pair @ gamma[:, j])[rows] - g_t[rows] @ f[:, j]
                f[:, j] += np.linalg.lstsq(g_t[rows], target, rcond=None)[0]
        return f

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(0, 5), j=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
           bits=st.integers(0, 2 ** 25 - 1))
    @example(m=0, j=3, seed=0, bits=0)               # empty support
    @example(m=3, j=3, seed=1, bits=0b000_111_000)   # one component screened throughout
    @example(m=2, j=5, seed=2, bits=0b11111_00000)
    def test_matches_per_column_reference(self, m, j, seed, bits):
        sens = STEP_TWO_SCENE
        rng = np.random.default_rng(seed)
        support = np.sort(rng.choice(sens.k, size=m, replace=False))
        screen = ((bits >> np.arange(m * j)) & 1).astype(bool).reshape(m, j)
        gamma = rng.standard_normal((m, j)) + 1j * rng.standard_normal((m, j))
        f = self.forced_illuminations(sens, support, gamma, screen, rng)
        sol = step_one_solution(sens, support, gamma)
        got = reflectivities_from_sources(sol, f, sens)
        expected, screened = _reference_two_step(sol, f, sens)
        assert got.screened == screened == support[screen.all(axis=1)].tolist()
        # the one product over all columns rounds differently from the
        # per-column spelling, so the two agree to rounding, not to the bit
        np.testing.assert_allclose(got.reflectivity, expected, rtol=1e-12)
        np.testing.assert_allclose(got.image, np.abs(np.nan_to_num(expected)), rtol=1e-12)

    @pytest.mark.parametrize("j", [1, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_sources_give_reflectivities(self, j, seed):
        # step two inverts the Foldy-Lax forward model: fed the exact
        # effective sources of each illumination, it returns rho on the support
        sens = STEP_TWO_SCENE
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(sens.k, size=4, replace=False))
        alphas = rng.uniform(0.5, 2.0, 4) * np.exp(2j * np.pi * rng.uniform(size=4))
        rho = place_scatterers(sens.window, list(zip(idx, alphas)))
        f = rng.standard_normal((sens.n, j)) + 1j * rng.standard_normal((sens.n, j))
        sources = np.column_stack([effective_source_vector(sens, rho, f_j) for f_j in f.T])
        res = reflectivities_from_sources(step_one_solution(sens, idx, sources[idx]), f, sens)
        assert res.screened == [] and list(res.support) == list(idx)
        np.testing.assert_allclose(res.reflectivity, rho.values, rtol=1e-12, atol=0)

    def test_pairwise_matrix_built_once_per_solve(self, monkeypatch):
        calls = []

        def counted(points, ctx):
            calls.append(len(points))
            return pairwise_green_matrix(points, ctx)

        monkeypatch.setattr("arrayimg.imaging.pairwise_green_matrix", counted)
        sens, rho, idx = scene([(1, 1), (3, 3)], [1.2, 0.8j], n=30, rows=5, cols=5)
        f = np.zeros((30, 3), dtype=complex)
        f[[5, 15, 25], [0, 1, 2]] = 1.0
        res = image_mmv(response_matrix_born(sens, rho).matrix @ f, f, sens)
        assert list(res.support) == idx
        assert calls == [2]


class TestImageMmv:
    def test_single_illumination_matches_smv(self):
        alphas = [1.5, 0.9 * np.exp(1j)]
        sens, rho, idx = scene([(5, 4), (15, 16)], alphas)
        f = central_element(50)
        b = response_matrix_foldy_lax(sens, rho).matrix @ f
        res_smv = image_smv(b, f, sens)
        res_mmv = image_mmv(b[:, None], f[:, None], sens)
        assert list(res_mmv.support) == list(res_smv.support)
        assert np.allclose(res_mmv.reflectivity, res_smv.reflectivity, atol=1e-6)

    def test_planted_born_three_illuminations(self):
        alphas = [1.2, 0.8 * np.exp(1j * 0.5), 1.5 * np.exp(-1j)]
        sens, rho, idx = scene([(3, 3), (10, 12), (17, 6)], alphas, n=100)
        resp = response_matrix_born(sens, rho)
        rng = np.random.default_rng(2)
        picks = rng.choice(100, 3, replace=False)
        f = np.zeros((100, 3), dtype=complex)
        for j, p in enumerate(picks):
            f[p, j] = 1.0
        b = resp.matrix @ f
        res = image_mmv(b, f, sens)
        assert list(res.support) == idx
        err = np.linalg.norm(res.reflectivity[idx] - rho.values[idx])
        assert err <= 1e-2 * np.linalg.norm(rho.values[idx])

    def test_mismatched_columns(self):
        sens, rho, _ = scene([(5, 4)], [1.0])
        with pytest.raises(ValueError) as exc:
            image_mmv(np.zeros((50, 2), dtype=complex),
                      np.zeros((50, 3), dtype=complex), sens)
        assert not isinstance(exc.value, ConfigurationError)


class TestOptimalIlluminations:
    def test_rank_one_structure(self):
        sens, rho, idx = scene([(10, 10)], [1.7])
        resp = response_matrix_born(sens, rho)
        v = optimal_illuminations(resp, 1)
        g = sens.matrix[:, idx[0]]
        direction = np.conj(g) / np.linalg.norm(g)
        overlap = abs(np.vdot(v[:, 0], direction))
        assert overlap == pytest.approx(1.0, rel=1e-10)

    def test_count_exceeding_rank(self):
        sens, rho, _ = scene([(10, 10)], [1.7])
        resp = response_matrix_born(sens, rho)
        with pytest.raises(ConfigurationError, match="numerical rank is 1$"):
            optimal_illuminations(resp, 2)
        # the rank is counted on the 2 requested values, with no full SVD
        assert resp._svd[1].size == 2

    def test_data_equals_scaled_left_vectors(self):
        alphas = [1.0, 0.6 * np.exp(1j * 0.8)]
        sens, rho, _ = scene([(5, 4), (15, 16)], alphas)
        resp = response_matrix_born(sens, rho)
        u, s, _ = resp.svd()
        v = optimal_illuminations(resp, 2)
        b = resp.matrix @ v
        for j in range(2):
            assert np.linalg.norm(b[:, j] - s[j] * u[:, j]) <= 1e-10 * s[j]


class TestHybridSystem:
    def test_rank_one_entries(self):
        sens, rho, idx = scene([(10, 10)], [1.3 * np.exp(1j * 0.4)])
        resp = response_matrix_born(sens, rho)
        mat, rhs = build_hybrid_system(resp, sens, 1)
        g = sens.matrix[:, idx[0]]
        assert abs(mat[0, idx[0]]) == pytest.approx(
            np.linalg.norm(g) ** 2, rel=1e-8)
        lhs = mat @ rho.values
        assert np.allclose(lhs, rhs, rtol=1e-8)

    def test_m4_diagonal_dominance(self):
        mags = [0.8, 1.0, 0.5, 0.7]
        sens, rho, idx = scene([(3, 3), (5, 15), (15, 5), (17, 17)], mags)
        resp = response_matrix_born(sens, rho)
        mat, _ = build_hybrid_system(resp, sens, 4)
        sub = np.abs(mat[:, idx])
        for i in range(4):
            row = np.sort(sub[i])[::-1]
            assert row[0] > row[1:].sum()


class TestImageHybridL1:
    def test_single_scatterer_exact(self):
        alpha = 1.9 * np.exp(1j * 1.2)
        sens, rho, idx = scene([(10, 10)], [alpha], n=100)
        resp = response_matrix_born(sens, rho)
        res = image_hybrid_l1(resp, sens, SolverParams(tolerance=1e-10), m_tilde=1)
        assert list(res.support) == idx
        assert abs(res.reflectivity[idx[0]] - alpha) < 1e-8

    def test_mmv_support_agreement_noiseless_born(self):
        alphas = [1.2, 0.8 * np.exp(1j * 0.5), 1.5 * np.exp(-1j)]
        sens, rho, idx = scene([(3, 3), (10, 12), (17, 6)], alphas, n=100)
        resp = response_matrix_born(sens, rho)
        res_h = image_hybrid_l1(resp, sens, SolverParams(tolerance=1e-10), m_tilde=3)
        v = optimal_illuminations(resp, 3)
        res_m = image_mmv(resp.matrix @ v, v, sens)
        assert list(res_h.support) == list(res_m.support) == idx


class TestImageMusic:
    def test_functional_normalized(self):
        alphas = [1.0, 0.7 * np.exp(1j * 0.9)]
        sens, rho, _ = scene([(5, 4), (15, 16)], alphas)
        resp = response_matrix_born(sens, rho)
        res = image_music(resp, sens, m_tilde=2)
        assert res.image.max() == pytest.approx(1.0, rel=1e-12)
        assert np.all(res.image > 0)
        assert np.all(res.image <= 1.0 + 1e-12)

    def test_single_scatterer_argmax(self):
        sens, rho, idx = scene([(10, 10)], [1.7])
        resp = response_matrix_born(sens, rho)
        res = image_music(resp, sens, m_tilde=1)
        assert int(np.argmax(res.image)) == idx[0]

    def test_born_m4_peaks(self):
        mags = [0.8, 1.0, 0.5, 0.7]
        sens, rho, idx = scene([(3, 3), (5, 15), (15, 5), (17, 17)], mags)
        resp = response_matrix_born(sens, rho)
        res = image_music(resp, sens, m_tilde=4)
        assert sorted(res.support) == idx

    def test_noiseless_true_points_read_the_norm_ratio(self):
        # every true point's norm is the floor times ||g_j||, so the image
        # there is min ||g_i|| / ||g_j|| over the true points, which depends on
        # the geometry alone and not on round-off
        mags = [0.8, 1.0, 0.5, 0.7]
        sens, rho, idx = scene([(3, 3), (5, 15), (15, 5), (17, 17)], mags)
        res = image_music(response_matrix_born(sens, rho), sens, m_tilde=4)
        scale = np.linalg.norm(sens.matrix[:, idx], axis=0)
        np.testing.assert_allclose(res.image[idx], scale.min() / scale, rtol=1e-12, atol=0)


def explicit_noise_space_norms(un, g):
    return np.linalg.norm(un @ (un.conj().T @ g) - g, axis=0)


class TestNoiseSpaceNorms:
    """The identity ||g||^2 - ||U^H g||^2, floored at ``MUSIC_NORM_FLOOR *
    ||g||``, against the explicit projection."""

    def test_noisy_fig5_like(self):
        # fig5's array, window and scatterers at 100% noise
        cells = [(6, 8), (10, 32), (20, 20), (30, 8), (34, 32)]
        sens, rho, _ = scene(cells, [2.96, 2.76, 2.05, 1.54, 1.35], n=100,
                             rows=41, cols=41, spacing=1.0, center=100.0)
        clean = response_matrix_born(sens, rho).matrix
        rng = np.random.default_rng(5)
        noise = rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)
        noise *= np.linalg.norm(clean) / np.linalg.norm(noise)
        un, _, _ = ResponseMatrix(matrix=clean + noise, provenance="born").svd(5)
        g = sens.matrix
        reference = explicit_noise_space_norms(un, g)
        norms = _noise_space_norms(un, g)
        assert np.all(np.abs(norms - reference) <= 1e-12 * reference)

    def test_low_noise_within_the_rounding_bound(self):
        # at 1% noise a true point's norm lies between the floor and 1e-2 ||g||,
        # where the identity has lost digits: the square's rounding error is at
        # most (N + M~) eps ||g||^2, a relative (N + M~) eps ||g||^2 / norm^2
        cells = [(3, 3), (5, 15), (15, 5), (17, 17)]
        sens, rho, idx = scene(cells, [0.8, 1.0, 0.5, 0.7])
        clean = response_matrix_born(sens, rho).matrix
        rng = np.random.default_rng(7)
        noise = rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)
        noise *= 1e-2 * np.linalg.norm(clean) / np.linalg.norm(noise)
        un, _, _ = ResponseMatrix(matrix=clean + noise, provenance="born").svd(len(cells))
        g = sens.matrix
        reference = explicit_noise_space_norms(un, g)
        scale = np.linalg.norm(g, axis=0)
        ratio = reference[idx] / scale[idx]
        assert np.all((ratio > MUSIC_NORM_FLOOR) & (ratio < 1e-2))
        norms = _noise_space_norms(un, g)
        bound = (g.shape[0] + len(cells)) * np.finfo(float).eps * scale ** 2 / reference ** 2
        assert np.all(np.abs(norms - reference) <= bound * reference)

    @pytest.mark.parametrize("cells, alphas", [
        ([(5, 4), (15, 16)], [1.0, 0.7 * np.exp(1j * 0.9)]),
        ([(3, 3), (5, 15), (15, 5), (17, 17)], [0.8, 1.0, 0.5, 0.7]),
    ])
    def test_noiseless_born_floor_binds_at_true_points(self, cells, alphas):
        # a true point's column lies in the signal space, so its identity
        # square is round-off; the floor replaces it, and binds nowhere else
        sens, rho, idx = scene(cells, alphas)
        un, _, _ = response_matrix_born(sens, rho).svd(len(cells))
        g = sens.matrix
        floor = MUSIC_NORM_FLOOR * np.linalg.norm(g, axis=0)
        norms = _noise_space_norms(un, g)
        assert np.all(norms > 0)
        assert np.all(norms >= floor * (1 - 1e-12))
        binding = np.flatnonzero(norms <= floor * (1 + 1e-12))
        assert binding.tolist() == idx


class TestImageKm:
    def test_zero_data(self):
        sens, _, _ = scene([(10, 10)], [1.0])
        f = central_element(50)
        res = image_km(np.zeros((50, 1), dtype=complex), f[:, None], sens, peak_count=1)
        assert not res.image.any()
        assert res.support.size == 0

    def test_single_scatterer_peak(self):
        # aperture comparable to range, so the range lobe beats the 1/r^2 tilt
        sens, rho, idx = scene([(10, 10)], [1.5], n=200, center=200.0)
        f = central_element(200)
        b = response_matrix_born(sens, rho).matrix @ f
        res = image_km(b[:, None], f[:, None], sens, peak_count=1)
        assert int(np.argmax(res.image)) == idx[0]
        assert list(res.support) == idx

    def test_linearity(self):
        sens, rho, _ = scene([(5, 4), (15, 16)], [1.0, 0.8])
        f = central_element(50)
        rng = np.random.default_rng(3)
        b1 = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        b2 = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        # two columns sum coherently: |KM(b1 + b2)| = |KM(b1) + KM(b2)|
        img_sum = image_km((b1 + b2)[:, None], f[:, None], sens, peak_count=2)
        img_parts = image_km(np.stack([b1, b2], axis=1), np.stack([f, f], axis=1), sens,
                             peak_count=2)
        assert np.allclose(img_sum.image, img_parts.image, rtol=1e-12)

    def test_matches_per_column_backpropagation(self):
        # against a per-column sum of backpropagations; the summation order
        # differs, so the bits may too
        sens, _, _ = scene([(5, 4)], [1.0])
        rng = np.random.default_rng(7)
        b = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
        f = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
        g = sens.matrix
        reference = sum(np.conj(g.T @ f[:, j]) * (g.conj().T @ b[:, j]) for j in range(3))
        res = image_km(b, f, sens, peak_count=1)
        assert np.allclose(res.image, np.abs(reference), rtol=1e-12, atol=0)

    def test_matches_explicit_conjugate(self):
        # conjugating the data in place of the sensing matrix keeps the image
        # to a relative 1e-13
        sens, _, _ = scene([(5, 4)], [1.0])
        rng = np.random.default_rng(11)
        b = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
        f = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
        g = sens.matrix
        reference = np.abs(np.sum(np.conj(g.T @ f) * (g.conj().T @ b), axis=1))
        res = image_km(b, f, sens, peak_count=1)
        assert np.all(np.abs(res.image - reference) <= 1e-13 * reference)

    def test_resolution_improves_with_aperture(self):
        # cross-range FWHM ratio across apertures 25l -> 100l (l = 20 wavelengths)
        l = 20.0
        win = ImageWindow(1000.0, 1, 161, 0.125)
        scatterer = win.rowcol_to_index(0, 80)
        fwhms = []
        for aperture in (25 * l, 100 * l):
            geom = build_linear_array(501, aperture / 500)
            sens = sensing_matrix(geom, win, CTX)
            rho = place_scatterers(win, [(scatterer, 1.0)])
            f = central_element(501)
            b = response_matrix_born(sens, rho).matrix @ f
            res = image_km(b[:, None], f[:, None], sens, peak_count=1)
            prof = res.image / res.image.max()
            above = np.flatnonzero(prof >= 0.5)
            fwhms.append((above[-1] - above[0] + 1) * 0.125)
        ratio = fwhms[0] / fwhms[1]
        assert 2.5 <= ratio <= 5.5


def reference_local_maxima(values, rows, cols, count, floor_fraction=0.5,
                           min_separation=2):
    """The original nested-loop peak finder, kept as the reference."""
    grid = values.reshape(rows, cols)
    top = grid.max()
    if top <= 0:
        return np.array([], dtype=int)
    candidates = []
    for r in range(rows):
        for c in range(cols):
            v = grid[r, c]
            if v <= floor_fraction * top:
                continue
            if r > 0 and grid[r - 1, c] > v:
                continue
            if r < rows - 1 and grid[r + 1, c] > v:
                continue
            if c > 0 and grid[r, c - 1] > v:
                continue
            if c < cols - 1 and grid[r, c + 1] > v:
                continue
            candidates.append((v, r, c))
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
    picked = []
    for v, r, c in candidates:
        if len(picked) >= count:
            break
        if all(max(abs(r - pr), abs(c - pc)) >= min_separation for pr, pc in picked):
            picked.append((r, c))
    return np.sort(np.array([r * cols + c for r, c in picked], dtype=int))


class TestLocalMaxima:
    @pytest.mark.parametrize("floor", [0.25, 0.5])
    def test_matches_loop_reference(self, floor):
        rng = np.random.default_rng(11)
        for _ in range(300):
            rows, cols = rng.integers(1, 9, size=2)
            levels = rng.integers(1, 6)  # few levels: plateaus and ties
            values = rng.integers(0, levels + 1, size=rows * cols) / levels
            if rng.random() < 0.5:
                values = values + rng.random(rows * cols) * (rng.random() < 0.3)
            count = int(rng.integers(1, 8))
            expected = reference_local_maxima(values, rows, cols, count, floor)
            got = _peak_image(values, ImageWindow(0.0, rows, cols, 1.0), count, floor).support
            assert np.array_equal(got, expected)
            assert got.dtype == expected.dtype

    @settings(max_examples=200, deadline=None)
    @given(shape=st.tuples(st.integers(1, 8), st.integers(1, 8)), data=st.data(),
           floor=st.floats(0.0, 0.99), count=st.integers(1, 8), negate=st.booleans())
    def test_invariants(self, shape, data, floor, count, negate):
        rows, cols = shape
        level = st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 1.0))  # ties too
        grid = np.array(data.draw(st.lists(level, min_size=rows * cols,
                                           max_size=rows * cols))).reshape(rows, cols)
        if negate:
            grid = -grid
        got = _peak_image(grid.ravel(), ImageWindow(0.0, rows, cols, 1.0), count,
                          floor).support
        assert np.array_equal(got, np.unique(got)) and got.size <= count
        if grid.max() <= 0:
            assert got.size == 0
        picked = [divmod(int(i), cols) for i in got]
        for r, c in picked:
            assert grid[r, c] > floor * grid.max()
            for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if 0 <= nr < rows and 0 <= nc < cols:
                    assert grid[nr, nc] <= grid[r, c]
        for i, (r, c) in enumerate(picked):
            for pr, pc in picked[:i]:
                assert max(abs(r - pr), abs(c - pc)) >= PEAK_SEPARATION


class TestExports:
    def test_support_and_image_files(self, tmp_path):
        alphas = [1.8 * np.exp(1j * 0.3), 1.1 * np.exp(-1j)]
        sens, rho, idx = scene([(5, 4), (15, 16)], alphas)
        f = central_element(50)
        b = response_matrix_foldy_lax(sens, rho).matrix @ f
        res = image_smv(b, f, sens)
        win = sens.window
        sup_path = tmp_path / "support.csv"
        write_support_csv(sup_path, res, win)
        lines = sup_path.read_text().strip().splitlines()
        assert lines[0] == "index,row,col,re,im,abs,flag"
        assert len(lines) == 1 + len(res.support)
        assert lines[1].endswith("ok")

        img_path = tmp_path / "image.csv"
        write_image_csv(img_path, res, win)
        rows = img_path.read_text().strip().splitlines()
        assert len(rows) == win.rows
        assert len(rows[0].split(",")) == win.cols

        pgm_path = tmp_path / "image.pgm"
        write_pgm(pgm_path, res, win)
        content = pgm_path.read_text().splitlines()
        assert content[0] == "P2"
        assert content[1] == f"{win.cols} {win.rows}"
        assert content[2] == "255"
        values = [int(tok) for line in content[3:] for tok in line.split()]
        assert max(values) == 255 and min(values) >= 0
