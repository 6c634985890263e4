import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from arrayimg.errors import ConfigurationError, DomainError, ResonanceError
from arrayimg.geometry import (ImageWindow, WaveContext,
                               build_linear_array, place_scatterers)
from arrayimg.greens import green, pairwise_green_matrix, sensing_matrix
from arrayimg.foldy_lax import (SKETCH_OVERSAMPLING, SKETCH_SEED, ResponseMatrix,
                                _top_svd, effective_source_vector,
                                foldy_lax_matrix, multiple_scattering_ratio,
                                response_matrix_born, response_matrix_foldy_lax,
                                solve_exciting_fields)
from arrayimg.imaging import select_rank

CTX = WaveContext(wavelength=1.0)
# complex reflectivities at unique cells of the 9 x 9 small_scene lattice
SCATTERERS = st.lists(
    st.tuples(st.tuples(st.integers(0, 8), st.integers(0, 8)),
              st.complex_numbers(min_magnitude=0.05, max_magnitude=3.0,
                                 allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=5, unique_by=lambda entry: entry[0])


def small_scene(cells, alphas, n=20, rows=9, cols=9, spacing=2.0, center=50.0):
    geom = build_linear_array(n, 1.0)
    win = ImageWindow(center, rows, cols, spacing)
    sens = sensing_matrix(geom, win, CTX)
    idx = [win.rowcol_to_index(r, c) for r, c in cells]
    rho = place_scatterers(win, list(zip(idx, alphas)))
    return sens, rho, idx


class TestFoldyLaxMatrix:
    def test_single_scatterer(self):
        z = foldy_lax_matrix([2.0 + 1j], np.zeros((1, 1), dtype=complex))
        assert z == pytest.approx(np.array([[1.0]]))

    def test_zero_reflectivities_identity(self):
        pts = np.array([[0.0, 40.0], [4.0, 44.0], [-3.0, 47.0]])
        g = pairwise_green_matrix(pts, CTX)
        z = foldy_lax_matrix(np.zeros(3), g)
        assert np.allclose(z, np.eye(3))

    def test_two_scatterer_entries(self):
        pts = np.array([[0.0, 40.0], [3.0, 44.0]])
        g = pairwise_green_matrix(pts, CTX)
        a1, a2 = 1.5 + 0.5j, -0.7 + 2.0j
        z = foldy_lax_matrix([a1, a2], g)
        gval = green(pts[0], pts[1], CTX)[0, 0]
        assert z[0, 1] == pytest.approx(-a2 * gval, rel=1e-14)
        assert z[1, 0] == pytest.approx(-a1 * gval, rel=1e-14)
        assert z[0, 0] == 1.0 and z[1, 1] == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError) as exc:
            foldy_lax_matrix([1.0, 2.0], np.zeros((3, 3), dtype=complex))
        assert not isinstance(exc.value, ConfigurationError)


class TestExcitingFields:
    def test_single(self):
        z = foldy_lax_matrix([1.0], np.zeros((1, 1), dtype=complex))
        inc = np.array([0.3 - 0.4j])
        assert solve_exciting_fields(z, inc) == pytest.approx(inc)

    def test_weak_scattering_limit(self):
        pts = np.array([[0.0, 40.0], [2.0, 43.0]])
        g = pairwise_green_matrix(pts, CTX)
        inc = np.array([1.0 + 0j, 0.5 - 0.5j])
        for alpha in (1e-3, 1e-4):
            z = foldy_lax_matrix([alpha, alpha], g)
            exc = solve_exciting_fields(z, inc)
            dev = np.linalg.norm(exc - inc)
            assert dev < 10 * alpha * np.linalg.norm(inc)

    def test_two_by_two_analytic_inverse(self):
        pts = np.array([[0.0, 40.0], [3.0, 44.0]])
        gval = green(pts[0], pts[1], CTX)[0, 0]
        a1, a2 = 2.0 * np.exp(1j * 0.3), 1.5 * np.exp(-1j * 1.2)
        z = foldy_lax_matrix([a1, a2], pairwise_green_matrix(pts, CTX))
        inc = np.array([1.0 + 0.2j, -0.4 + 0.9j])
        exc = solve_exciting_fields(z, inc)
        det = 1.0 - a1 * a2 * gval ** 2
        expected = np.array([
            inc[0] + a2 * gval * inc[1],
            a1 * gval * inc[0] + inc[1],
        ]) / det
        assert np.allclose(exc, expected, rtol=1e-12)
        assert np.linalg.norm(z @ exc - inc) <= 1e-10 * np.linalg.norm(inc)

    def test_resonance_rejected(self):
        pts = np.array([[0.0, 40.0], [3.0, 44.0]])
        gval = green(pts[0], pts[1], CTX)[0, 0]
        alpha = 1.0 / gval  # makes 1 - a1 a2 g^2 = 0
        z = foldy_lax_matrix([alpha, alpha], pairwise_green_matrix(pts, CTX))
        with pytest.raises(ResonanceError, match="near-resonant"):
            solve_exciting_fields(z, np.ones(2, dtype=complex))


class TestResponseMatrices:
    def test_empty_reflectivity_zero_matrix(self):
        sens, rho, _ = small_scene([], [])
        for builder in (response_matrix_foldy_lax, response_matrix_born):
            resp = builder(sens, rho)
            assert not resp.matrix.any()
            assert resp.matrix.shape == (20, 20)
        gamma = effective_source_vector(sens, rho, np.ones(20, dtype=complex))
        assert gamma.shape == (81,) and not gamma.any()

    def test_single_scatterer_rank_one(self):
        sens, rho, idx = small_scene([(4, 4)], [1.3 - 0.7j])
        resp = response_matrix_foldy_lax(sens, rho)
        born = response_matrix_born(sens, rho)
        assert np.allclose(resp.matrix, born.matrix, rtol=1e-12)
        u, s, vh = resp.svd()
        g = sens.matrix[:, idx[0]]
        assert s[0] == pytest.approx(abs(1.3 - 0.7j) * np.linalg.norm(g) ** 2, rel=1e-10)
        assert s[1] < 1e-12 * s[0]

    def test_two_scatterer_superposition_oracle(self):
        alphas = [2.0 * np.exp(1j * 1.1), 1.2 * np.exp(-1j * 0.4)]
        sens, rho, idx = small_scene([(2, 3), (6, 5)], alphas)
        resp = response_matrix_foldy_lax(sens, rho)
        pts = sens.window.points[idx]
        geom_pos = sens.geom.positions
        gval = green(pts[0], pts[1], CTX)[0, 0]
        n = geom_pos.shape[0]
        oracle = np.zeros((n, n), dtype=complex)
        zmat = np.array([[1.0, -alphas[1] * gval], [-alphas[0] * gval, 1.0]])
        for s_col in range(n):
            inc = np.array([green(geom_pos[s_col], pts[0], CTX)[0, 0],
                            green(geom_pos[s_col], pts[1], CTX)[0, 0]])
            exc = np.linalg.solve(zmat, inc)
            for r_row in range(n):
                oracle[r_row, s_col] = sum(
                    alphas[j] * green(geom_pos[r_row], pts[j], CTX)[0, 0] * exc[j]
                    for j in range(2))
        assert np.allclose(resp.matrix, oracle, rtol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(scatterers=SCATTERERS)
    @example(scatterers=[((1, 2), 2.0 * np.exp(1j * 0.2)), ((4, 6), 1.5j),
                         ((7, 3), -0.8 + 0.3j)])
    def test_symmetry(self, scatterers):
        cells, alphas = zip(*scatterers)
        sens, rho, _ = small_scene(cells, alphas)
        for builder in (response_matrix_foldy_lax, response_matrix_born):
            try:
                m = builder(sens, rho).matrix
            except ResonanceError:
                assume(False)
            assert np.linalg.norm(m - m.T) <= 1e-10 * np.linalg.norm(m)

    def test_born_limit_scaling(self):
        alphas = np.array([2.0 * np.exp(1j * 0.9), 1.4 * np.exp(-1j * 2.0)])
        ratios = []
        for t in (1e-2, 5e-3, 2.5e-3):
            sens, rho, _ = small_scene([(2, 3), (6, 5)], t * alphas)
            full = response_matrix_foldy_lax(sens, rho).matrix
            born = response_matrix_born(sens, rho).matrix
            ratios.append(np.linalg.norm(full - born) / np.linalg.norm(born))
        for a, b in zip(ratios, ratios[1:]):
            assert a / b == pytest.approx(2.0, rel=0.2)

    @settings(max_examples=40, deadline=None)
    @given(scatterers=SCATTERERS.filter(lambda s: len(s) <= 4),
           target=st.floats(min_value=1e-3, max_value=0.5))
    def test_born_limit_bound(self, scatterers, target):
        # P_FL - P_Born = G_S diag(a) (Z^-1 - I) G_S^T with Z = I - G_pair diag(a),
        # and the Neumann series bounds ||Z^-1 - I||_2 by q / (1 - q) for
        # q = ||G_pair diag(a)||_2 < 1; the alphas are scaled to q = target
        cells, alphas = zip(*scatterers)
        sens, rho, _ = small_scene(cells, alphas)
        pair = pairwise_green_matrix(sens.window.points[rho.support], CTX)
        q = np.linalg.norm(pair * rho.values[rho.support][None, :], 2)
        if q > 0:  # one scatterer has no pair term: P_FL = P_Born
            sens, rho, _ = small_scene(cells, np.array(alphas) * (target / q))
        alphas = rho.values[rho.support]
        q = np.linalg.norm(pair * alphas[None, :], 2)
        g_s = sens.matrix[:, rho.support]
        full = response_matrix_foldy_lax(sens, rho).matrix
        born = response_matrix_born(sens, rho).matrix
        bound = (np.linalg.norm(g_s * alphas[None, :], 2) * np.linalg.norm(g_s, 2)
                 * q / (1 - q))
        assert np.linalg.norm(full - born, 2) <= bound + 1e-12 * np.linalg.norm(born, 2)

    def test_born_rank_and_singular_values_section54(self):
        mags = [0.8, 1.0, 0.5, 0.7]
        cells = [(1, 1), (2, 7), (6, 2), (7, 6)]
        geom = build_linear_array(100, 1.0)
        win = ImageWindow(200.0, 9, 9, 4.0)
        sens = sensing_matrix(geom, win, CTX)
        idx = [win.rowcol_to_index(r, c) for r, c in cells]
        rng = np.random.default_rng(11)
        rho = place_scatterers(
            win, [(i, m * np.exp(1j * p)) for i, m, p in
                  zip(idx, mags, rng.uniform(0, 2 * np.pi, 4))])
        born = response_matrix_born(sens, rho)
        _, s, _ = born.svd()
        rank = int(np.sum(s > 1e-8 * s[0]))
        assert rank == 4
        expected = np.sort([m * np.linalg.norm(sens.matrix[:, i]) ** 2
                            for i, m in zip(idx, mags)])[::-1]
        from arrayimg.greens import mutual_coherence
        eps, _ = mutual_coherence(sens.matrix[:, idx])
        assert np.all(np.abs(s[:4] - expected) <= 2 * eps * expected + 1e-12)

    def test_support_solve_matches_full_grid(self):
        # K x K construction cross-check on a small grid
        alphas = [1.5 * np.exp(1j * 0.5), -0.9 + 1.1j]
        geom = build_linear_array(10, 1.0)
        win = ImageWindow(40.0, 5, 5, 2.5)
        sens = sensing_matrix(geom, win, CTX)
        idx = [win.rowcol_to_index(1, 1), win.rowcol_to_index(3, 3)]
        rho = place_scatterers(win, list(zip(idx, alphas)))
        resp = response_matrix_foldy_lax(sens, rho)
        g_all = pairwise_green_matrix(win.points, CTX)
        z_full = foldy_lax_matrix(rho.values, g_all)
        full = sens.matrix @ np.diag(rho.values) @ \
            np.linalg.solve(z_full, sens.matrix.T)
        assert np.linalg.norm(resp.matrix - full) <= 1e-10 * np.linalg.norm(full)


class TestSimulateData:
    def test_top_singular_vector_identity(self):
        sens, rho, _ = small_scene([(4, 4), (2, 6)], [1.2, 0.8 * np.exp(1j)])
        born = response_matrix_born(sens, rho)
        u, s, vh = born.svd()
        b = born.matrix @ vh.conj().T[:, 0]
        assert np.linalg.norm(b - s[0] * u[:, 0]) <= 1e-10 * s[0]


class TestMultipleScatteringRatio:
    def test_single_scatterer_zero(self):
        sens, rho, _ = small_scene([(4, 4)], [2.0])
        f = np.zeros(20, dtype=complex)
        f[10] = 1.0
        assert multiple_scattering_ratio(rho, f, sens) == pytest.approx(0.0, abs=1e-14)

    def test_vanishes_in_born_limit(self):
        f = np.zeros(20, dtype=complex)
        f[10] = 1.0
        prev = None
        for t in (1e-1, 1e-2, 1e-3):
            sens, rho, _ = small_scene([(2, 3), (6, 5)],
                                       [t * 2.0, t * 1.5 * np.exp(1j)])
            ratio = multiple_scattering_ratio(rho, f, sens)
            if prev is not None:
                assert ratio < prev
            prev = ratio
        assert prev < 1e-3

    @settings(max_examples=40, deadline=None)
    @given(scatterers=SCATTERERS, element=st.integers(0, 19))
    def test_matches_response_matrices(self, scatterers, element):
        # the ratio from the one support solve equals ||(P - Pi) f|| / ||Pi f||
        # built from the two N x N responses; P f - Pi f cancels all but
        # ~1e-4 of P f for weak, far-apart scatterers, so the rounding of
        # P f (a few ulps of ||P f|| / ||Pi f|| ~ 1) needs an absolute floor
        cells, alphas = zip(*scatterers)
        sens, rho, _ = small_scene(cells, alphas)
        f = np.zeros(20, dtype=complex)
        f[element] = 1.0
        try:
            ratio = multiple_scattering_ratio(rho, f, sens)
        except ResonanceError:
            assume(False)
        single = response_matrix_born(sens, rho).matrix @ f
        full = response_matrix_foldy_lax(sens, rho).matrix @ f
        expected = np.linalg.norm(full - single) / np.linalg.norm(single)
        assert ratio == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_zero_single_scattering_rejected(self):
        sens, rho, _ = small_scene([], [])
        f = np.ones(20, dtype=complex)
        with pytest.raises(DomainError):
            multiple_scattering_ratio(rho, f, sens)


class TestEffectiveSources:
    def test_matches_definition(self):
        alphas = [1.4 * np.exp(1j * 0.7), 0.9 * np.exp(-1j * 0.2)]
        sens, rho, idx = small_scene([(2, 3), (6, 5)], alphas)
        f = np.zeros(20, dtype=complex)
        f[3] = 1.0
        gamma = effective_source_vector(sens, rho, f)
        assert sorted(np.flatnonzero(gamma)) == sorted(idx)
        # data identity: G gamma = P f
        resp = response_matrix_foldy_lax(sens, rho)
        lhs = sens.matrix @ gamma
        rhs = resp.matrix @ f
        assert np.allclose(lhs, rhs, rtol=1e-10)


class TestSvdCacheAndSerialization:
    def test_svd_reconstruction(self):
        sens, rho, _ = small_scene([(2, 3), (6, 5)], [1.0, 0.7j])
        resp = response_matrix_foldy_lax(sens, rho)
        u, s, vh = resp.svd()
        assert np.all(np.diff(s) <= 1e-15)
        recon = (u * s) @ vh
        assert np.linalg.norm(resp.matrix - recon) <= 1e-10 * np.linalg.norm(resp.matrix)
        assert resp.svd() is resp._svd  # cached


# five scatterers on the 9 x 9 lattice with distinct magnitudes, so the top
# singular values of their Born response are well separated
FIVE_CELLS = [(1, 1), (2, 7), (4, 4), (7, 2), (7, 7)]
FIVE_ALPHAS = [1.0, 0.8 * np.exp(0.4j), 0.6j, 0.45, 0.3 * np.exp(-2.1j)]


def born_response(count, n=101):
    sens, rho, _ = small_scene(FIVE_CELLS[:count], FIVE_ALPHAS[:count], n=n)
    return response_matrix_born(sens, rho)


def assert_top_triplets(resp, u, s, vh, k):
    """The triplets match np.linalg.svd in values, left and right projectors
    and reconstruction of the rank-k part, to 1e-12."""
    u0, s0, vh0 = np.linalg.svd(resp.matrix, full_matrices=False)
    assert u.shape == (resp.n, k) and s.shape == (k,) and vh.shape == (k, resp.n)
    assert np.all(np.abs(s - s0[:k]) <= 1e-12 * s0[:k])
    proj = u @ u.conj().T - u0[:, :k] @ u0[:, :k].conj().T
    assert np.linalg.norm(proj) <= 1e-12
    proj = vh.conj().T @ vh - vh0[:k].conj().T @ vh0[:k]
    assert np.linalg.norm(proj) <= 1e-12
    # the phases of u_i and v_i agree: U diag(s) Vh is the rank-k part of P
    part = (u0[:, :k] * s0[:k]) @ vh0[:k]
    assert np.linalg.norm((u * s) @ vh - part) <= 1e-12 * s0[0]


class TestTopSvd:
    def test_low_rank_top_triplets(self):
        resp = born_response(4)
        u, s, vh = resp.svd(4)
        assert resp._svd[1].size == 4  # the range finder kept its basis
        assert_top_triplets(resp, u, s, vh, 4)

    @pytest.mark.parametrize("n, k", [(100, 4), (12, 2)])  # certificate fails; k + 10 >= n
    def test_noisy_full_rank_takes_whole_space(self, n, k):
        clean = born_response(4, n=n).matrix
        rng = np.random.default_rng(3)
        noise = rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)
        p = clean + noise * (0.5 * np.linalg.norm(clean) / np.linalg.norm(noise))
        resp = ResponseMatrix(matrix=p, provenance="born")
        u, s, vh = resp.svd(k)
        u0, s0, vh0 = np.linalg.svd(p, full_matrices=False)
        assert np.array_equal(u, u0[:, :k]) and np.array_equal(s, s0[:k])
        assert np.array_equal(vh, vh0[:k])
        assert resp._svd[1].size == n  # every triplet is cached

    @pytest.mark.parametrize("k", [1, 4])
    def test_matches_explicit_conjugate_power_step(self, k):
        # the power step forms P^H Q as conj(P^T conj(Q)); the spelling that
        # conjugates P gives the same top triplets to a relative 1e-13
        p = born_response(4).matrix
        omega = np.random.default_rng(SKETCH_SEED).standard_normal(
            (p.shape[1], k + SKETCH_OVERSAMPLING))
        q = np.linalg.qr(p @ omega)[0]
        q = np.linalg.qr(p @ (p.conj().T @ q))[0]
        ub, s0, vh0 = np.linalg.svd(q.conj().T @ p, full_matrices=False)
        u0, s0, vh0 = q @ ub[:, :k], s0[:k], vh0[:k]
        u, s, vh = _top_svd(p, k)
        assert s.size == k  # the range finder kept its basis
        assert np.all(np.abs(s - s0) <= 1e-13 * s0)
        assert np.linalg.norm((u * s) @ vh - (u0 * s0) @ vh0) <= 1e-13 * s0[0]

    def test_fresh_objects_bit_identical(self):
        mat = born_response(4).matrix
        first = ResponseMatrix(matrix=mat.copy(), provenance="born").svd(4)
        second = ResponseMatrix(matrix=mat.copy(), provenance="born").svd(4)
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    def test_larger_request_recomputes(self):
        resp = born_response(5)
        u2, s2, vh2 = resp.svd(2)
        assert resp._svd[1].size == 2
        assert_top_triplets(resp, u2, s2, vh2, 2)
        u, s, vh = resp.svd(5)
        assert resp._svd[1].size == 5
        assert_top_triplets(resp, u, s, vh, 5)
        assert resp.svd(3)[1].tobytes() == s[:3].tobytes()  # sliced from the cache
        full = resp.svd()
        assert full is resp._svd and full[1].size == resp.n

    @pytest.mark.parametrize("k", [-1, 0, 31, 2.5])  # 2.5: not an integer
    def test_rank_outside_range_refused(self, k):
        resp = born_response(4, n=30)
        with pytest.raises(ConfigurationError, match=rf"^rank {k} outside \[1, 30\]$"):
            resp.svd(k)
        assert resp._svd is None

    @pytest.mark.parametrize("count, n, k", [(3, 60, -2), (0, 5, -7), (3, 60, -1)])
    def test_negative_k_rejected(self, count, n, k):
        # a negative rank and k = 0 are refused before any SVD, even for the
        # zero matrix of an empty scene (count = 0)
        resp = born_response(count, n=n)
        for bad in (k, 0):
            with pytest.raises(ConfigurationError, match=rf"^rank {bad} outside \[1, {n}\]$"):
                resp.svd(bad)
            assert resp._svd is None

    def test_zero_spectrum_refused(self):
        # every singular vector of a zero matrix is arbitrary, so no caller
        # gets one; the refusal stores nothing, so a second call raises too
        resp = ResponseMatrix(matrix=np.zeros((101, 101), dtype=complex),
                              provenance="born")
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="zero response matrix"):
                resp.svd(4)
            assert resp._svd is None
        for known_m in (4, None):
            with pytest.raises(ConfigurationError, match="zero response matrix"):
                select_rank(resp, known_m=known_m)
