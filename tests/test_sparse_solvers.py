import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arrayimg.errors import ConfigurationError, DomainError
from arrayimg.sparse_solvers import (BETA_FRACTION, FEASIBILITY_SLACK, STEP_SIZE,
                                     SolverParams, SparseSolution,
                                     _threshold_support, brute_force_l0, rowsupp,
                                     solve_l1_mmv, solve_l1_smv,
                                     theorem2_error_bound)
from arrayimg.io import write_trace_csv


def random_unit_columns(rng, n, k):
    a = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return a / np.linalg.norm(a, axis=0)


def coherence(a):
    g = np.abs(a.conj().T @ a)
    np.fill_diagonal(g, 0.0)
    return g.max()


def planted_instance(seed, n=128, k=16, m=2, eps_cap=0.25):
    """Random complex instance with planted support satisfying eps * m < 1/2."""
    rng = np.random.default_rng(seed)
    while True:
        a = random_unit_columns(rng, n, k)
        if coherence(a) * m < 0.5 - 1e-9 and coherence(a) < eps_cap:
            break
    supp = np.sort(rng.choice(k, size=m, replace=False))
    coef = (rng.uniform(0.5, 2.0, m) *
            np.exp(1j * rng.uniform(0, 2 * np.pi, m)))
    b = a[:, supp] @ coef
    return a, b, supp, coef


class TestSolveL1Smv:
    def test_zero_data(self):
        rng = np.random.default_rng(0)
        a = random_unit_columns(rng, 8, 12)
        sol = solve_l1_smv(a, np.zeros(8, dtype=complex))
        assert sol.converged
        assert not sol.solution.any()
        assert sol.support.size == 0

    def test_orthonormal_columns_closed_form(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((12, 8))
                            + 1j * rng.standard_normal((12, 8)))
        sol = solve_l1_smv(q, 3.0 * q[:, 5])
        assert sol.converged
        assert list(sol.support) == [5]
        assert abs(sol.solution[5] - 3.0) < 1e-6

    def test_planted_support_matches_oracle(self):
        a, b, supp, coef = planted_instance(seed=7, n=64, k=12, m=2)
        sol = solve_l1_smv(a, b)
        oracle_supp, oracle_coef = brute_force_l0(a, b, max_support=2)
        assert list(sol.support) == list(oracle_supp) == list(supp)
        assert np.allclose(sol.solution[supp], oracle_coef, atol=1e-6)

    def test_noisy_feasibility(self):
        a, b, supp, coef = planted_instance(seed=9, n=64, k=12, m=2)
        rng = np.random.default_rng(10)
        e = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        e *= 0.05 * np.linalg.norm(b) / np.linalg.norm(e)
        delta = np.linalg.norm(e)
        sol = solve_l1_smv(a, b + e, SolverParams(delta=delta))
        assert sol.converged
        assert sol.residual_norm <= delta + 1e-8

    def test_phase_equivariance(self):
        a, b, _, _ = planted_instance(seed=13, n=64, k=12, m=2)
        c = np.exp(1j * 0.987)
        sol1 = solve_l1_smv(a, b)
        sol2 = solve_l1_smv(a, c * b)
        assert np.allclose(sol2.solution, c * sol1.solution, atol=1e-8)

    def test_merit_monotone(self):
        a, b, _, _ = planted_instance(seed=21, n=64, k=12, m=2)
        sol = solve_l1_smv(a, b)
        assert sol.merit_violation <= 1e-9

    def test_nonconvergence_flagged(self):
        a, b, _, _ = planted_instance(seed=3, n=64, k=12, m=2)
        sol = solve_l1_smv(a, b, SolverParams(max_iterations=3))
        assert not sol.converged
        assert sol.iterations == 3

    def test_dimension_mismatch(self):
        a = np.eye(4, dtype=complex)
        with pytest.raises(ConfigurationError):
            solve_l1_smv(a, np.ones(5, dtype=complex))

    def test_trace_logged(self, tmp_path):
        a, b, _, _ = planted_instance(seed=4, n=64, k=12, m=2)
        sol = solve_l1_smv(a, b, SolverParams(trace_every=10))
        assert sol.trace and all(len(row) == 3 for row in sol.trace)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, sol.trace)
        assert path.read_text().startswith("iteration,objective,residual")


class TestSolveL1Mmv:
    def test_single_column_degenerates_to_smv(self):
        a, b, supp, _ = planted_instance(seed=5, n=64, k=12, m=2)
        smv = solve_l1_smv(a, b)
        mmv = solve_l1_mmv(a, b[:, None])
        assert np.allclose(mmv.solution[:, 0], smv.solution, atol=1e-8)

    # not bit-equal: the row and entry soft thresholds round differently
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(64, 128),
           k=st.integers(4, 16), m=st.integers(1, 2), noise=st.sampled_from([0.0, 0.05]))
    def test_smv_equals_one_column_mmv(self, seed, n, k, m, noise):
        a, b, _, _ = planted_instance(seed=seed, n=n, k=k, m=m)
        delta = 0.0
        if noise:
            rng = np.random.default_rng(seed)
            e = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            e *= noise * np.linalg.norm(b) / np.linalg.norm(e)
            b = b + e
            delta = float(np.linalg.norm(e))
        params = SolverParams(delta=delta)
        smv = solve_l1_smv(a, b, params)
        mmv = solve_l1_mmv(a, b[:, None], params)
        assert np.array_equal(mmv.support, smv.support)
        assert np.allclose(mmv.solution[:, 0], smv.solution, rtol=0.0, atol=1e-8)

    def test_zero_data(self):
        rng = np.random.default_rng(6)
        a = random_unit_columns(rng, 8, 12)
        sol = solve_l1_mmv(a, np.zeros((8, 3), dtype=complex))
        assert sol.converged and not sol.solution.any()

    def test_planted_row_sparse(self):
        rng = np.random.default_rng(8)
        while True:
            a = random_unit_columns(rng, 96, 14)
            if coherence(a) * 3 < 0.5:
                break
        supp = np.array([2, 7, 11])
        x0 = np.zeros((14, 5), dtype=complex)
        x0[supp] = (rng.uniform(0.5, 1.5, (3, 5))
                    * np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 5))))
        sol = solve_l1_mmv(a, a @ x0)
        assert list(sol.support) == list(supp)
        assert np.allclose(sol.solution, x0, atol=1e-5)

    def test_invalid_data_shape(self):
        a = np.eye(4, dtype=complex)
        with pytest.raises(ConfigurationError):
            solve_l1_mmv(a, np.ones(4, dtype=complex))


class TestBruteForceL0:
    def test_exact_column(self):
        rng = np.random.default_rng(12)
        a = random_unit_columns(rng, 8, 10)
        supp, coef = brute_force_l0(a, 2.5 * a[:, 4])
        assert list(supp) == [4]
        assert coef[0] == pytest.approx(2.5, rel=1e-10)

    def test_zero_data_empty_support(self):
        rng = np.random.default_rng(14)
        a = random_unit_columns(rng, 8, 10)
        supp, coef = brute_force_l0(a, np.zeros(8, dtype=complex))
        assert supp.size == 0 and coef.size == 0

    def test_planted_two_sparse(self):
        a, b, supp, coef = planted_instance(seed=15, n=32, k=12, m=2)
        got_supp, got_coef = brute_force_l0(a, b, max_support=2)
        assert list(got_supp) == list(supp)
        resid = np.linalg.norm(a[:, got_supp] @ got_coef - b)
        assert resid < 1e-10

    def test_limits_enforced(self):
        rng = np.random.default_rng(16)
        with pytest.raises(ConfigurationError):
            brute_force_l0(random_unit_columns(rng, 8, 25), np.zeros(8))
        with pytest.raises(ConfigurationError):
            brute_force_l0(random_unit_columns(rng, 8, 10), np.zeros(8), max_support=4)

    def test_infeasible_raises(self):
        rng = np.random.default_rng(17)
        a = random_unit_columns(rng, 12, 6)
        b = rng.standard_normal(12) + 1j * rng.standard_normal(12)  # generic, not 3-sparse
        with pytest.raises(DomainError):
            brute_force_l0(a, b, max_support=2)


class TestRowsupp:
    def test_zero_matrix(self):
        assert rowsupp(np.zeros((5, 3))).size == 0

    def test_single_row(self):
        x = np.zeros((8, 2), dtype=complex)
        x[5] = [1.0, 1j]
        assert list(rowsupp(x)) == [5]

    def test_threshold_filters_background(self):
        rng = np.random.default_rng(19)
        x = 0.01 * (rng.standard_normal((14, 4)) + 1j * rng.standard_normal((14, 4)))
        for row in (2, 7, 11):
            x[row] *= 100.0
        assert list(rowsupp(x, threshold=0.2)) == [2, 7, 11]

    def test_vector_input(self):
        v = np.array([0.0, 3.0, 0.0, 1e-12])
        assert list(rowsupp(v)) == [1, 3]
        assert list(rowsupp(v, threshold=0.1)) == [1]

    def test_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            rowsupp(np.ones((3, 2)), threshold=1.0)


class TestTheorem2Bound:
    def test_zero_coherence(self):
        assert theorem2_error_bound(0.3, 4, 0.0) == pytest.approx(0.3)

    def test_zero_delta(self):
        assert theorem2_error_bound(0.0, 4, 0.1) == 0.0

    def test_hypothesis_violation(self):
        with pytest.raises(DomainError):
            theorem2_error_bound(0.1, 5, 0.3)

    def test_monte_carlo_inequality(self):
        # across noise draws the recovered error stays below the bound and
        # every component above the floor is detected
        a, b, supp, coef = planted_instance(seed=23, n=96, k=12, m=2)
        eps = coherence(a)
        gamma0 = np.zeros(12, dtype=complex)
        gamma0[supp] = coef
        rng = np.random.default_rng(24)
        for trial in range(20):
            e = rng.standard_normal(96) + 1j * rng.standard_normal(96)
            e *= 0.02 * np.linalg.norm(b) / np.linalg.norm(e)
            # Theorem hypothesis: delta >= ||e|| sqrt(1 + M(1-(M-1)eps)/(1-2Meps+eps)^2)
            m = 2
            hypo = np.linalg.norm(e) * np.sqrt(
                1 + m * (1 - (m - 1) * eps) / (1 - 2 * m * eps + eps) ** 2)
            bound = theorem2_error_bound(hypo, m, eps)
            sol = solve_l1_smv(a, b + e, SolverParams(delta=hypo))
            err = np.linalg.norm(sol.solution - gamma0)
            assert err <= bound + 1e-9
            detected = set(np.flatnonzero(np.abs(sol.solution) > 1e-12))
            for j in supp:
                if abs(gamma0[j]) > bound:
                    assert j in detected


class TestOracleAgreement:
    def test_batch_agreement(self):
        # smaller batch here; the acceptance suite runs the full 50
        for seed in range(10):
            a, b, supp, _ = planted_instance(seed=100 + seed, n=128, k=16, m=2)
            sol = solve_l1_smv(a, b)
            oracle_supp, _ = brute_force_l0(a, b, max_support=2)
            assert list(sol.support) == list(oracle_supp)


# The proximal loop as it was before the adjoint was hoisted and the residual
# carried between iterations, kept verbatim as the reference the current loop
# must match bit for bit.
def _spectral_norm_sq(a: np.ndarray, iterations: int = 20) -> float:
    """Power-iteration estimate of ||A||_2^2 (deterministic start)."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(a.shape[1]) + 1j * rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    est = 1.0
    for _ in range(iterations):
        w = a.conj().T @ (a @ v)
        est = np.linalg.norm(w)
        if est == 0:
            return 0.0
        v = w / est
    return float(est)


def _soft_entries(x: np.ndarray, t: float) -> np.ndarray:
    """Complex soft threshold: shrink magnitude by t, preserve phase."""
    mag = np.abs(x)
    scale = np.maximum(0.0, 1.0 - t / np.maximum(mag, 1e-300))
    return x * scale


def _soft_rows(x: np.ndarray, t: float) -> np.ndarray:
    """Block soft threshold: shrink each row's l2 norm by t, keep direction."""
    norms = np.linalg.norm(x, axis=1)
    scale = np.maximum(0.0, 1.0 - t / np.maximum(norms, 1e-300))
    return x * scale[:, None]


def _shrink_to_ball(r: np.ndarray, delta: float):
    """Component of the residual outside the delta-ball (Frobenius norm)."""
    if delta == 0.0:
        return r, np.linalg.norm(r)
    norm = np.linalg.norm(r)
    if norm <= delta:
        return np.zeros_like(r), norm
    return r * (1.0 - delta / norm), norm


def _iterate(a, b, params: SolverParams, row_mode: bool):
    """Shared SMV/MMV proximal loop; ``b`` is (N,) or (N, v).

    The operator is rescaled to unit spectral norm (solution-invariant:
    ``A x = b`` iff ``(A/s) x = b/s``), so the step ``0.9 / ||A~||_2^2`` is
    ``STEP_SIZE`` and the coupled multiplier update is stable.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or np.all(a == 0):
        raise ConfigurationError("system matrix must be a nonzero 2-D array")
    if b.shape[0] != a.shape[0]:
        raise ConfigurationError("data length does not match matrix rows")

    scale = float(np.sqrt(_spectral_norm_sq(a)))
    a = a / scale
    b = b / scale
    delta = params.delta / scale
    slack = FEASIBILITY_SLACK / scale

    atb = a.conj().T @ b
    if row_mode:
        beta = BETA_FRACTION * float(np.max(np.linalg.norm(atb, axis=1)))
    else:
        beta = BETA_FRACTION * float(np.max(np.abs(atb)))

    shrink = _soft_rows if row_mode else _soft_entries
    x = np.zeros_like(atb)
    z = np.zeros_like(b)
    snapshot = x.copy()  # convergence is judged on 50-iteration windows
    merit_violation = 0.0
    trace = []
    converged = False
    it = 0
    res_norm = np.linalg.norm(b)

    if beta == 0.0:  # A^H b identically zero: x = 0 is stationary
        return SparseSolution(
            solution=x, iterations=0, residual_norm=float(res_norm * scale),
            support=_threshold_support(x, params.support_threshold, row_mode),
            converged=bool(res_norm <= delta + slack))

    for it in range(1, params.max_iterations + 1):
        r = b - a @ x
        r_eff, res_norm = _shrink_to_ball(r, delta)
        # full residual drives the primal step; the multiplier only accumulates
        # the part outside the delta-ball, so delta = 0 reduces to the pure
        # equality scheme
        grad_term = a.conj().T @ (z + r)
        x_new = shrink(x + STEP_SIZE * grad_term, STEP_SIZE * beta)

        if params.trace_every and it % params.trace_every == 0:
            obj = float(np.sum(np.linalg.norm(x_new, axis=1))) if row_mode \
                else float(np.sum(np.abs(x_new)))
            trace.append((it, obj, float(res_norm * scale)))
        if it % 50 == 0:
            # descent check of the merit the proximal step minimizes (z fixed)
            before = _merit(a, b, z, x, beta, delta, row_mode)
            after = _merit(a, b, z, x_new, beta, delta, row_mode)
            merit_violation = max(merit_violation,
                                  (after - before) / max(1.0, abs(before)))
        z = z + STEP_SIZE * r_eff
        x = x_new
        if it % 50 == 0:
            change = np.linalg.norm(x - snapshot)
            snapshot = x.copy()
            feasible = res_norm <= delta + slack
            if feasible and change <= params.tolerance * max(np.linalg.norm(x), 1e-300):
                converged = True
                break

    res_norm = float(np.linalg.norm(b - a @ x) * scale)
    return SparseSolution(
        solution=x,
        iterations=it,
        residual_norm=res_norm,
        support=_threshold_support(x, params.support_threshold, row_mode),
        converged=converged,
        merit_violation=float(merit_violation),
        trace=trace,
    )


def _merit(a, b, z, x, beta, delta, row_mode) -> float:
    r = b - a @ x
    reg = np.sum(np.linalg.norm(x, axis=1)) if row_mode else np.sum(np.abs(x))
    return float(beta * reg + 0.5 * np.linalg.norm(r) ** 2
                 + np.real(np.vdot(z, r)))



class TestLoopMatchesReference:
    @staticmethod
    def problem(row_mode, noisy):
        a, b, _, _ = planted_instance(seed=31, n=64, k=12, m=2)
        if row_mode:
            rng = np.random.default_rng(32)
            x0 = np.zeros((12, 3), dtype=complex)
            x0[[2, 9]] = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            b = a @ x0
        delta = 0.0
        if noisy:
            rng = np.random.default_rng(33)
            e = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
            e *= 0.05 * np.linalg.norm(b) / np.linalg.norm(e)
            b = b + e
            delta = float(np.linalg.norm(e))
        return a, b, delta

    @pytest.mark.parametrize("max_iterations", [50_000, 123])
    @pytest.mark.parametrize("trace_every", [0, 7])
    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("row_mode", [False, True])
    def test_bit_identical(self, row_mode, noisy, trace_every, max_iterations):
        a, b, delta = self.problem(row_mode, noisy)
        params = SolverParams(delta=delta, max_iterations=max_iterations,
                              trace_every=trace_every)
        expected = _iterate(a, b, params, row_mode)
        got = (solve_l1_mmv if row_mode else solve_l1_smv)(a, b, params)
        # the capped run stops at its cap; the other converges before it
        assert expected.converged == (max_iterations == 50_000)
        assert np.array_equal(got.solution, expected.solution)
        assert got.solution.tobytes() == expected.solution.tobytes()
        assert got.iterations == expected.iterations
        assert got.residual_norm == expected.residual_norm
        assert got.merit_violation == expected.merit_violation
        assert got.converged == expected.converged
        assert np.array_equal(got.support, expected.support)
        assert got.trace == expected.trace
        assert bool(got.trace) == bool(trace_every)
