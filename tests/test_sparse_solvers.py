import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arrayimg import sparse_solvers
from arrayimg.errors import ConfigurationError, DomainError
from arrayimg.sparse_solvers import (BALANCE_RATIO, FEASIBILITY_SLACK, PENALTY_CHANGES,
                                     PENALTY_STEP, SVD_RCOND, SolverParams,
                                     SparseSolution, _BallProjection, _shrink,
                                     brute_force_l0, solve_l1_mmv,
                                     solve_l1_smv, theorem2_error_bound)
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

    @pytest.mark.parametrize("columns", [None, 3], ids=["smv", "mmv"])
    def test_kkt_certificate(self, columns):
        # optimality on the returned support: feasible, and the least-squares
        # dual certificate p (A_S^H p = sign of x_S) has |A^H p| <= 1 off it
        for seed in range(10):
            rng = np.random.default_rng([21, seed])
            a = random_unit_columns(rng, 32, 64)
            x0 = np.zeros((64, columns or 1), dtype=complex)
            x0[rng.choice(64, size=3, replace=False)] = (
                rng.uniform(0.5, 2.0, (3, x0.shape[1]))
                * np.exp(1j * rng.uniform(0, 2 * np.pi, (3, x0.shape[1]))))
            if columns:
                sol = solve_l1_mmv(a, a @ x0)
                x = sol.solution
            else:
                sol = solve_l1_smv(a, a @ x0[:, 0])
                x = sol.solution[:, None]
            assert sol.converged
            assert sol.residual_norm <= FEASIBILITY_SLACK
            supp = sol.support
            sign = x[supp] / np.linalg.norm(x[supp], axis=1, keepdims=True)
            p = np.linalg.pinv(a[:, supp].conj().T) @ sign
            assert np.linalg.norm(a.conj().T @ p, axis=1).max() <= 1 + 1e-6

    def test_nonconvergence_flagged(self):
        a, b, _, _ = planted_instance(seed=3, n=64, k=12, m=2)
        sol = solve_l1_smv(a, b, SolverParams(max_iterations=3))
        assert not sol.converged
        assert sol.iterations == 3

    def test_dimension_mismatch(self):
        a = np.eye(4, dtype=complex)
        with pytest.raises(ValueError) as exc:  # a caller's bug, not a bad setting
            solve_l1_smv(a, np.ones(5, dtype=complex))
        assert not isinstance(exc.value, ConfigurationError)

    def test_trace_logged(self, tmp_path):
        a, b, _, _ = planted_instance(seed=4, n=64, k=12, m=2)
        sol = solve_l1_smv(a, b)
        # one (iteration, objective, residual) row per 50-iteration check
        assert [row[0] for row in sol.trace] == list(range(50, sol.iterations + 1, 50))
        assert sol.trace and all(len(row) == 3 for row in sol.trace)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, sol.trace)
        assert path.read_text().startswith("iteration,objective,residual")


class TestSolveL1Mmv:
    def test_single_column_degenerates_to_smv(self):
        a, b, supp, _ = planted_instance(seed=5, n=64, k=12, m=2)
        smv = solve_l1_smv(a, b)
        mmv = solve_l1_mmv(a, b[:, None])
        assert np.array_equal(mmv.solution[:, 0], smv.solution)

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
        assert np.array_equal(mmv.solution[:, 0], smv.solution)

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
        with pytest.raises(ValueError) as exc:
            solve_l1_mmv(a, np.ones(4, dtype=complex))
        assert not isinstance(exc.value, ConfigurationError)


@pytest.mark.parametrize("solve, columns", [(solve_l1_smv, 0), (solve_l1_mmv, 2)],
                         ids=["smv", "mmv"])
def test_data_orthogonal_to_range(solve, columns):
    """Nonzero data with A^H b = 0: the loop never starts, and y = 0, the l1
    minimum, meets the constraint only once delta reaches ||b||."""
    a = np.vstack([np.eye(4), np.zeros((4, 4))])  # A = [I_4; 0]
    b = np.zeros(8, dtype=complex)
    b[7] = 2.0
    if columns:
        b = np.stack([b, 1j * b], axis=1)
    norm = float(np.linalg.norm(b))
    sol = solve(a, b)
    assert sol.iterations == 0 and not sol.converged
    assert not sol.solution.any() and sol.support.size == 0 and sol.trace == []
    assert sol.residual_norm == norm
    for delta in (norm, 2 * norm):
        sol = solve(a, b, SolverParams(delta=delta))
        assert sol.iterations == 0 and sol.converged


def _scale_problem(columns, noisy):
    rng = np.random.default_rng([51, columns, noisy])
    a = random_unit_columns(rng, 32, 64)
    x0 = np.zeros((64, columns), dtype=complex)
    x0[rng.choice(64, size=3, replace=False)] = (
        rng.uniform(0.5, 2.0, (3, columns))
        * np.exp(1j * rng.uniform(0, 2 * np.pi, (3, columns))))
    b = a @ x0
    delta = 0.0
    if noisy:
        e = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
        e *= 0.05 * np.linalg.norm(b) / np.linalg.norm(e)
        b = b + e
        delta = float(np.linalg.norm(e))
    return a, b, delta


@functools.lru_cache(maxsize=None)
def _scaled_solve(columns, noisy, a_exp, b_exp):
    """Solve the problem with A scaled by 2^a_exp and (b, delta) by 2^b_exp.
    The cap lies far above the unscaled iterations, so a run that loses
    scale invariance stops at it instead of at 50,000."""
    a, b, delta = _scale_problem(columns, noisy)
    params = SolverParams(delta=delta * 2.0 ** b_exp, max_iterations=5_000)
    a, b = a * 2.0 ** a_exp, b * 2.0 ** b_exp
    return solve_l1_mmv(a, b, params) if columns > 1 else solve_l1_smv(a, b[:, 0], params)


# FEASIBILITY_SLACK is an absolute 1e-8, so it binds on the noisy runs once
# b and delta are scaled up: the residual must come closer to delta relative
# to ||b||, which takes 550-800 iterations (b*2^10) or never happens (b*2^20;
# 450-550 unscaled).  Scaled down, the slack loosens, but the unscaled runs
# are already within 1e-8 of delta when the motion test passes
_SLACK_BINDS = pytest.mark.xfail(
    strict=True, reason="the absolute FEASIBILITY_SLACK does not scale with b")


class TestScaleInvariance:
    # scaling A by 2^i and (b, delta) by 2^j is exact in floating point and
    # scales the solution by 2^(j - i); the threshold, the SVD cut, the Newton
    # test and the motion test are all relative, so the run must take the
    # same path
    @pytest.mark.parametrize("a_exp, b_exp", [
        (10, 0), (-10, 0), (20, 0), (-20, 0), (0, 10), (0, -10), (0, 20), (0, -20)])
    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("columns", [1, 3], ids=["smv", "mmv"])
    def test_powers_of_two_change_nothing(self, request, columns, noisy, a_exp, b_exp):
        if noisy and b_exp > 0:
            request.applymarker(_SLACK_BINDS)
        base = _scaled_solve(columns, noisy, 0, 0)
        sol = _scaled_solve(columns, noisy, a_exp, b_exp)
        assert base.converged
        assert (sol.iterations, sol.converged) == (base.iterations, base.converged)
        assert np.array_equal(sol.support, base.support)


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
        assert sparse_solvers._threshold_support(np.zeros((5, 3)), 0.0).size == 0

    def test_single_row(self):
        x = np.zeros((8, 2), dtype=complex)
        x[5] = [1.0, 1j]
        assert list(sparse_solvers._threshold_support(x, 0.0)) == [5]

    def test_threshold_filters_background(self):
        rng = np.random.default_rng(19)
        x = 0.01 * (rng.standard_normal((14, 4)) + 1j * rng.standard_normal((14, 4)))
        for row in (2, 7, 11):
            x[row] *= 100.0
        assert list(sparse_solvers._threshold_support(x, 0.2)) == [2, 7, 11]


class TestSolverParams:
    @pytest.mark.parametrize("kwargs", [
        {"support_threshold": -0.1}, {"support_threshold": 1.0}, {"delta": -1.0},
        {"delta": float("nan")}, {"max_iterations": 0}, {"tolerance": -1.0},
        {"tolerance": float("nan")}],
        ids=["threshold-negative", "threshold-one", "delta-negative", "delta-nan",
             "max-iterations-zero", "tolerance-negative", "tolerance-nan"])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SolverParams(**kwargs)


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


class TestLinearProgramOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_basis_pursuit_lp(self, seed):
        # real basis pursuit as an LP over x = x+ - x-; with 8 nonzeros the
        # l1 minimizer is often not the planted vector
        from scipy.optimize import linprog

        rng = np.random.default_rng([7, seed])
        m = (2, 5, 8)[seed % 3]
        a = rng.standard_normal((20, 50))
        x0 = np.zeros(50)
        x0[rng.choice(50, size=m, replace=False)] = rng.standard_normal(m)
        b = a @ x0
        lp = linprog(np.ones(100), A_eq=np.hstack([a, -a]), b_eq=b,
                     bounds=(0, None), method="highs")
        assert lp.status == 0
        sol = solve_l1_smv(a, b)
        assert sol.converged
        assert np.allclose(sol.solution, lp.x[:50] - lp.x[50:], rtol=0.0, atol=1e-6)


class TestBallProjection:
    @staticmethod
    def problem(n, k, columns, seed=41):
        # columns = None, the vector case, is the one-column case
        rng = np.random.default_rng(seed)
        shape = (k, columns or 1)
        a = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        b = (rng.standard_normal((n,) + shape[1:])
             + 1j * rng.standard_normal((n,) + shape[1:]))
        p = 10 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        x_ls = np.linalg.lstsq(a, b, rcond=None)[0]
        delta = np.linalg.norm(a @ x_ls - b) + 0.3 * np.linalg.norm(b)
        return a, b, p, x_ls, delta

    @staticmethod
    def project(a, b, delta, p):
        proj = _BallProjection(a, b, delta)
        return p - proj.v @ proj.correction(proj.v.conj().T @ p)

    @pytest.mark.parametrize("columns", [None, 3])
    @pytest.mark.parametrize("n, k", [(12, 30), (30, 12)])
    def test_inside_unchanged(self, n, k, columns):
        a, b, p, x_ls, delta = self.problem(n, k, columns)
        inside = x_ls + 1e-3 * p / np.linalg.norm(a @ p) * delta
        assert np.linalg.norm(a @ inside - b) < delta
        got = self.project(a, b, delta, inside)
        assert np.array_equal(got, inside)

    @pytest.mark.parametrize("columns", [None, 3])
    @pytest.mark.parametrize("n, k", [(12, 30), (30, 12)])
    def test_outside_on_boundary(self, n, k, columns):
        a, b, p, _, delta = self.problem(n, k, columns)
        assert np.linalg.norm(a @ p - b) > delta
        x = self.project(a, b, delta, p)
        r = a @ x - b
        assert abs(np.linalg.norm(r) - delta) <= 1e-10 * delta
        # nearest point: p - x is a nonnegative multiple of A^H (A x - b)
        normal = (a.conj().T @ r).ravel()
        mu = np.vdot(normal, (p - x).ravel()).real / np.vdot(normal, normal).real
        assert mu > 0
        assert np.linalg.norm((p - x).ravel() - mu * normal) <= 1e-8 * np.linalg.norm(p - x)

    @pytest.mark.parametrize("columns", [None, 3])
    def test_equality_is_minimum_norm_correction(self, columns):
        a, b, p, _, _ = self.problem(12, 30, columns)
        x = self.project(a, b, 0.0, p)
        assert np.allclose(x, p - np.linalg.pinv(a) @ (a @ p - b), rtol=0.0, atol=1e-10)


class TestSoftThreshold:
    # prox optimality: (v - p) / t lies in the subdifferential of the (row)
    # l1 norm at p
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 20),
           columns=st.integers(1, 4), t=st.floats(1e-6, 1e3),
           spread=st.floats(-3, 3), rows_mode=st.booleans())
    def test_prox_optimality(self, seed, rows, columns, t, spread, rows_mode):
        rng = np.random.default_rng(seed)
        v = (rng.standard_normal((rows, columns))
             + 1j * rng.standard_normal((rows, columns))) * t * 10.0 ** spread
        if rows_mode:
            p = v.copy()
            kept = _shrink(p, t)
            v_mag, p_mag = np.linalg.norm(v, axis=1), np.linalg.norm(p, axis=1)
            zero = p_mag == 0
            v_rest, p_rest = v[~zero], p[~zero]
            unit = p_rest / p_mag[~zero, None]
        else:  # one column: the entrywise complex soft threshold
            v = v[:, :1]
            p = v.copy()
            kept = _shrink(p, t)
            v_mag, p_mag = np.abs(v), np.abs(p)
            zero = p_mag == 0
            v_rest, p_rest = v[~zero], p[~zero]
            unit = p_rest / p_mag[~zero]
        assert np.all(v_mag[zero] <= t)
        assert np.array_equal(kept, np.flatnonzero(~zero))
        tol = 1e-12 * np.maximum(t, v_mag[~zero])
        if rows_mode:
            tol = tol[:, None]
        assert np.all(np.abs(v_rest - p_rest - t * unit) <= tol)


# The two-mode spelling the solver had before SMV became its one-column case:
# an entrywise shrink with np.abs magnitudes for vector data, a row shrink for
# matrix data, and a projection with a 1-D branch.


def _soft_entries(x: np.ndarray, t: float) -> np.ndarray:
    """Complex soft threshold in place: shrink magnitude by t, keep phase."""
    mag = np.abs(x)
    scale = np.maximum(0.0, 1.0 - t / np.maximum(mag, 1e-300))
    x *= scale
    return x


def _rows_l2(x: np.ndarray) -> np.ndarray:
    """Row l2 norms, summed as the solver sums them: one einsum over the
    interleaved real and imaginary parts."""
    re_im = x.view(float)
    return np.sqrt(np.einsum("ij,ij->i", re_im, re_im))


def _soft_rows(x: np.ndarray, t: float) -> np.ndarray:
    """Block soft threshold in place: shrink each row's l2 norm by t, keep
    direction."""
    norms = _rows_l2(x)
    scale = np.maximum(0.0, 1.0 - t / np.maximum(norms, 1e-300))
    x *= scale[:, None]
    return x


class _TwoModeProjection:
    """Exact projection onto ``{x : ||A x - b||_F <= delta}``.

    With the thin SVD ``A = U S V^H`` (singular values below ``SVD_RCOND``
    times the largest dropped), ``x = V c + x_perp`` and the constraint reads
    ``||S c - U^H b||^2 <= delta^2 - ||b_perp||^2``; only ``c`` moves, so the
    projection of ``p`` is ``p - V g``.  For ``delta = 0`` (or a radius that
    ``b_perp`` alone exhausts) ``c`` is the least-squares ``S^{-1} U^H b``;
    otherwise it solves ``(I + lam S^2) c = V^H p + lam S U^H b`` with the
    scalar multiplier ``lam`` set by Newton steps on
    ``1/||S c - U^H b|| - 1/radius``.  ``correction(V^H p)`` returns ``g``;
    calling the projection applies it to ``p`` in K-space with the two
    products ``V^H p`` and ``V g``.
    """

    def __init__(self, a, b, delta):
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        self.spectral_norm = float(s[0])
        keep = s > SVD_RCOND * s[0]
        u, s, vh = u[:, keep], s[keep], vh[keep]
        self.vh = vh
        self.v = np.ascontiguousarray(vh.conj().T)
        self.s = s if b.ndim == 1 else s[:, None]
        self.ub = u.conj().T @ b
        outside_sq = np.linalg.norm(b - u @ self.ub) ** 2
        self.radius = float(np.sqrt(max(delta ** 2 - outside_sq, 0.0)))
        self.lam = 0.0  # warm start: the multiplier moves little between calls

    def _boundary_correction(self, q):
        """``g`` for a radius above 0, or None when ``q`` is already inside."""
        w = self.s * q - self.ub
        w_sq = np.abs(w) ** 2
        if w_sq.ndim > 1:
            w_sq = w_sq.sum(axis=1)
        if w_sq.sum() <= self.radius ** 2:
            return None
        s_sq = self.s.ravel() ** 2
        lam = self.lam
        for _ in range(60):
            d = 1.0 + lam * s_sq
            norm = np.sqrt(np.sum(w_sq / d ** 2))
            if abs(norm - self.radius) <= 1e-12 * self.radius:
                break
            # 1/norm is concave in lam, so Newton steps from below the root
            # rise to it monotonically; a step from above lands below, and a
            # negative multiplier is clipped to 0, which also lies below
            slope = np.sum(w_sq * s_sq / d ** 3) / norm ** 3
            lam = max(lam - (1.0 / norm - 1.0 / self.radius) / slope, 0.0)
        self.lam = lam
        return lam * self.s * w / (1.0 + lam * self.s ** 2)

    def correction(self, q: np.ndarray) -> np.ndarray:
        """``g`` for ``q = V^H p``; zero for a point already inside."""
        if self.radius == 0.0:
            return q - self.ub / self.s
        g = self._boundary_correction(q)
        return np.zeros_like(q) if g is None else g

    def __call__(self, p: np.ndarray) -> np.ndarray:
        """Project ``p`` in place; a point already inside is left as it is."""
        q = self.vh @ p
        if self.radius == 0.0:
            p += self.v @ (self.ub / self.s - q)
            return p
        g = self._boundary_correction(q)
        if g is not None:
            p -= self.v @ g
        return p


def _threshold_support(x, threshold, row_mode):
    mags = _rows_l2(x) if row_mode else np.abs(x)
    top = mags.max() if mags.size else 0.0
    if top == 0.0:
        return np.array([], dtype=int)
    return np.flatnonzero(mags > threshold * top)


def _reference_admm(a, b, params, row_mode, kspace=False):
    """Plain spelling of the solver's ADMM: every quantity is formed on every
    iteration, out of place, and only then read at the 50-iteration checks,
    each of which also appends a trace row.

    The loop runs in SVD coefficients, as the solver does: the state is
    ``y``, ``V^H y`` and ``q = V^H (y - u)``, ``x + u = y - V g`` and
    ``V^H (y' - u') = 2 V^H y' - V^H y + g``, with ``V^H y'`` formed on the
    rows the shrink keeps.  With ``kspace`` it runs in K-space, as the solver
    did before: ``x`` is the projection of ``y - u``, ``y`` the shrink of
    ``x + u`` and ``u`` the running sum of ``x - y``, each a full array.

    A check that does not stop balances the residuals, at most
    ``PENALTY_CHANGES`` times: ``t`` is halved when
    ``||x - y|| / max(||x||, ||y||)`` exceeds ``BALANCE_RATIO`` times
    ``||y - y_prev|| / ||u||`` and doubled in the opposite case.  The dual
    then scales with ``t``: ``u`` by the factor in K-space, and
    ``q = V^H y - f (V^H y - q)`` in coefficients.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    project = _TwoModeProjection(a, b, params.delta)
    atb = a.conj().T @ b
    mags = _rows_l2(atb) if row_mode else np.abs(atb)
    t = float(np.max(mags)) / project.spectral_norm ** 2
    bound = params.delta + FEASIBILITY_SLACK
    shrink = _soft_rows if row_mode else _soft_entries

    y = np.zeros_like(atb)
    dual = np.zeros_like(y)
    v = project.v
    vy = q = np.zeros_like(project.ub)
    snapshot = y.copy()
    trace = []
    converged = False
    changes = 0
    it = 0
    for it in range(1, params.max_iterations + 1):
        y_prev = y
        if kspace:
            x = project(y - dual)
            y = shrink(x + dual, t)
            dual = dual + x - y
        else:
            g = project.correction(q)
            z = y - v @ g
            x = z - dual
            y = shrink(z.copy(), t)
            dual = z - y
            kept = np.flatnonzero(_rows_l2(y) if row_mode else y)
            vy_next = v[kept].conj().T @ y[kept]
            q = 2 * vy_next - vy + g
            vy = vy_next
        res_norm = np.linalg.norm(b - a @ y)
        obj = float(np.sum(_rows_l2(y))) if row_mode \
            else float(np.sum(np.abs(y)))
        if it % 50 == 0:
            trace.append((it, obj, float(res_norm)))
            change = np.linalg.norm(y - snapshot)
            snapshot = y.copy()
            if res_norm <= bound and change <= params.tolerance * max(np.linalg.norm(y), 1e-300):
                converged = True
                break
            primal = (np.linalg.norm(x - y)
                      / max(np.linalg.norm(x), np.linalg.norm(y), 1e-300))
            dual_res = np.linalg.norm(y - y_prev) / max(np.linalg.norm(dual), 1e-300)
            f = 1.0
            if primal > BALANCE_RATIO * dual_res:
                f = 1.0 / PENALTY_STEP
            elif dual_res > BALANCE_RATIO * primal:
                f = PENALTY_STEP
            if changes < PENALTY_CHANGES and f != 1.0:
                t *= f
                changes += 1
                if kspace:
                    dual = f * dual
                else:
                    q = vy - f * (vy - q)
    return SparseSolution(
        solution=y, iterations=it,
        residual_norm=float(np.linalg.norm(b - a @ y)),
        support=_threshold_support(y, params.support_threshold, row_mode),
        converged=converged, trace=trace)


def _kspace_admm(a, b, params, row_mode):
    return _reference_admm(a, b, params, row_mode, kspace=True)


def _loop_problem(row_mode, noisy, problem):
    """Planted 64 x 12 instance; ``problem`` offsets every seed it draws."""
    a, b, _, _ = planted_instance(seed=31 + problem, n=64, k=12, m=2)
    if row_mode:
        rng = np.random.default_rng(32 + problem)
        x0 = np.zeros((12, 3), dtype=complex)
        x0[[2, 9]] = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        b = a @ x0
    delta = 0.0
    if noisy:
        rng = np.random.default_rng(33 + problem)
        e = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
        e *= 0.05 * np.linalg.norm(b) / np.linalg.norm(e)
        b = b + e
        delta = float(np.linalg.norm(e))
    return a, b, delta


@pytest.mark.parametrize("max_iterations", [50_000, 123])
@pytest.mark.parametrize("problem", [0, 7])
@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("row_mode", [False, True])
class TestLoopMatchesReference:
    def test_bit_identical(self, row_mode, noisy, problem, max_iterations):
        # the solver skips the residual, objective and snapshot work on the
        # iterations that do not check, and runs SMV as one MMV column;
        # neither may move a bit
        a, b, delta = _loop_problem(row_mode, noisy, problem)
        params = SolverParams(delta=delta, max_iterations=max_iterations)
        expected = _reference_admm(a, b, params, row_mode)
        got = (solve_l1_mmv if row_mode else solve_l1_smv)(a, b, params)
        # noiseless runs converge before either cap; the others stop at 123
        assert expected.converged or expected.iterations == max_iterations
        assert np.array_equal(got.solution, expected.solution)
        assert got.solution.tobytes() == expected.solution.tobytes()
        assert got.iterations == expected.iterations
        assert got.residual_norm == expected.residual_norm
        assert got.converged == expected.converged
        assert np.array_equal(got.support, expected.support)
        assert got.trace == expected.trace
        assert [row[0] for row in got.trace] == list(range(50, got.iterations + 1, 50))

    def test_matches_kspace_spelling(self, row_mode, noisy, problem, max_iterations):
        # the coefficient recurrence drops the K-space rounding of x and u
        # (V^H V = I up to rounding), so the solution moves in its last bits
        # only: at most 1.6e-15 relative on these cases when measured
        a, b, delta = _loop_problem(row_mode, noisy, problem)
        params = SolverParams(delta=delta, max_iterations=max_iterations)
        expected = _kspace_admm(a, b, params, row_mode)
        got = (solve_l1_mmv if row_mode else solve_l1_smv)(a, b, params)
        assert got.iterations == expected.iterations
        assert got.converged == expected.converged
        assert np.array_equal(got.support, expected.support)
        assert (np.linalg.norm(got.solution - expected.solution)
                <= 1e-12 * np.linalg.norm(expected.solution))
