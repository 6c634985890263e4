import numpy as np
import pytest

from arrayimg.errors import ConfigurationError, DomainError
from arrayimg.sparse_solvers import (SolverParams, brute_force_l0, rowsupp,
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
        b = theorem2_error_bound(0.3, 4, 0.0)
        assert b.error_bound == pytest.approx(0.3)
        assert b.detection_floor == pytest.approx(0.3)

    def test_zero_delta(self):
        assert theorem2_error_bound(0.0, 4, 0.1).error_bound == 0.0

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
            assert err <= bound.error_bound + 1e-9
            detected = set(np.flatnonzero(np.abs(sol.solution) > 1e-12))
            for j in supp:
                if abs(gamma0[j]) > bound.detection_floor:
                    assert j in detected


class TestOracleAgreement:
    def test_batch_agreement(self):
        # smaller batch here; the acceptance suite runs the full 50
        for seed in range(10):
            a, b, supp, _ = planted_instance(seed=100 + seed, n=128, k=16, m=2)
            sol = solve_l1_smv(a, b)
            oracle_supp, _ = brute_force_l0(a, b, max_support=2)
            assert list(sol.support) == list(oracle_supp)
