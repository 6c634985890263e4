"""Convex sparse-recovery engines.

``solve_l1_smv`` / ``solve_l1_mmv`` run a first-order proximal iteration with
complex soft-thresholding and a running Lagrange-multiplier update.  In the
noiseless case (``delta = 0``) its fixed points satisfy the KKT conditions of
the equality-constrained l1 problem for any positive regularization weight;
with ``delta > 0`` the residual is shrunk onto the delta-ball so fixed points
are feasible for the relaxed problem.  ``brute_force_l0`` is an independent
enumeration oracle for small instances.
"""

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = [
    "SolverParams",
    "SparseSolution",
    "solve_l1_smv",
    "solve_l1_mmv",
    "brute_force_l0",
    "rowsupp",
    "theorem2_error_bound",
]

FEASIBILITY_SLACK = 1e-8
# regularization weight as a fraction of max |A^H b| (row norms in MMV mode)
BETA_FRACTION = 0.05
# step size on the operator rescaled to unit spectral norm, i.e.
# 0.9 / ||A||_2^2 with ||A||_2 from 20 power-iteration steps
STEP_SIZE = 0.9


@dataclass
class SolverParams:
    """Knobs of the proximal iteration."""

    delta: float = 0.0
    max_iterations: int = 50_000
    tolerance: float = 1e-8
    support_threshold: float = 0.1
    trace_every: int = 0

    def __post_init__(self):
        if self.delta < 0:
            raise ConfigurationError("noise radius delta must be nonnegative")
        if not 0 <= self.support_threshold < 1:
            raise ConfigurationError("support threshold must lie in [0, 1)")


@dataclass
class SparseSolution:
    solution: np.ndarray
    iterations: int
    residual_norm: float
    support: np.ndarray
    converged: bool
    merit_violation: float = 0.0
    trace: list = field(default_factory=list)


def _spectral_norm_sq(a: np.ndarray, iterations: int = 20) -> float:
    """Power-iteration estimate of ||A||_2^2 (deterministic start)."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(a.shape[1]) + 1j * rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    ah = a.conj().T
    est = 1.0
    for _ in range(iterations):
        w = ah @ (a @ v)
        est = np.linalg.norm(w)
        if est == 0:
            return 0.0
        v = w / est
    return float(est)


def _soft_entries(x: np.ndarray, t: float) -> np.ndarray:
    """Complex soft threshold in place: shrink magnitude by t, keep phase."""
    mag = np.abs(x)
    scale = np.maximum(0.0, 1.0 - t / np.maximum(mag, 1e-300))
    x *= scale
    return x


def _soft_rows(x: np.ndarray, t: float) -> np.ndarray:
    """Block soft threshold in place: shrink each row's l2 norm by t, keep
    direction."""
    norms = np.linalg.norm(x, axis=1)
    scale = np.maximum(0.0, 1.0 - t / np.maximum(norms, 1e-300))
    x *= scale[:, None]
    return x


def _outside_ball(r: np.ndarray, norm, delta: float) -> np.ndarray:
    """Component of the residual outside the delta-ball (Frobenius norm)."""
    if delta == 0.0:
        return r
    if norm <= delta:
        return np.zeros_like(r)
    return r * (1.0 - delta / norm)


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

    # the adjoint is a conjugated copy of A, as costly as a product: build it
    # once per solve
    ah = a.conj().T
    atb = ah @ b
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

    # r = b - A x holds for the current x throughout: each iteration makes
    # one product with A and one with its adjoint
    r = b - a @ x
    for it in range(1, params.max_iterations + 1):
        checked = it % 50 == 0
        traced = params.trace_every and it % params.trace_every == 0
        if delta or checked or traced:  # with delta = 0 only these read it
            res_norm = np.linalg.norm(r)
        # full residual drives the primal step; the multiplier only accumulates
        # the part outside the delta-ball, so delta = 0 reduces to the pure
        # equality scheme
        r_eff = _outside_ball(r, res_norm, delta)
        # shrink(x + STEP_SIZE * A^H (z + r)), formed in place
        x_new = ah @ (z + r)
        x_new *= STEP_SIZE
        x_new += x
        x_new = shrink(x_new, STEP_SIZE * beta)
        r_new = b - a @ x_new

        if traced:
            obj = float(np.sum(np.linalg.norm(x_new, axis=1))) if row_mode \
                else float(np.sum(np.abs(x_new)))
            trace.append((it, obj, float(res_norm * scale)))
        if checked:
            # descent check of the merit the proximal step minimizes (z fixed)
            before = _merit(r, z, x, beta, row_mode)
            after = _merit(r_new, z, x_new, beta, row_mode)
            merit_violation = max(merit_violation,
                                  (after - before) / max(1.0, abs(before)))
        z += STEP_SIZE * r_eff
        x, r = x_new, r_new
        if checked:
            change = np.linalg.norm(x - snapshot)
            snapshot = x.copy()
            feasible = res_norm <= delta + slack
            if feasible and change <= params.tolerance * max(np.linalg.norm(x), 1e-300):
                converged = True
                break

    return SparseSolution(
        solution=x,
        iterations=it,
        residual_norm=float(np.linalg.norm(r) * scale),
        support=_threshold_support(x, params.support_threshold, row_mode),
        converged=converged,
        merit_violation=float(merit_violation),
        trace=trace,
    )


def _merit(r, z, x, beta, row_mode) -> float:
    """Merit of ``x`` at fixed multiplier ``z``, given ``r = b - A x``."""
    reg = np.sum(np.linalg.norm(x, axis=1)) if row_mode else np.sum(np.abs(x))
    return float(beta * reg + 0.5 * np.linalg.norm(r) ** 2
                 + np.real(np.vdot(z, r)))


def _threshold_support(x, threshold, row_mode):
    mags = np.linalg.norm(x, axis=1) if row_mode else np.abs(x)
    top = mags.max() if mags.size else 0.0
    if top == 0.0:
        return np.array([], dtype=int)
    return np.flatnonzero(mags > threshold * top)


def solve_l1_smv(a, b, params: SolverParams | None = None) -> SparseSolution:
    """min ||x||_1 s.t. ||A x - b||_2 <= delta (delta = 0: equality)."""
    params = params or SolverParams()
    b = np.asarray(b, dtype=complex)
    if b.ndim != 1:
        raise ConfigurationError("SMV data must be a vector")
    return _iterate(a, b, params, row_mode=False)


def solve_l1_mmv(a, b, params: SolverParams | None = None) -> SparseSolution:
    """min sum_i ||X_i.||_2 s.t. ||A X - B||_F <= delta."""
    params = params or SolverParams()
    b = np.asarray(b, dtype=complex)
    if b.ndim != 2 or b.shape[1] < 1:
        raise ConfigurationError("MMV data must be a matrix with >= 1 column")
    return _iterate(a, b, params, row_mode=True)


def rowsupp(x, threshold: float = 0.0) -> np.ndarray:
    """Rows whose l2 norm exceeds ``threshold`` times the largest row norm."""
    if not 0 <= threshold < 1:
        raise ConfigurationError("threshold must lie in [0, 1)")
    x = np.asarray(x)
    return _threshold_support(x[:, None] if x.ndim == 1 else x, threshold, row_mode=True)


def brute_force_l0(a, b, max_support: int = 3, delta: float = 0.0):
    """Exhaustive smallest-support least-squares oracle.

    Enumerates every support of size 0..max_support, solves least squares on
    each, and returns ``(support, coefficients)`` of the smallest feasible
    support (ties broken by residual, then lexicographic support order).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    k = a.shape[1]
    if k > 24:
        raise ConfigurationError("enumeration oracle limited to 24 columns")
    if max_support > 3:
        raise ConfigurationError("enumeration oracle limited to supports of size <= 3")
    feas_tol = delta + 1e-10
    for size in range(0, max_support + 1):
        best = None
        for supp in combinations(range(k), size):
            if size == 0:
                coef = np.zeros(0, dtype=complex)
                resid = float(np.linalg.norm(b))
            else:
                sub = a[:, supp]
                coef, _, _, _ = np.linalg.lstsq(sub, b, rcond=None)
                resid = float(np.linalg.norm(sub @ coef - b))
            if resid <= feas_tol and (best is None or resid < best[0]):
                best = (resid, supp, coef)
        if best is not None:
            _, supp, coef = best
            return np.array(supp, dtype=int), coef
    raise DomainError(
        f"no feasible support of size <= {max_support} at delta = {delta:g}")


def theorem2_error_bound(delta: float, m: int, epsilon: float) -> float:
    """Stability bound delta / sqrt(1 - (M - 1) eps), also the detection floor."""
    if delta < 0:
        raise DomainError("delta must be nonnegative")
    if m < 1:
        raise DomainError("sparsity count must be >= 1")
    if not 0 <= epsilon <= 1:
        raise DomainError("coherence must lie in [0, 1]")
    if (m - 1) * epsilon >= 1:
        raise DomainError("stability hypothesis (M - 1) eps < 1 violated")
    return float(delta / np.sqrt(1.0 - (m - 1) * epsilon))
