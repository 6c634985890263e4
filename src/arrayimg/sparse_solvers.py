"""Convex sparse-recovery engines.

``solve_l1_mmv`` solves ``min sum_i ||X_i.||_2`` s.t. ``||A X - B||_F <= delta``
with two-block ADMM (Boyd et al., *Found. Trends Mach. Learn.* 3, 2011): ``x``
is the exact projection of ``y - u`` onto the constraint set, ``y`` the row
soft threshold of ``x + u`` and ``u`` the running sum of ``x - y``.
``solve_l1_smv`` (``min ||x||_1``) is its one-column case, bit for bit.
``brute_force_l0`` is an independent enumeration oracle for small instances.
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
    "theorem2_error_bound",
]

FEASIBILITY_SLACK = 1e-8
# singular values below this fraction of s_1 are dropped from the projection:
# the shipped sensing matrices are numerically rank deficient (fig2's A A^H
# has a condition number of about 8e16)
SVD_RCOND = 1e-8


@dataclass
class SolverParams:
    """Knobs of the l1 solve."""

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
    trace: list = field(default_factory=list)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """l2 norm of each row of a ``(K, J)`` array; with one column, the modulus."""
    return np.abs(x[:, 0]) if x.shape[1] == 1 else np.linalg.norm(x, axis=1)


def _shrink(x: np.ndarray, t: float) -> np.ndarray:
    """Block soft threshold in place: shrink each row's l2 norm by t, keep
    direction (with one column, the complex soft threshold)."""
    scale = np.maximum(0.0, 1.0 - t / np.maximum(_row_norms(x), 1e-300))
    x *= scale[:, None]
    return x


class _BallProjection:
    """Exact projection onto ``{x : ||A x - b||_F <= delta}``, ``b`` (N, J).

    With the thin SVD ``A = U S V^H`` (singular values below ``SVD_RCOND``
    times the largest dropped), ``x = V c + x_perp`` and the constraint reads
    ``||S c - U^H b||^2 <= delta^2 - ||b_perp||^2``; only ``c`` moves, so a
    projection makes the two products ``V^H p`` and ``V dc``.  For
    ``delta = 0`` (or a radius that ``b_perp`` alone exhausts) ``c`` is the
    least-squares ``S^{-1} U^H b``; otherwise it solves
    ``(I + lam S^2) c = V^H p + lam S U^H b`` with the scalar multiplier
    ``lam`` set by Newton steps on ``1/||S c - U^H b|| - 1/radius``.
    """

    def __init__(self, a, b, delta):
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        self.spectral_norm = float(s[0])
        keep = s > SVD_RCOND * s[0]
        u, s, vh = u[:, keep], s[keep], vh[keep]
        self.vh = vh
        self.v = np.ascontiguousarray(vh.conj().T)
        self.s = s[:, None]
        self.ub = u.conj().T @ b
        outside_sq = np.linalg.norm(b - u @ self.ub) ** 2
        self.radius = float(np.sqrt(max(delta ** 2 - outside_sq, 0.0)))
        self.lam = 0.0  # warm start: the multiplier moves little between calls

    def __call__(self, p: np.ndarray) -> np.ndarray:
        """Project ``p`` in place; a point already inside is left as it is."""
        q = self.vh @ p
        if self.radius == 0.0:
            p += self.v @ (self.ub / self.s - q)
            return p
        w = self.s * q - self.ub
        w_sq = np.sum(np.abs(w) ** 2, axis=1)
        if w_sq.sum() <= self.radius ** 2:
            return p
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
        p -= self.v @ (lam * self.s * w / (1.0 + lam * self.s ** 2))
        return p


def _iterate(a, b, params: SolverParams) -> SparseSolution:
    """The ADMM loop on ``(N, J)`` data ``b``; SMV is the case J = 1.

    The soft threshold is fixed at ``max_i ||(A^H b)_i.|| / ||A||_2^2``, the
    largest row norm of ``A^H b`` (the modulus for one column) of the operator
    rescaled to unit spectral norm.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or np.all(a == 0):
        raise ConfigurationError("system matrix must be a nonzero 2-D array")
    if b.shape[0] != a.shape[0]:
        raise ConfigurationError("data length does not match matrix rows")

    project = _BallProjection(a, b, params.delta)
    atb = a.conj().T @ b
    t = float(np.max(_row_norms(atb))) / project.spectral_norm ** 2
    bound = params.delta + FEASIBILITY_SLACK

    y = np.zeros_like(atb)
    if t == 0.0:  # A^H b identically zero: y = 0 is stationary
        res_norm = float(np.linalg.norm(b))
        return SparseSolution(
            solution=y, iterations=0, residual_norm=res_norm,
            support=_threshold_support(y, params.support_threshold),
            converged=res_norm <= bound)

    dual = np.zeros_like(y)
    snapshot = y.copy()  # convergence is judged on 50-iteration windows
    trace = []
    converged = False
    it = 0
    for it in range(1, params.max_iterations + 1):
        x = project(y - dual)
        y = _shrink(x + dual, t)
        dual += x
        dual -= y

        checked = it % 50 == 0
        traced = params.trace_every and it % params.trace_every == 0
        if not (checked or traced):
            continue
        res_norm = np.linalg.norm(b - a @ y)
        if traced:
            trace.append((it, float(np.sum(_row_norms(y))), float(res_norm)))
        if checked:
            change = np.linalg.norm(y - snapshot)
            snapshot = y.copy()
            if res_norm <= bound and change <= params.tolerance * max(np.linalg.norm(y), 1e-300):
                converged = True
                break

    res_norm = float(np.linalg.norm(b - a @ y))
    return SparseSolution(
        solution=y,
        iterations=it,
        residual_norm=res_norm,
        support=_threshold_support(y, params.support_threshold),
        converged=converged,
        trace=trace,
    )


def _threshold_support(x, threshold):
    mags = _row_norms(x)
    top = mags.max() if mags.size else 0.0
    if top == 0.0:
        return np.array([], dtype=int)
    return np.flatnonzero(mags > threshold * top)


def solve_l1_smv(a, b, params: SolverParams | None = None) -> SparseSolution:
    """min ||x||_1 s.t. ||A x - b||_2 <= delta (delta = 0: equality), solved
    as the one-column MMV; the solution is ``(K,)``."""
    b = np.asarray(b, dtype=complex)
    if b.ndim != 1:
        raise ConfigurationError("SMV data must be a vector")
    sol = _iterate(a, b[:, None], params or SolverParams())
    sol.solution = sol.solution[:, 0]
    return sol


def solve_l1_mmv(a, b, params: SolverParams | None = None) -> SparseSolution:
    """min sum_i ||X_i.||_2 s.t. ||A X - B||_F <= delta."""
    b = np.asarray(b, dtype=complex)
    if b.ndim != 2 or b.shape[1] < 1:
        raise ConfigurationError("MMV data must be a matrix with >= 1 column")
    return _iterate(a, b, params or SolverParams())


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
