"""Convex sparse-recovery engines.

``solve_l1_mmv`` solves ``min sum_i ||X_i.||_2`` s.t. ``||A X - B||_F <= delta``
with two-block ADMM (Boyd et al., *Found. Trends Mach. Learn.* 3, 2011): ``x``
is the exact projection of ``y - u`` onto the constraint set, ``y`` the row
soft threshold of ``x + u`` and ``u`` the running sum of ``x - y``.  With
``A = U S V^H``, every projection is ``x = p - V g`` for an ``(r, J)``
correction ``g`` that depends on ``p`` only through ``V^H p``.  So
``x + u = y - V g``, the new dual is ``u' = y - V g - y'``, and the next
projection needs only ``V^H (y' - u') = 2 V^H y' - V^H y + g``: the loop keeps
``y`` and those coefficients, and never forms ``x`` or ``u``.  An iteration
makes one product ``V g`` and one ``V^H y'`` on the rows the threshold keeps.
``solve_l1_smv`` (``min ||x||_1``) is its one-column case, bit for bit.

The threshold ``t`` is ADMM's penalty ``1/rho``.  It adapts by normalized
residual balancing (Boyd et al. 2011, section 3.4.1, with the relative
residuals of Wohlberg, arXiv:1704.06209): at a 50-iteration check that does not
stop, ``t`` is halved when the relative primal residual exceeds
``BALANCE_RATIO`` times the relative dual residual and doubled in the opposite
case.  The scaled dual ``u = t lambda`` then becomes ``f u``, so the recurrence
moves to ``V^H y - f (V^H y - V^H (y - u))``.  After ``PENALTY_CHANGES``
changes ``t`` stays fixed, as ADMM's convergence with a varying penalty needs
(He, Yang & Wang, *J. Optim. Theory Appl.* 106, 2000).
``brute_force_l0`` is an independent enumeration oracle for small instances.
"""

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import ConfigurationError, DomainError

FEASIBILITY_SLACK = 1e-8  # of ||b||_F: the stopping test is free of the data scale
# numerical rank: a singular value at or below this fraction of s_1 counts as
# zero, both in the projection, since the shipped sensing matrices are
# numerically rank deficient (fig2's A A^H has a condition number of about
# 8e16), and in the response matrix's count of optimal illuminations
RANK_TOL = 1e-8
# residual balancing: t moves by PENALTY_STEP when one relative residual is
# BALANCE_RATIO times the other, at most PENALTY_CHANGES times per solve
BALANCE_RATIO = 10.0
PENALTY_STEP = 2.0
PENALTY_CHANGES = 5


@dataclass
class SolverParams:
    """Knobs of the l1 solve."""

    delta: float = 0.0
    max_iterations: int = 50_000
    tolerance: float = 1e-8
    support_threshold: float = 0.1

    def __post_init__(self):
        # written so that NaN fails every check
        if not self.delta >= 0:
            raise ConfigurationError("noise radius delta must be nonnegative")
        if not self.max_iterations >= 1:
            raise ConfigurationError("max_iterations must be >= 1")
        if not self.tolerance > 0:
            raise ConfigurationError("tolerance must be > 0")
        if not 0 <= self.support_threshold < 1:
            raise ConfigurationError("support threshold must lie in [0, 1)")


@dataclass
class SparseSolution:
    solution: np.ndarray
    iterations: int
    residual_norm: float
    support: np.ndarray  # ascending row indices
    converged: bool
    trace: list = field(default_factory=list)  # (iteration, objective, residual) per check


def _row_norms(x: np.ndarray) -> np.ndarray:
    """l2 norm of each row of a ``(K, J)`` array; with one column, the modulus."""
    if x.shape[1] == 1:
        return np.abs(x[:, 0])
    re_im = x.view(float)  # (K, 2J): one einsum beats a reduction over short rows
    return np.sqrt(np.einsum("ij,ij->i", re_im, re_im))


def _shrink(x: np.ndarray, t: float) -> np.ndarray:
    """Block soft threshold in place: shrink each row's l2 norm by t, keep
    direction (with one column, the complex soft threshold).  Returns the
    indices of the rows left nonzero."""
    scale = np.maximum(0.0, 1.0 - t / np.maximum(_row_norms(x), 1e-300))
    x *= scale[:, None]
    return (scale > 0).nonzero()[0]


class _BallProjection:
    """Exact projection onto ``{x : ||A x - b||_F <= delta}``, ``b`` (N, J), in
    the coefficients of ``A``'s right singular vectors.

    With the thin SVD ``A = U S V^H`` (singular values at or below ``RANK_TOL``
    times the largest dropped), ``x = V c + x_perp`` and the constraint reads
    ``||S c - U^H b||^2 <= delta^2 - ||b_perp||^2``; only ``c`` moves, so the
    projection of ``p`` is ``p - V g`` with ``g = correction(V^H p)``.  For
    ``delta = 0`` (or a radius that ``b_perp`` alone exhausts) ``c`` is the
    least-squares ``S^{-1} U^H b``; otherwise it solves
    ``(I + lam S^2) c = V^H p + lam S U^H b`` with the scalar multiplier
    ``lam`` set by Newton steps on ``1/||S c - U^H b|| - 1/radius``, and a
    point already inside gets ``g = 0``.
    """

    def __init__(self, a, b, delta):
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        self.spectral_norm = float(s[0])
        keep = s > RANK_TOL * s[0]
        u, s = u[:, keep], s[keep]
        self.v = np.ascontiguousarray(vh[keep].conj().T)
        self.s = s[:, None]
        self.s_sq = s ** 2
        self.ub = u.conj().T @ b
        outside_sq = np.linalg.norm(b - u @ self.ub) ** 2
        self.radius = float(np.sqrt(max(delta ** 2 - outside_sq, 0.0)))
        self.lam = 0.0  # warm start: the multiplier moves little between calls

    def correction(self, q: np.ndarray) -> np.ndarray:
        """The ``(r, J)`` correction ``g`` for ``q = V^H p``."""
        if self.radius == 0.0:
            return q - self.ub / self.s
        w = self.s * q - self.ub
        w_sq = (np.abs(w) ** 2).sum(axis=1)
        if w_sq.sum() <= self.radius ** 2:
            return np.zeros_like(q)
        s_sq = self.s_sq
        lam = self.lam
        for _ in range(60):
            d = 1.0 + lam * s_sq
            norm = np.sqrt((w_sq / d ** 2).sum())
            if abs(norm - self.radius) <= 1e-12 * self.radius:
                break
            # 1/norm is concave in lam, so Newton steps from below the root
            # rise to it monotonically; a step from above lands below, and a
            # negative multiplier is clipped to 0, which also lies below
            slope = (w_sq * s_sq / d ** 3).sum() / norm ** 3
            lam = max(lam - (1.0 / norm - 1.0 / self.radius) / slope, 0.0)
        self.lam = lam
        return lam * self.s * w / (1.0 + lam * self.s ** 2)


def _penalty_factor(z_prev, y_prev, z, y) -> float:
    """The factor for ``t`` at a check: ``z`` is the pre-shrink ``x + u`` and
    ``y`` the shrunk iterate of the check iteration, ``z_prev`` and ``y_prev``
    those of the iteration before.  The primal residual ``x - y`` is taken
    relative to ``max(||x||, ||y||)``, the dual residual ``y - y_prev``
    relative to the scaled dual ``||u||``; both ratios are free of ``t``."""
    x = z - (z_prev - y_prev)
    primal = np.linalg.norm(x - y) / max(np.linalg.norm(x), np.linalg.norm(y), 1e-300)
    dual = np.linalg.norm(y - y_prev) / max(np.linalg.norm(z - y), 1e-300)
    if primal > BALANCE_RATIO * dual:
        return 1.0 / PENALTY_STEP
    if dual > BALANCE_RATIO * primal:
        return PENALTY_STEP
    return 1.0


def _iterate(a, b, params: SolverParams) -> SparseSolution:
    """The ADMM loop on ``(N, J)`` data ``b``; SMV is the case J = 1.

    The soft threshold starts at ``max_i ||(A^H b)_i.|| / ||A||_2^2``, the
    largest row norm of ``A^H b`` (the modulus for one column) of the operator
    rescaled to unit spectral norm.  A check that does not stop may halve or
    double it by ``_penalty_factor``, at most ``PENALTY_CHANGES`` times; the
    two iterations that end at a check keep a copy of their pre-shrink array.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or np.all(a == 0):
        raise ConfigurationError("system matrix must be a nonzero 2-D array")
    if b.shape[0] != a.shape[0]:
        raise ValueError("data length does not match matrix rows")

    project = _BallProjection(a, b, params.delta)
    atb = a.conj().T @ b
    t = float(np.max(_row_norms(atb))) / project.spectral_norm ** 2
    bound = params.delta + FEASIBILITY_SLACK * float(np.linalg.norm(b))

    y = np.zeros_like(atb)
    if t == 0.0:  # A^H b identically zero: y = 0 is stationary
        res_norm = float(np.linalg.norm(b))
        return SparseSolution(
            solution=y, iterations=0, residual_norm=res_norm,
            support=_threshold_support(y, params.support_threshold),
            converged=res_norm <= bound)

    v = project.v
    vy = np.zeros_like(project.ub)  # V^H y
    q = vy                          # V^H (y - u)
    snapshot = y  # 50-iteration windows; a shrink writes only the y just made
    trace = []
    converged = False
    changes = 0
    z = None
    it = 0
    for it in range(1, params.max_iterations + 1):
        g = project.correction(q)
        y_prev = y
        y = y - v @ g  # x + u
        if changes < PENALTY_CHANGES and it % 50 in (49, 0):
            z_prev, z = z, y.copy()  # the shrink below works in place
        kept = _shrink(y, t)
        vy_next = v[kept].conj().T @ y[kept]
        q = 2 * vy_next - vy + g
        vy = vy_next

        if it % 50:  # the check: the stopping test and one trace row
            continue
        res_norm = np.linalg.norm(b - a @ y)
        trace.append((it, float(np.sum(_row_norms(y))), float(res_norm)))
        change = np.linalg.norm(y - snapshot)
        snapshot = y
        if res_norm <= bound and change <= params.tolerance * max(np.linalg.norm(y), 1e-300):
            converged = True
            break
        if changes < PENALTY_CHANGES:
            f = _penalty_factor(z_prev, y_prev, z, y)
            if f != 1.0:  # the scaled dual u becomes f u
                t *= f
                q = vy - f * (vy - q)
                changes += 1

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
        raise ValueError("SMV data must be a vector")
    sol = _iterate(a, b[:, None], params or SolverParams())
    sol.solution = sol.solution[:, 0]
    return sol


def solve_l1_mmv(a, b, params: SolverParams | None = None) -> SparseSolution:
    """min sum_i ||X_i.||_2 s.t. ||A X - B||_F <= delta."""
    b = np.asarray(b, dtype=complex)
    if b.ndim != 2 or b.shape[1] < 1:
        raise ValueError("MMV data must be a matrix with >= 1 column")
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
    if not 0 <= delta < np.inf:
        raise DomainError("delta must be nonnegative and finite")
    if not 1 <= m < np.inf:
        raise DomainError("sparsity count must be finite and >= 1")
    if not 0 <= epsilon <= 1:
        raise DomainError("coherence must lie in [0, 1]")
    if (m - 1) * epsilon >= 1:
        raise DomainError("stability hypothesis (M - 1) eps < 1 violated")
    return float(delta / np.sqrt(1.0 - (m - 1) * epsilon))
