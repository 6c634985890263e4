"""Imaging pipelines: two-step SMV/MMV, optimal illuminations, hybrid-l1,
MUSIC and Kirchhoff migration, plus rank selection."""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError
from .greens import SensingMatrix, pairwise_green_matrix
from .foldy_lax import ResponseMatrix
from .sparse_solvers import SolverParams, solve_l1_smv, solve_l1_mmv

SCREEN_FLOOR_REL = 1e-12
RANK_TOL = 1e-8
RANK_THRESHOLD = 0.05  # M~ without a known rank: singular values >= this * sigma_1
# admits the weak-scatterer MUSIC peaks that heavy noise pushes well below
# half height
MUSIC_PEAK_FLOOR = 0.25
PEAK_SEPARATION = 2  # lattice cells (Chebyshev distance) between listed peaks
# least noise-space norm, as a fraction of ||g||: ||g||^2 - ||U^H g||^2 rounds
# off by at most about (N + M~) eps ||g||^2 (6e-14 ||g||^2 at N = 501), under
# 1e-5 of this floor's square, and no shipped column comes within 1,000 times
# of it; MUSIC's image thus spans at most max ||g|| / (floor * min ||g||)
MUSIC_NORM_FLOOR = 1e-4


@dataclass
class ImagingResult:
    """Output of one imaging method over the full grid."""

    support: np.ndarray       # sorted grid indices
    reflectivity: np.ndarray  # (K,) complex; nonzero on support
    image: np.ndarray         # (K,) nonnegative values
    # the l1 solve, as TrialReport's fields; empty for a method without one
    diagnostics: dict = field(default_factory=dict)
    screened: list = field(default_factory=list)  # step-two NaN components


def select_rank(resp: ResponseMatrix, known_m: int | None = None) -> int:
    """Signal-space dimension M~ of ``resp``: ``known_m`` when given, else the
    ``RANK_THRESHOLD`` rule on sigma_1."""
    # a known rank reads the top values only; the threshold, and the error for
    # a known rank below one, read the whole spectrum
    _, sv, _ = resp.svd(known_m if known_m and known_m > 0 else None)
    if sv.size == 0:
        raise ConfigurationError("empty singular value list")
    if sv[0] <= 0:
        raise ConfigurationError("zero response matrix has no signal subspace")
    if known_m is not None:
        if not 1 <= known_m <= sv.size:
            raise ConfigurationError(f"known rank {known_m} outside [1, {sv.size}]")
        return int(known_m)
    return int(np.sum(sv >= RANK_THRESHOLD * sv[0]))


def _diagnostics(sol) -> dict:
    return {"iterations": sol.iterations, "residual": sol.residual_norm,
            "converged": sol.converged}


def reflectivities_from_sources(sol, illuminations, sensing: SensingMatrix) -> ImagingResult:
    """Step two on the step-one solution ``sol``, one column per illumination:
    rebuild the exciting fields on the support for every column in one product
    and divide them out.  An entry whose field is below ``1e-12 * ||f_j||`` is
    screened, never divided; a component is the mean over its unscreened
    columns, and one screened in every column is NaN and listed in ``screened``.
    """
    support = sol.support
    gamma = sol.solution.reshape(sensing.k, -1)[support]
    f = np.asarray(illuminations, dtype=complex)
    pair = pairwise_green_matrix(sensing.window.points[support], sensing.ctx)
    exciting = sensing.matrix[:, support].T @ f + pair @ gamma
    screened = np.abs(exciting) < SCREEN_FLOOR_REL * np.linalg.norm(f, axis=0)
    quotients = np.zeros_like(gamma)
    quotients[~screened] = gamma[~screened] / exciting[~screened]
    count = np.count_nonzero(~screened, axis=1)
    lost = count == 0
    reflectivity = np.zeros(sensing.k, dtype=complex)
    reflectivity[support[lost]] = complex(np.nan, np.nan)
    reflectivity[support[~lost]] = quotients.sum(axis=1)[~lost] / count[~lost]
    return ImagingResult(support=np.sort(support), reflectivity=reflectivity,
                         image=np.abs(np.nan_to_num(reflectivity)),
                         diagnostics=_diagnostics(sol), screened=support[lost].tolist())


def image_smv(b, illumination, sensing: SensingMatrix,
              params: SolverParams | None = None) -> ImagingResult:
    """Two-step single-illumination reconstruction.

    Step one recovers the effective source vector by l1 minimization; step
    two rebuilds the exciting fields on the recovered support and divides
    them out to obtain reflectivities.  Components whose exciting field
    falls below ``1e-12 * ||f||`` are flagged as screened (reflectivity NaN,
    never silently assigned).
    """
    f = np.asarray(illumination, dtype=complex)[:, None]
    sol = solve_l1_smv(sensing.matrix, b, params)
    return reflectivities_from_sources(sol, f, sensing)


def image_mmv(data, illuminations, sensing: SensingMatrix,
              params: SolverParams | None = None) -> ImagingResult:
    """Joint-sparsity reconstruction from multiple illuminations.

    Reflectivities are estimated per illumination on the common row support
    and averaged, skipping illuminations in which the component is screened.
    """
    b = np.asarray(data, dtype=complex)
    f = np.asarray(illuminations, dtype=complex)
    if b.shape[1:] != f.shape[1:]:
        raise ValueError("data and illumination column counts differ")
    sol = solve_l1_mmv(sensing.matrix, b, params)
    return reflectivities_from_sources(sol, f, sensing)


def optimal_illuminations(resp: ResponseMatrix, count: int) -> np.ndarray:
    """Top right singular vectors of the response matrix, as columns."""
    # the error's rank counts the top values alone: every later one is smaller
    _, s, vh = resp.svd(count if count >= 1 else None)
    if 1 <= count <= s.size and s[count - 1] > RANK_TOL * s[0]:
        return vh.conj().T
    rank = int(np.sum(s > RANK_TOL * s[0])) if s[0] > 0 else 0
    raise ConfigurationError(
        f"requested {count} illuminations but numerical rank is {rank}")


def build_hybrid_system(resp: ResponseMatrix, sensing: SensingMatrix,
                        m_tilde: int) -> tuple[np.ndarray, np.ndarray]:
    """Project singular-vector data onto the left singular subspace.

    Returns the reduced ``(M~, K)`` matrix, whose row ``i`` at column ``j``
    is ``conj(g0*(y_j) U_i) * (g0^T(y_j) V_i)``, and the right side, the
    ``(M~,)`` vector of retained singular values.
    """
    if not 1 <= m_tilde <= resp.n:
        raise ConfigurationError(f"rank {m_tilde} outside [1, {resp.n}]")
    un, s, vh = resp.svd(m_tilde)
    vn = vh.conj().T
    g = sensing.matrix
    mat = (un.conj().T @ g) * (vn.T @ g)
    return mat, s.astype(complex)


def image_hybrid_l1(resp: ResponseMatrix, sensing: SensingMatrix,
                    params: SolverParams | None = None, *, m_tilde: int,
                    delta_fraction: float = 0.0) -> ImagingResult:
    """Single-step l1 recovery on the SVD-reduced system (Born regime).

    The constraint radius is ``delta_fraction * ||sigma||_2`` alone (the caller's
    ``params.delta`` is not read); zero requests the equality-constrained problem.
    """
    params = params or SolverParams()
    mat, rhs = build_hybrid_system(resp, sensing, m_tilde)
    delta_h = delta_fraction * float(np.linalg.norm(rhs))
    sol = solve_l1_smv(mat, rhs, replace(params, delta=delta_h))
    support = sol.support
    reflectivity = np.zeros(sensing.k, dtype=complex)
    reflectivity[support] = sol.solution[support]
    return ImagingResult(support=np.sort(support), reflectivity=reflectivity,
                         image=np.abs(reflectivity),
                         diagnostics=_diagnostics(sol))


def _local_maxima(values: np.ndarray, rows: int, cols: int, count: int,
                  floor_fraction: float = 0.5):
    """Top lattice peaks: 4-neighbor maxima, descending, separation-limited."""
    grid = values.reshape(rows, cols)
    top = grid.max()
    if top <= 0:
        return np.array([], dtype=int)
    peak = grid > floor_fraction * top
    peak[1:, :] &= ~(grid[:-1, :] > grid[1:, :])
    peak[:-1, :] &= ~(grid[1:, :] > grid[:-1, :])
    peak[:, 1:] &= ~(grid[:, :-1] > grid[:, 1:])
    peak[:, :-1] &= ~(grid[:, 1:] > grid[:, :-1])
    rs, cs = np.nonzero(peak)  # row-major, so a stable sort breaks ties by (row, col)
    order = np.argsort(-grid[rs, cs], kind="stable")
    picked = []
    for r, c in zip(rs[order].tolist(), cs[order].tolist()):
        if len(picked) >= count:
            break
        if all(max(abs(r - pr), abs(c - pc)) >= PEAK_SEPARATION for pr, pc in picked):
            picked.append((r, c))
    return np.sort(np.array([r * cols + c for r, c in picked], dtype=int))


def _noise_space_norms(un: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Column norms of (I - U U^H) g for orthonormal U, from the identity
    ||(I - U U^H) g||^2 = ||g||^2 - ||U^H g||^2, which forms only the
    ``(M~, K)`` coefficients U^H g and no ``(N, K)`` temporary.  Each norm is
    floored at ``MUSIC_NORM_FLOOR * ||g||``, above the identity's round-off."""
    coef = un.conj().T @ g
    energy = np.einsum("ij,ij->j", g.real, g.real) + np.einsum("ij,ij->j", g.imag, g.imag)
    squares = energy - (coef.real ** 2 + coef.imag ** 2).sum(axis=0)
    return np.sqrt(np.maximum(squares, MUSIC_NORM_FLOOR ** 2 * energy))


def image_music(resp: ResponseMatrix, sensing: SensingMatrix,
                m_tilde: int) -> ImagingResult:
    """Noise-subspace projection functional, normalized to peak at one.

    Peaks are 4-neighbor local maxima above ``MUSIC_PEAK_FLOOR`` times the
    global maximum, separation-limited and capped at the signal rank.
    """
    if not 1 <= m_tilde <= resp.n:
        raise ConfigurationError(f"rank {m_tilde} outside [1, {resp.n}]")
    un, _, _ = resp.svd(m_tilde)
    norms = _noise_space_norms(un, sensing.matrix)
    functional = norms.min() / norms
    window = sensing.window
    support = _local_maxima(functional, window.rows, window.cols, m_tilde,
                            floor_fraction=MUSIC_PEAK_FLOOR)
    return ImagingResult(support=support,
                         reflectivity=np.zeros(sensing.k, dtype=complex),
                         image=functional)


def image_km(data, illuminations, sensing: SensingMatrix,
             peak_count: int) -> ImagingResult:
    """Kirchhoff migration image: the backpropagation conj(g0^T(y) f) *
    (g0*(y) b) per grid point, summed coherently over the illumination columns.

    ``data``/``illuminations`` are matching-column matrices.  The grid stores
    magnitudes; the support lists up to ``peak_count`` of its peaks.
    """
    b = np.asarray(data, dtype=complex)
    f = np.asarray(illuminations, dtype=complex)
    if b.shape[1:] != f.shape[1:]:
        raise ValueError("data and illumination column counts differ")
    g = sensing.matrix
    # conj(g^T f) * (g^H b) is the conjugate of (g^T f) * (g^T conj(b)), whose
    # magnitude is the same: so only b is conjugated, not the (N, K) matrix g
    magnitudes = np.abs(np.sum((g.T @ f) * (g.T @ b.conj()), axis=1))
    window = sensing.window
    return ImagingResult(support=_local_maxima(magnitudes, window.rows, window.cols,
                                               peak_count),
                         reflectivity=np.zeros(sensing.k, dtype=complex),
                         image=magnitudes)
