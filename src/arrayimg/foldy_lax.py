"""Forward model: exciting fields, Foldy-Lax and Born response matrices."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, ResonanceError
from .geometry import ReflectivityVector
from .greens import SensingMatrix, pairwise_green_matrix

CONDITION_CAP = 1e8
# range finder of ResponseMatrix.svd: sketch columns beyond the k requested,
# the fixed seed of its Gaussian test matrix (never a scenario seed), and the
# relative residual ||P - Q Q^H P||_F / ||P||_F below which its basis is kept
SKETCH_OVERSAMPLING = 10
SKETCH_SEED = 2011
SKETCH_CERTIFICATE = 1e-12


@dataclass
class ResponseMatrix:
    """N x N inter-element transfer matrix with a lazily cached SVD."""

    matrix: np.ndarray
    provenance: str  # "foldy-lax" | "born" | "random-medium"
    seed: int | None = None
    _svd: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def svd(self, k: int | None = None):
        """Top-``k`` triplets ``(U[:, :k], sigma[:k], Vh[:k])``, descending, or
        all of them when ``k`` is None or at least ``n``.  Cached in ``_svd``;
        a request for more triplets than the cache holds recomputes."""
        if k is not None and k < 0:
            raise ConfigurationError(f"number of singular triplets k = {k} is negative")
        k = self.n if k is None else min(k, self.n)
        if self._svd is None or self._svd[1].size < k:
            self._svd = _top_svd(self.matrix, k)
        u, s, vh = self._svd
        return self._svd if s.size == k else (u[:, :k], s[:k], vh[:k])


def _top_svd(p: np.ndarray, k: int):
    """Top-``k`` SVD triplets of ``p`` from a seeded randomized range finder
    with one power step (Halko, Martinsson & Tropp, SIAM Rev. 53, 2011).

    The basis Q of the sketch is kept only if ``||P - Q Q^H P||_F`` is at most
    ``SKETCH_CERTIFICATE * ||P||_F``; otherwise, or when the sketch would
    span the whole space, Q = I, which is ``np.linalg.svd(p)`` with every
    triplet.
    """
    width = k + SKETCH_OVERSAMPLING
    if width < min(p.shape):
        omega = np.random.default_rng(SKETCH_SEED).standard_normal((p.shape[1], width))
        q = np.linalg.qr(p @ omega)[0]
        # P^H Q as conj(P^T conj(Q)), so that only the thin Q is conjugated
        q = np.linalg.qr(p @ np.conj(p.T @ q.conj()))[0]
        b = q.conj().T @ p
        if np.linalg.norm(p - q @ b) <= SKETCH_CERTIFICATE * np.linalg.norm(p):
            ub, s, vh = np.linalg.svd(b, full_matrices=False)
            return q @ ub[:, :k], s[:k], vh[:k]
    return np.linalg.svd(p, full_matrices=False)


def foldy_lax_matrix(reflectivities, greens) -> np.ndarray:
    """Foldy-Lax system matrix Z from reflectivities and pairwise Green's values.

    Works for the support-restricted M x M variant (``reflectivities`` are the
    nonzero alphas) and the full-grid K x K variant alike: entry ``(i, j)`` is
    ``1`` on the diagonal and ``-reflectivities[j] * greens[i, j]`` off it.
    """
    alphas = np.asarray(reflectivities, dtype=complex)
    g = np.asarray(greens, dtype=complex)
    m = alphas.size
    if g.shape != (m, m):
        raise ValueError("pairwise Green's matrix does not match reflectivity count")
    z = -g * alphas[None, :]
    np.fill_diagonal(z, 1.0)
    return z


def solve_exciting_fields(z: np.ndarray, incident: np.ndarray) -> np.ndarray:
    """Solve Z * Phi_e = Phi_inc (one column per illumination) by a dense
    direct solve; a 2-norm condition number above ``CONDITION_CAP`` raises."""
    incident = np.asarray(incident, dtype=complex)
    if incident.shape[0] != z.shape[0]:
        raise ValueError("incident field length does not match system size")
    if z.size == 0:
        return incident.copy()
    cond = np.linalg.cond(z)
    if not np.isfinite(cond) or cond > CONDITION_CAP:
        raise ResonanceError(
            f"Foldy-Lax system is near-resonant (cond ~ {cond:.3e} > {CONDITION_CAP:.1e})")
    return np.linalg.solve(z, incident)


def _support_system(sensing: SensingMatrix, rho: ReflectivityVector):
    support = rho.support
    alphas = rho.values[support]
    points = sensing.window.points[support]
    g_sub = sensing.matrix[:, support]
    greens = pairwise_green_matrix(points, sensing.ctx)
    return support, alphas, g_sub, foldy_lax_matrix(alphas, greens)


def response_matrix_foldy_lax(sensing: SensingMatrix, rho: ReflectivityVector) -> ResponseMatrix:
    """Full multiple-scattering response, computed on the scatterer support."""
    _, alphas, g_sub, z = _support_system(sensing, rho)
    # P = G diag(alpha) Z^{-1} G^T restricted to the support columns; column
    # j of Z^{-1} G^T holds the exciting fields of element j's illumination
    inner = solve_exciting_fields(z, g_sub.T)  # (M, N)
    mat = (g_sub * alphas[None, :]) @ inner
    return ResponseMatrix(matrix=mat, provenance="foldy-lax")


def response_matrix_born(sensing: SensingMatrix, rho: ReflectivityVector) -> ResponseMatrix:
    """Single-scattering (Born) response: G diag(rho) G^T."""
    support = rho.support
    g_sub = sensing.matrix[:, support]
    alphas = rho.values[support]
    mat = (g_sub * alphas[None, :]) @ g_sub.T
    return ResponseMatrix(matrix=mat, provenance="born")


def effective_source_vector(sensing: SensingMatrix, rho: ReflectivityVector,
                            illumination: np.ndarray) -> np.ndarray:
    """Ground-truth effective sources diag(rho) Z^{-1} G^T f on the full grid, (K,)."""
    f = np.asarray(illumination, dtype=complex)
    if f.shape[0] != sensing.n:
        raise ValueError("illumination length does not match transducer count")
    values = np.zeros(sensing.k, dtype=complex)
    support, alphas, g_sub, z = _support_system(sensing, rho)
    values[support] = alphas * solve_exciting_fields(z, g_sub.T @ f)
    return values


def multiple_scattering_ratio(rho: ReflectivityVector, illumination: np.ndarray,
                              sensing: SensingMatrix) -> float:
    """Multiple-over-single scattering data ratio ||(P - Pi) f|| / ||Pi f||,
    with P f = G gamma from the effective sources gamma and Pi f = G (rho o G^T f)."""
    g = sensing.matrix
    full = g @ effective_source_vector(sensing, rho, illumination)
    single = g @ (rho.values * (g.T @ np.asarray(illumination, dtype=complex)))
    denom = np.linalg.norm(single)
    if denom == 0:
        raise DomainError("single-scattering field is zero; ratio undefined")
    return float(np.linalg.norm(full - single) / denom)
