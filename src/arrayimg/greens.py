"""Homogeneous Green's function, sensing matrix and coherence diagnostics."""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import ArrayGeometry, ImageWindow, WaveContext, _readonly

_COINCIDENCE_TOL = 1e-14
# columns per block of the coherence scan, so the K x K Gram matrix of a
# large grid is never materialized at once
COHERENCE_BLOCK = 4096


@dataclass(frozen=True)
class SensingMatrix:
    """N x K matrix whose column j is the Green's vector at grid point j."""

    matrix: np.ndarray  # (N, K) complex
    geom: ArrayGeometry
    window: ImageWindow
    ctx: WaveContext

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def k(self) -> int:
        return self.matrix.shape[1]


def _green(sources, targets, ctx: WaveContext, pairwise: bool = False) -> np.ndarray:
    """Kernel exp(i*kappa*r) / (4*pi*r) from every source point to every
    target point, shape ``(len(sources), len(targets))``.

    ``pairwise`` marks ``targets`` as ``sources`` itself: the self pairs on
    the diagonal are skipped by the coincidence check and set to zero.
    """
    sources = np.asarray(sources, dtype=float).reshape(-1, 2)
    targets = np.asarray(targets, dtype=float).reshape(-1, 2)
    r = np.linalg.norm(sources[:, None, :] - targets[None, :, :], axis=2)
    if pairwise:
        np.fill_diagonal(r, 1.0)
    close = r <= _COINCIDENCE_TOL
    if close.any():
        i, j = np.argwhere(close)[0]
        raise DomainError(f"source {i} coincides with target {j} "
                          "(Green's function singularity)")
    g = np.exp(1j * ctx.wavenumber * r) / (4.0 * np.pi * r)
    if pairwise:
        np.fill_diagonal(g, 0.0)
    return g


def green_homogeneous(x, y, ctx: WaveContext) -> complex:
    """Free-space kernel exp(i*kappa*r) / (4*pi*r) between two points."""
    return _green(x, y, ctx)[0, 0]


def green_vector(geom: ArrayGeometry, y, ctx: WaveContext) -> np.ndarray:
    """Green's vector g0(y), shape ``(N,)``, from point ``y`` to all transducers."""
    return _green(geom.positions, y, ctx)[:, 0]


def pairwise_green_matrix(points: np.ndarray, ctx: WaveContext) -> np.ndarray:
    """Symmetric matrix of Green's values between distinct points; zero diagonal."""
    return _green(points, points, ctx, pairwise=True)


def sensing_matrix(geom: ArrayGeometry, window: ImageWindow, ctx: WaveContext) -> SensingMatrix:
    """Assemble the N x K sensing matrix for the array/window pair; the
    matrix is read-only, so callers may share it."""
    return SensingMatrix(matrix=_readonly(_green(geom.positions, window.points, ctx)),
                         geom=geom, window=window, ctx=ctx)


def mutual_coherence(mat):
    """Maximum normalized inner product between distinct columns of a matrix.

    Returns ``(epsilon, (i, j))`` with ``i < j`` the maximizing column pair.
    The scan runs over ``COHERENCE_BLOCK`` columns at a time.
    """
    a = np.asarray(mat, dtype=complex)
    if a.ndim != 2 or a.shape[1] < 2:
        raise DomainError("mutual coherence needs at least two columns")
    norms = np.linalg.norm(a, axis=0)
    if np.any(norms == 0):
        raise DomainError("zero column in coherence scan")
    cols = a / norms[None, :]
    k = cols.shape[1]
    best = -1.0
    best_pair = (0, 1)
    for start in range(0, k, COHERENCE_BLOCK):
        stop = min(start + COHERENCE_BLOCK, k)
        gram = np.abs(cols[:, start:stop].conj().T @ cols)  # (stop-start, K)
        np.fill_diagonal(gram[:, start:stop], -1.0)  # mask self products
        flat = int(np.argmax(gram))
        i_local, j = divmod(flat, k)
        val = float(gram[i_local, j])
        if val > best:
            best = val
            i = start + i_local
            best_pair = (min(i, j), max(i, j))
    return min(best, 1.0), best_pair


def theorem1_margin(epsilon: float, m: int) -> float:
    """Signed exact-recovery margin ``1/2 - epsilon * m``; positive certifies."""
    if not 0.0 <= epsilon <= 1.0:
        raise DomainError("coherence must lie in [0, 1]")
    if m < 0:
        raise DomainError("sparsity count must be nonnegative")
    return 0.5 - epsilon * m
