"""Random phase model: field synthesis, phase line integrals, random Green's
functions, effective aperture and Monte-Carlo stability estimators."""

import os
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DomainError
from .foldy_lax import ResponseMatrix
from .geometry import ArrayGeometry, ReflectivityVector, WaveContext
from .greens import SensingMatrix, green_vector

# normalized kernels R(t) with R(0) = 1, plus dR/dt / t in closed form and the
# lag (in correlation lengths) beyond which R is negligible for embedding
_KERNELS = {
    "gaussian": {
        "r": lambda t: np.exp(-0.5 * t * t),
        "rdot_over_t": lambda t: -np.exp(-0.5 * t * t),
        "pad": 6.0,
    },
    "power-law": {
        "r": lambda t: (1.0 + t) * np.exp(-t),
        "rdot_over_t": lambda t: -np.exp(-t),
        "pad": 18.0,
    },
}
KERNELS = tuple(_KERNELS)

# quadrature nodes per block of phase_line_integral: a block's nodes and its
# bilinear temporaries stay in cache, and a block always holds whole segments
_BLOCK_NODES = 2 ** 15


@dataclass(frozen=True)
class RandomMediumSpec:
    """Statistics of the weakly fluctuating medium."""

    correlation_length: float
    sigma: float
    kernel: str = "gaussian"
    lattice_spacing: float | None = None  # defaults to l / 5
    master_seed: int = 0

    def __post_init__(self):
        if self.correlation_length <= 0:
            raise ConfigurationError("correlation length must be positive")
        if self.sigma < 0:
            raise ConfigurationError("fluctuation strength must be nonnegative")
        if self.kernel not in _KERNELS:
            raise ConfigurationError(
                f"unsupported kernel {self.kernel!r}; use one of {sorted(_KERNELS)}")
        if self.lattice_spacing is None:
            object.__setattr__(self, "lattice_spacing", self.correlation_length / 5.0)
        if self.lattice_spacing > self.correlation_length / 5.0 + 1e-12:
            raise ConfigurationError(
                "synthesis lattice spacing must not exceed l / 5")


@dataclass
class RandomFieldRealization:
    """One sampled realization of the medium fluctuation on a lattice.

    ``imag`` holds a second realization on the same lattice, independent of
    ``values`` with the same covariance: the imaginary half of the synthesis
    whose real half is ``values``.  The stability estimators read both."""

    values: np.ndarray  # (n_cross, n_range)
    origin: tuple
    spacing: float
    spec: RandomMediumSpec
    imag: np.ndarray  # (n_cross, n_range)

    def interpolate(self, points) -> np.ndarray:
        """Bilinear interpolation at (cross, range) points inside the lattice."""
        return _BilinearPlan(self, points)(self.values)


class _BilinearPlan:
    """Bilinear interpolation at fixed points, planned once: the flat index of
    each point's lower lattice corner and its two fractional offsets.  These
    depend only on the lattice frame (origin, spacing, shape) of ``field``,
    which every field sampled for one (spec, region) shares.  Each axis needs
    two nodes or more, as ``sample_field`` always gives."""

    def __init__(self, field: RandomFieldRealization, points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        u = p[:, 0] - field.origin[0]
        u /= field.spacing
        v = p[:, 1] - field.origin[1]
        v /= field.spacing
        n0, n1 = field.values.shape
        if min(n0, n1) < 2:
            raise DomainError(f"a {n0} x {n1} lattice has an axis of one node")
        # written so that a NaN coordinate fails it too
        if not (np.all(u >= -1e-9) and np.all(v >= -1e-9)
                and np.all(u <= n0 - 1 + 1e-9) and np.all(v <= n1 - 1 + 1e-9)):
            raise DomainError("interpolation point outside the sampled region")
        np.clip(u, 0.0, n0 - 1, out=u)
        np.clip(v, 0.0, n1 - 1, out=v)
        i0 = u.astype(int)  # lower corners
        np.minimum(i0, n0 - 2, out=i0)
        j0 = v.astype(int)
        np.minimum(j0, n1 - 2, out=j0)
        u -= i0
        v -= j0
        self.fu, self.fv = u, v
        self.gu, self.gv = 1 - u, 1 - v
        i0 *= n1
        i0 += j0
        self.corner = i0
        self.di = n1  # flat step to the next cross-range node

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """The four corner terms, each scaled by its two weights and summed
        in that order, with every product and sum taken in place."""
        flat = values.ravel()
        k, fu, fv, gu, gv = self.corner, self.fu, self.fv, self.gu, self.gv
        out = flat[k]
        out *= gu
        out *= gv
        for shift, wu, wv in ((self.di, fu, gv), (1, gu, fv), (self.di + 1, fu, fv)):
            term = flat[shift:][k]
            term *= wu
            term *= wv
            out += term
        return out


def autocorrelation_integral(kind: str) -> float:
    """Adaptive quadrature of dR/dt / t over (0, inf); negative for valid kernels."""
    if kind not in _KERNELS:
        raise ConfigurationError(
            f"unsupported kernel {kind!r}; use one of {sorted(_KERNELS)}")
    # imported here, not at module level: scipy.integrate pulls in
    # scipy.optimize and scipy.linalg, which nothing else on the import path
    # of the package and its CLI needs
    from scipy.integrate import quad
    value, _ = quad(_KERNELS[kind]["rdot_over_t"], 0.0, np.inf)
    return float(value)


def effective_aperture(spec: RandomMediumSpec, range_distance: float,
                       wavelength: float = 1.0) -> float:
    """Effective aperture a_e = sigma L sqrt(-1 - (2L / 3l) * integral(dR/dt / t)),
    the medium- and range-dependent length of the second-moment decay."""
    if range_distance <= 0:
        raise DomainError("range distance must be positive")
    i_r = autocorrelation_integral(spec.kernel)
    l = spec.correlation_length
    radicand = -1.0 - (2.0 * range_distance / (3.0 * l)) * i_r
    if radicand < 0:
        raise DomainError(
            "effective-aperture radicand negative: range too small for the "
            "L >> l validity regime")
    _warn_regime(spec, range_distance, wavelength)
    return spec.sigma * range_distance * float(np.sqrt(radicand))


def _warn_regime(spec: RandomMediumSpec, range_distance: float, wavelength: float):
    l = spec.correlation_length
    s = spec.sigma
    if wavelength >= l:
        warnings.warn("random phase model assumes wavelength << correlation length",
                      stacklevel=3)
    if s > 0:
        lhs = s ** 2 * range_distance ** 3 / l ** 3
        rhs = wavelength ** 2 / (s ** 2 * l * range_distance)
        if lhs >= rhs:
            warnings.warn("random phase model validity condition "
                          "sigma^2 L^3 / l^3 << lambda^2 / (sigma^2 l L) violated",
                          stacklevel=3)


def region_for(points, spec: RandomMediumSpec) -> tuple:
    """Region to sample a field on: the ``(low, high)`` corners, each a
    ``(cross_range, range)`` pair, of the bounding box of ``points`` plus two
    synthesis-lattice cells on every side."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    margin = 2 * spec.lattice_spacing
    low = p.min(axis=0) - margin
    high = p.max(axis=0) + margin
    return (float(low[0]), float(low[1])), (float(high[0]), float(high[1]))


@lru_cache(maxsize=8)
def _spectral_amplitude(kernel: str, correlation_length: float, step: float,
                        m_cross: int, m_range: int) -> np.ndarray:
    """Square root of the circulant-embedding eigenvalues (clipped at 0) of
    the covariance on the padded lattice: the seed-free factor of
    ``sample_field``, cached and so returned read-only."""
    # imported where a field is synthesized, so that importing the package
    # and its CLI loads no scipy module
    from scipy.fft import fft2
    ix = np.arange(m_cross)
    iz = np.arange(m_range)
    dx = np.minimum(ix, m_cross - ix) * step
    dz = np.minimum(iz, m_range - iz) * step
    r = np.sqrt(dx[:, None] ** 2 + dz[None, :] ** 2) / correlation_length
    cov = _KERNELS[kernel]["r"](r)
    amplitude = np.sqrt(np.maximum(fft2(cov).real, 0.0))
    amplitude.flags.writeable = False
    return amplitude


def sample_field(spec: RandomMediumSpec, region, seed: int) -> RandomFieldRealization:
    """Stationary Gaussian field with the requested autocorrelation on the
    ``(low, high)`` corners of ``region``, with at least two nodes per axis.

    Spectral (circulant-embedding) synthesis on a padded periodic lattice:
    the target covariance is exact on-lattice up to the negligible wraparound
    beyond the padding distance.  Deterministic per seed.  The one complex
    synthesis gives two independent fields with that covariance (Wood & Chan,
    J. Comput. Graph. Stat. 3, 1994): its real half is ``values`` and its
    imaginary half ``imag``.
    """
    # imported here for the reason given in _spectral_amplitude
    from scipy.fft import ifft2, next_fast_len
    step = spec.lattice_spacing
    l = spec.correlation_length
    (cross_min, range_min), (cross_max, range_max) = region
    n_cross = int(np.ceil((cross_max - cross_min) / step)) + 2
    n_range = int(np.ceil((range_max - range_min) / step)) + 2
    pad = int(np.ceil(_KERNELS[spec.kernel]["pad"] * l / step))
    m_cross = next_fast_len(n_cross + pad)
    m_range = next_fast_len(n_range + pad)
    amplitude = _spectral_amplitude(spec.kernel, l, step, m_cross, m_range)

    rng = np.random.default_rng(seed)
    noise = np.empty((m_cross, m_range), dtype=complex)
    noise.real = rng.standard_normal((m_cross, m_range))
    noise.imag = rng.standard_normal((m_cross, m_range))
    noise *= amplitude
    halves = ifft2(noise, overwrite_x=True)[:n_cross, :n_range]
    scale = np.sqrt(m_cross * m_range)
    return RandomFieldRealization(values=halves.real * scale,
                                  origin=(cross_min, range_min),
                                  spacing=step, spec=spec, imag=halves.imag * scale)


def _ray_frame(x, y, correlation_length: float):
    """``(starts, diffs, s)`` of ``phase_line_integral``: the start points,
    the vectors from them to ``y`` and the midpoint fractions of the steps
    that every segment shares."""
    starts = np.atleast_2d(np.asarray(x, dtype=float))
    diffs = np.asarray(y, dtype=float)[None, :] - starts
    dists = np.linalg.norm(diffs, axis=1)
    steps = max(1, int(np.ceil(dists.max() / (correlation_length / 10.0))))
    return starts, diffs, (np.arange(steps) + 0.5) / steps


def _ray_points(starts, diffs, s) -> np.ndarray:
    """Quadrature nodes of the segments, each segment's ``len(s)`` nodes in
    consecutive rows.  The ``(n, 2)`` result is a view of a ``(2, n)`` array,
    so each coordinate is built and read contiguously."""
    pts = diffs.T[:, :, None] * s
    pts += starts.T[:, :, None]
    return pts.reshape(2, -1).T


def _ray_plan(field: RandomFieldRealization, x, y):
    """``phase_line_integral(field, x, y)`` for an ``(n, 2)`` array ``x`` as a
    map from field values, planned once for every field on the lattice frame
    of ``field``."""
    starts, diffs, s = _ray_frame(x, y, field.spec.correlation_length)
    bilinear = _BilinearPlan(field, _ray_points(starts, diffs, s))
    return lambda values: bilinear(values).reshape(-1, len(s)).mean(axis=1)


def phase_line_integral(field: RandomFieldRealization, x, y):
    """Composite-midpoint quadrature of the fluctuation along the segments from
    each start point in ``x`` (one per row) to the end point ``y``.

    All segments share one step count, set by the longest so that no spatial
    step exceeds l / 10.  A single start point gives a float, an ``(n, 2)``
    array of them an ``(n,)`` array.  The nodes are built and interpolated
    whole segments at a time, about ``_BLOCK_NODES`` per block.
    """
    starts, diffs, s = _ray_frame(x, y, field.spec.correlation_length)
    steps = len(s)
    rays = max(1, _BLOCK_NODES // steps)
    nu = np.empty(len(starts))
    for b in range(0, len(starts), rays):
        pts = _ray_points(starts[b:b + rays], diffs[b:b + rays], s)
        nu[b:b + rays] = field.interpolate(pts).reshape(-1, steps).mean(axis=1)
    return float(nu[0]) if np.ndim(x) == 1 else nu


def _random_green(geom: ArrayGeometry, y, ctx: WaveContext, spec: RandomMediumSpec):
    """The random model G(x, y) = G0(x, y) exp(i sigma kappa |x - y| nu(x, y)) from
    ``y`` to the transducers x: ``(g0, phase)`` with ``g0`` the homogeneous Green's
    vector and ``phase`` = i sigma kappa |x - y|, so that the random vector for line
    integrals ``nu`` is ``g0 * np.exp(phase * nu)``.  The products are taken in
    the order written, nu last: the gate's artifacts pin those bits."""
    y = np.asarray(y, dtype=float)
    dists = np.linalg.norm(y[None, :] - geom.positions, axis=1)
    return green_vector(geom, y, ctx), 1j * spec.sigma * ctx.wavenumber * dists


def random_green_vector(field: RandomFieldRealization, geom: ArrayGeometry, y,
                        ctx: WaveContext) -> np.ndarray:
    """Random Green's vector from point ``y`` to all transducers."""
    g0, phase = _random_green(geom, y, ctx, field.spec)
    return g0 * np.exp(phase * phase_line_integral(field, geom.positions, y))


def response_matrix_random(field: RandomFieldRealization, sensing: SensingMatrix,
                           rho: ReflectivityVector) -> ResponseMatrix:
    """Born response with random Green's vectors: sum_j alpha_j g_j g_j^T."""
    geom, points = sensing.geom, sensing.window.points
    mat = np.zeros((geom.n, geom.n), dtype=complex)
    for idx in rho.support:
        g = random_green_vector(field, geom, points[idx], sensing.ctx)
        mat += rho.values[idx] * np.outer(g, g)
    # mirror the upper triangle so symmetry holds bit-exactly (FMA-fused
    # complex products are not perfectly commutative)
    upper = np.triu(mat)
    mat = upper + np.triu(mat, 1).T
    return ResponseMatrix(matrix=mat, provenance="random-medium")


@dataclass(frozen=True)
class StabilityEstimate:
    estimate: float
    std_error: float


def _variance_with_se(w: np.ndarray):
    """Sample variance of complex data and a moment-based standard error."""
    n = w.size
    mean = w.mean()
    dev2 = np.abs(w - mean) ** 2
    var = dev2.sum() / (n - 1)
    m4 = np.mean(dev2 ** 2)
    se = float(np.sqrt(max(m4 - var ** 2, 0.0) / n))
    return float(var), se


def _realization_samples(spec: RandomMediumSpec, region, master_seed: int | None,
                         realizations: int, starts, ends, sample) -> np.ndarray:
    """Slot r of the ``(realizations,)`` result is ``sample(nus)``: the integrals of
    realization r along rays from the rows of ``starts`` to each of ``ends``, planned on
    draw 0, which the caller makes first.  Realizations 2k and 2k + 1 are the real and
    imaginary halves of draw k, the field of seed ``_derived_seed(seed0, k)``; an odd
    count leaves the last imaginary half unread.  The caller runs stride 0 over the
    draws, and W - 1 helper threads, started here, strides 1..W-1, W being the CPUs the
    process may use or the draw count, whichever is fewer, so both halves of a draw
    stay on one thread.  Every helper is joined before this returns or raises; a
    helper's exception is raised as itself."""
    from concurrent.futures import ThreadPoolExecutor
    seed0 = spec.master_seed if master_seed is None else master_seed
    draws = (realizations + 1) // 2
    first = sample_field(spec, region, seed=_derived_seed(seed0, 0))  # warms _spectral_amplitude
    rays = [_ray_plan(first, starts, y) for y in ends]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    workers = min(cpus, draws)  # no helper without a draw to make
    samples = np.empty(realizations, dtype=complex)

    def run(stride):
        for k in range(stride, draws, workers):
            field = sample_field(spec, region, seed=_derived_seed(seed0, k)) if k else first
            for r, values in zip(range(2 * k, realizations), (field.values, field.imag)):
                samples[r] = sample([ray(values) for ray in rays])
            del field, values  # so that no field is held while the next one is drawn

    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:  # waits for every task
        tasks = [pool.submit(run, k) for k in range(1, workers)]
        # the caller runs stride 0 so that only W - 1 threads get a malloc arena of
        # their own; a map over W workers raised peak RSS by about 5 MiB (2 CPUs)
        run(0)
    for task in tasks:
        task.result()
    return samples


def estimate_second_moment(x, y1, y2, ctx: WaveContext, spec: RandomMediumSpec,
                           realizations: int = 500,
                           master_seed: int | None = None):
    """Monte-Carlo ratio |E[G(x,y1) conj(G(x,y2))]| / |G0(x,y1) conj(G0(x,y2))|.

    Returns ``(ratio_estimate, standard_error)``; the normalizing homogeneous
    product has unit ratio in the absence of fluctuations.
    """
    if realizations < 2:
        raise ConfigurationError("need at least two realizations")
    one = ArrayGeometry(positions=np.asarray(x, dtype=float)[None, :])
    pts = np.vstack([np.asarray(y1, float), np.asarray(y2, float)])
    region = region_for(np.vstack([one.positions, pts]), spec)
    (g1, phase1), (g2, phase2) = (_random_green(one, y, ctx, spec) for y in pts)

    def sample(nus):
        return g1[0] * np.exp(phase1[0] * nus[0][0]) \
            * np.conj(g2[0] * np.exp(phase2[0] * nus[1][0]))

    samples = _realization_samples(spec, region, master_seed, realizations,
                                   one.positions, pts, sample)
    base = g1[0] * np.conj(g2[0])
    ratio = np.abs(samples.mean()) / np.abs(base)
    se = float(np.std(samples / base, ddof=1) / np.sqrt(realizations))
    return float(ratio), se


def _derived_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence(entropy=master, spawn_key=(index,))
               .generate_state(1)[0])


def estimate_stability_ratio(geom: ArrayGeometry, y1, y2, ctx: WaveContext,
                             spec: RandomMediumSpec, realizations: int = 100,
                             mode: str = "self",
                             master_seed: int | None = None) -> StabilityEstimate:
    """Normalized variance of back-propagated inner products over realizations.

    ``self`` mode: Var(g*(y1) g(y2)) / (E||g(y1)||^2 E||g(y2)||^2).
    ``mixed`` mode uses the homogeneous vector on the left side.  Realization
    seeds derive from the master seed, so estimates are reproducible.
    """
    if realizations < 100:
        raise ConfigurationError("stability estimates need >= 100 realizations")
    if mode not in ("self", "mixed"):
        raise ConfigurationError("mode must be 'self' or 'mixed'")
    region = region_for(np.vstack([geom.positions, y1, y2]), spec)
    g0_1, phase_1 = _random_green(geom, y1, ctx, spec)
    g0_2, phase_2 = _random_green(geom, y2, ctx, spec)

    def sample(nus):  # mixed mode keeps g0_1 and plans no rays to y1
        g1 = g0_1 if mode == "mixed" else g0_1 * np.exp(phase_1 * nus[1])
        return np.vdot(g1, g0_2 * np.exp(phase_2 * nus[0]))

    samples = _realization_samples(spec, region, master_seed, realizations, geom.positions,
                                   [y2] if mode == "mixed" else [y2, y1], sample)
    # random phases preserve magnitudes, so the norms are deterministic
    denom = float(np.linalg.norm(g0_1) ** 2 * np.linalg.norm(g0_2) ** 2)
    var, se = _variance_with_se(samples)
    return StabilityEstimate(estimate=var / denom, std_error=se / denom)


def stability_bound(spec: RandomMediumSpec, aperture: float, range_distance: float,
                    separation: float, ctx: WaveContext) -> float:
    """Closed-form decay bound of the self-mode stability ratio."""
    a_e = effective_aperture(spec, range_distance, wavelength=ctx.wavelength)
    kappa = ctx.wavenumber
    l = spec.correlation_length
    gauss = 1.0 - np.exp(-kappa ** 2 * a_e ** 2 * separation ** 2 / range_distance ** 2)
    return float(gauss * l ** 2 / (range_distance ** 2
                                   * np.log1p(aperture ** 2 / (4 * range_distance ** 2))))


def paraxial_ratio(geom: ArrayGeometry, xi: float, eta: float, ctx: WaveContext,
                   spec: RandomMediumSpec, range_distance: float) -> float:
    """Closed-form paraxial prediction of the stability ratio at offsets (xi, eta)."""
    a = geom.aperture
    if a > range_distance / 5.0:
        raise DomainError("paraxial prediction requires aperture <= range / 5")
    a_e = effective_aperture(spec, range_distance, wavelength=ctx.wavelength)
    kappa = ctx.wavenumber
    l = spec.correlation_length
    lam = ctx.wavelength
    sep2 = xi ** 2 + eta ** 2
    gauss = 1.0 - np.exp(-kappa ** 2 * a_e ** 2 * sep2 / range_distance ** 2)
    sincs = (np.sinc(xi * a / (lam * range_distance))
             * np.sinc(eta * a / (lam * range_distance))
             * np.sinc(xi * l / (lam * range_distance))
             * np.sinc(eta * l / (lam * range_distance)))
    return float(256.0 * np.pi ** 2 * gauss * (l / a) ** 2 * sincs)
