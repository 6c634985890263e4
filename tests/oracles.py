"""Reference code that only the tests read; the package never imports it.

``brute_force_l0`` is an independent enumeration oracle for the l1 solvers on
small instances, ``paraxial_ratio`` the paper's closed-form paraxial
prediction of the stability ratio, checked against Monte Carlo, and
``write_stability_csv`` the stability-curve table of acceptance criterion 9.
The barrier-dual oracle of ROADMAP item 3 will go here too.
"""

from itertools import combinations

import numpy as np

from arrayimg.errors import ConfigurationError, DomainError
from arrayimg.geometry import ArrayGeometry, WaveContext
from arrayimg.random_medium import RandomMediumSpec, effective_aperture


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


def paraxial_ratio(geom: ArrayGeometry, xi: float, eta: float, ctx: WaveContext,
                   spec: RandomMediumSpec, range_distance: float) -> float:
    """Closed-form paraxial prediction of the stability ratio at offsets (xi, eta)."""
    if not (np.isfinite(xi) and np.isfinite(eta)):
        raise DomainError("offsets must be finite")
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


def write_stability_csv(path, rows) -> None:
    """CSV of (aperture, ratio_estimate, std_error, closed_form_bound) rows."""
    with open(path, "w") as fh:
        fh.write("aperture,ratio_estimate,std_error,closed_form_bound\n")
        for aperture, est, se, bound in rows:
            fh.write(f"{aperture:.12g},{est:.12g},{se:.12g},{bound:.12g}\n")
