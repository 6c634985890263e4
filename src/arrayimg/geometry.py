"""Wave context, transducer array, image-window grid and scatterer placement.

Coordinates are 2-D ``(cross_range, range)``: the array lies on the line
``range = 0`` and the image window is a planar lattice centered at
``(0, center_range)``.  All lengths are expressed in the same unit as the
wavelength (configs use wavelength units throughout).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class WaveContext:
    """Wavelength and wavenumber shared by all physics."""

    wavelength: float

    def __post_init__(self):
        if self.wavelength <= 0:
            raise ConfigurationError("wavelength must be positive")

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength


@dataclass(frozen=True)
class ArrayGeometry:
    """Transducer positions and the aperture of a linear layout."""

    positions: np.ndarray  # (N, 2)
    aperture: float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ConfigurationError("positions must be an (N, 2) array with N >= 1")
        if len(np.unique(pos, axis=0)) != pos.shape[0]:
            raise ConfigurationError("transducer positions must be pairwise distinct")
        object.__setattr__(self, "positions", _readonly(pos))

    @property
    def n(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class ImageWindow:
    """Uniform ``rows x cols`` search lattice centered at ``(0, center_range)``,
    row-major indexed.

    Linear index ``i`` maps to ``(row, col) = divmod(i, cols)``; rows run
    along range, columns along cross-range.
    """

    center_range: float
    rows: int
    cols: int
    spacing: float
    points: np.ndarray = field(init=False, repr=False)  # (K, 2)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError("rows and cols must be >= 1")
        if self.spacing <= 0:
            raise ConfigurationError("grid spacing must be positive")
        cross = (np.arange(self.cols) - (self.cols - 1) / 2.0) * self.spacing
        rng = self.center_range + (np.arange(self.rows) - (self.rows - 1) / 2.0) * self.spacing
        cc, rr = np.meshgrid(cross, rng)  # row-major: row index varies slowest
        pts = np.column_stack([cc.ravel(), rr.ravel()])
        object.__setattr__(self, "points", _readonly(pts))

    @property
    def k(self) -> int:
        return self.rows * self.cols

    def index_to_rowcol(self, index: int) -> tuple:
        if not 0 <= index < self.k:
            raise ConfigurationError(f"grid index {index} out of range [0, {self.k})")
        return divmod(index, self.cols)

    def rowcol_to_index(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ConfigurationError(f"(row, col) = ({row}, {col}) outside lattice")
        return row * self.cols + col


@dataclass(frozen=True)
class ReflectivityVector:
    """Dense complex reflectivity vector over the image-window grid."""

    values: np.ndarray  # (K,) complex

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 1:
            raise ConfigurationError("reflectivity values must be a 1-D vector")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def support(self) -> np.ndarray:
        """Indices of nonzero entries, ascending."""
        return np.flatnonzero(self.values)

    @property
    def m(self) -> int:
        return int(self.support.size)


def build_linear_array(n: int, pitch: float) -> ArrayGeometry:
    """Linear array of ``n`` transducers on the line range = 0.

    The array is centered at cross-range 0, under the image window; aperture
    is ``(n - 1) * pitch``.
    """
    if n < 1:
        raise ConfigurationError("transducer count must be >= 1")
    if pitch <= 0:
        raise ConfigurationError("pitch must be positive")
    cross = (np.arange(n) - (n - 1) / 2.0) * pitch
    positions = np.column_stack([cross, np.zeros(n)])
    return ArrayGeometry(positions=positions, aperture=(n - 1) * pitch)


def place_scatterers(window: ImageWindow, entries) -> ReflectivityVector:
    """Reflectivity vector with nonzeros at the given ``(index, value)`` entries."""
    values = np.zeros(window.k, dtype=complex)
    seen = set()
    for index, reflectivity in entries:
        index = int(index)
        if not 0 <= index < window.k:
            raise ConfigurationError(f"scatterer index {index} outside [0, {window.k})")
        if index in seen:
            raise ConfigurationError(f"duplicate scatterer index {index}")
        seen.add(index)
        values[index] = complex(reflectivity)
    return ReflectivityVector(values=values)
