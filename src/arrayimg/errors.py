"""Error taxonomy shared across the package."""


class ConfigurationError(ValueError):
    """Invalid user-supplied configuration (counts, spacings, key names)."""


class DomainError(ValueError):
    """Mathematically invalid input (coincident points, empty matrices, ...)."""


class ResonanceError(DomainError):
    """Near-singular multiple-scattering system; the message gives the
    condition-number estimate that triggered the rejection."""
