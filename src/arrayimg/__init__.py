"""Narrow-band active-array scattering simulation and sparse imaging."""

__version__ = "0.1.0"
