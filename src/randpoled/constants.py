"""Physical constants shared across the package (CODATA 2018, exact/recommended)."""

from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants in SI units.  Immutable by construction."""

    c: float = 299792458.0          # speed of light in vacuum, m/s (exact)


CONSTANTS = PhysicalConstants()
