"""Exception types raised by the comag library."""


class ComagError(Exception):
    """Base class for all comag errors."""


class RankDeficientError(ComagError):
    """Selected axis rows do not span the lab frame."""


class UnresolvedPeaksError(ComagError):
    """Fewer resonance dips found than selected orientations."""


class ResonanceOutOfRangeError(ComagError):
    """Larmor resonance falls outside the modulation chirp span."""


class NoResonanceError(ComagError):
    """No zero crossing found in the dispersive quadrature signal."""


class DegenerateDirectionError(ComagError):
    """Correction undefined: the sphere center is at the origin or its norm overflows."""


class SingularGeometryError(ComagError):
    """Calibration geometry leaves the background field underdetermined."""


class NonConvergenceError(ComagError):
    """Iterative solver failed to converge within the iteration cap."""


class ZeroFieldError(ComagError):
    """Angles are undefined for a zero field vector, or one too small to resolve."""


class ConfigParseError(ComagError):
    """Config file is malformed or contains unknown sections/keys."""


class ConfigValidationError(ComagError):
    """Config values violate a named constraint."""
