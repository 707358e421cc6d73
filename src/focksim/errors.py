"""Exception types raised across the package, and the shared domain checks."""

import sys

#: Largest finite float; a larger int cannot be converted to a float.
FLOAT_MAX = sys.float_info.max


class FockSimError(Exception):
    """Base class for all focksim errors."""


class DomainError(FockSimError, ValueError):
    """A numeric argument is outside its allowed range."""


class ZeroStateError(FockSimError):
    """An operation produced or received a state with no support."""


class OverlappingModesError(FockSimError):
    """Tensor factors occupy intersecting mode subsets."""


class MissingModeError(FockSimError, KeyError):
    """A mode label is not present in the registry."""


class DuplicateModeError(FockSimError):
    """The same mode label appears more than once."""


class DimensionMismatchError(FockSimError):
    """Matrix or registry dimensions do not agree."""


class NonSquareError(FockSimError):
    """The permanent is defined for square matrices only."""


class PhotonCapError(DomainError):
    """A state component exceeds the supported photon number."""


class HeraldSpecError(FockSimError):
    """A herald specification is inconsistent with the registry."""


class EmptySweepError(FockSimError):
    """A sweep or table has no rows."""


class DegenerateFitError(FockSimError):
    """The fringe-fit design matrix is rank deficient or under-sampled."""


class ConfigError(FockSimError):
    """Base class for command-line configuration problems."""


class ConfigParseError(ConfigError):
    """The configuration file cannot be read or is not valid JSON."""


class ConfigValidationError(ConfigError):
    """A configuration key is missing, unknown, or out of range."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


def is_finite(value) -> bool:
    """False for NaN, +-inf and ints too large for a float; never raises OverflowError."""
    return -FLOAT_MAX <= value <= FLOAT_MAX


def check_unit_interval(name: str, value) -> float:
    """`value` as a float; DomainError unless 0 <= value <= 1 (NaN fails too)."""
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {value}")
    return float(value)


def check_count(name: str, value) -> int:
    """`value` as an int; DomainError unless a non-negative integer a float can hold."""
    if not (0 <= value <= FLOAT_MAX and value % 1 == 0):
        raise DomainError(f"{name} must be a non-negative integer, got {value}")
    return int(value)
