"""Exception types shared across the package, and the largest float, with
which every finiteness check compares its value."""

import sys

# an integer beyond the float range compares above it, where math.isfinite
# would raise OverflowError; nan, inf and -inf fail every comparison with it
FLOAT_MAX = sys.float_info.max


class VenplanError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(VenplanError):
    """A network, route, path, or scenario invariant is violated."""


class ScenarioFormatError(VenplanError):
    """A scenario file is malformed: bad syntax, missing fields, or wrong units."""
