"""Exception types shared across the package."""


class VenplanError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(VenplanError):
    """A network, route, path, or scenario invariant is violated."""


class ScenarioFormatError(VenplanError):
    """A scenario file is malformed: bad syntax, missing fields, or wrong units."""
