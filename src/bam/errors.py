"""Exception hierarchy shared across the package."""


class BamError(Exception):
    """Base class for all package errors."""


class ShapeError(BamError):
    """Block structures or dimensions do not match."""


class ParameterError(BamError):
    """A scalar parameter is outside its admissible range."""


class EvaluationError(BamError):
    """An oracle produced (or was given) a non-finite value."""


class ConfigurationError(BamError):
    """A strategy/problem combination is invalid; raised before a run starts."""
