"""Exception types shared across the package."""


class HawkesqError(Exception):
    """Base class for all package errors."""


class ConfigurationError(HawkesqError):
    """Invalid model/experiment configuration (CLI exit code 2)."""


class IntegrabilityError(ConfigurationError):
    """A required integral of the kernel diverges."""


class NumericalError(HawkesqError):
    """Solver/quadrature failure (CLI exit code 3)."""


class StabilityError(NumericalError):
    """Branching cascade failed to go extinct within the generation cap."""


class TruncationError(NumericalError):
    """Reported truncation tail bound exceeds the requested tolerance."""
