"""Semantic exception hierarchy for the pmqcc package.

``ParameterError`` covers invalid inputs (domain violations, malformed
configuration); everything else signals a failure *during* an otherwise
well-posed computation. The CLI maps the two groups onto distinct exit
codes.
"""


class PMQCCError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(PMQCCError, ValueError):
    """A parameter is outside its physical or structural domain."""


class DegenerateGeometryError(PMQCCError, ArithmeticError):
    """Decoy intensities too close, too small or too large for a safe
    yield bound: a rung's combination, its scale or its dot is past the
    float range."""


class InsufficientIntensitiesError(PMQCCError, ValueError):
    """Not enough decoy intensities to run the requested estimation ladder."""


class InsufficientDataError(PMQCCError, RuntimeError):
    """A tally holds too few events to support the requested estimate."""
