"""Exception types shared across the package."""

__all__ = [
    "DomainError",
    "UnsupportedDimensionError",
    "NumericalError",
    "IndeterminateError",
    "ProbeDisagreementError",
    "InternalInvariantError",
]


class DomainError(ValueError):
    """Input lies outside an operation's documented domain."""


class UnsupportedDimensionError(DomainError):
    """Ambient dimension not covered by the double-partition constructions."""


class NumericalError(RuntimeError):
    """Base class for failures of the floating-point verification layer."""


class IndeterminateError(NumericalError):
    """A rank decision fell inside the ambiguity band; retighten tolerances."""


class ProbeDisagreementError(NumericalError):
    """The two tangent-rank probes of a transitivity test disagreed."""


class InternalInvariantError(RuntimeError):
    """An internal consistency check failed: a defect, not a bad input."""
