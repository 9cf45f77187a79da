"""Shared exception types."""


class ConfigError(ValueError):
    """Invalid configuration (bad parameter ranges, inconsistent sizes)."""


class ProtocolError(RuntimeError):
    """Violation of the round-loop contract (out-of-order queue access, corrupt feedback)."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation (e.g. boundary simplex point)."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge to its stated tolerance."""


class PreconditionError(ConfigError):
    """A documented precondition of a construction does not hold for the given input."""
