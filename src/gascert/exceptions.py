"""Exception types used across the package."""


class GascertError(Exception):
    """Base class for all errors raised by gascert."""


class DimensionError(GascertError):
    """Matrix or vector dimensions are inconsistent."""


class StabilityError(GascertError):
    """A stability-related precondition failed (non-Hurwitz matrix,
    non-hyperbolic Hamiltonian, no admissible margin)."""


class SolverError(GascertError):
    """A numerical solve failed or its result violates the advertised
    residual/definiteness contract."""


class NonFiniteError(GascertError, ValueError):
    """A matrix or a report holds NaN or infinity, typically where inputs
    too large for double precision overflowed.  Also a ``ValueError``."""


class ConfigError(GascertError):
    """A network configuration document is malformed.  The message names
    the offending field."""
