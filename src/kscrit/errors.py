"""Exception hierarchy shared by the library and the CLI exit-code contract."""


class KscritError(Exception):
    """Base class for all library errors."""


class ValidationError(KscritError):
    """Invalid domain input: bad dimension, order, profile parameters, config keys."""


class MeasureDataError(ValidationError):
    """A density-level operation was applied to a pure measure (shell atom)."""


class DivergenceError(ValidationError):
    """A requested quantity is infinite/undefined for this datum (non-integrable singularity)."""


class NumericsError(KscritError):
    """A numerical procedure failed to converge or produced an invalid result."""


class IntegrabilityError(NumericsError):
    """The datum violates the integrability gate of a semigroup evaluation."""


class ResolutionError(NumericsError):
    """The solver grid is too coarse: steps collapse without density growth."""


class AcceptanceError(KscritError):
    """One or more acceptance checks failed (CLI exit code 3)."""
