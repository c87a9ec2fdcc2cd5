"""Exception types shared across the package.

Everything subclasses ValueError so callers that only care about "bad input"
can catch one type; the CLI maps these onto exit codes.
"""


class MarginMIError(ValueError):
    """Base class for all package-specific errors."""


class ParameterError(MarginMIError):
    """A model parameter is outside its domain (bad probability vector, ...)."""


class DesignError(MarginMIError):
    """A sampling-design request is impossible (n_s > N_s, stratum too small, ...)."""


class CompletenessError(MarginMIError):
    """An operation requiring fully observed data received missing values."""


class SingularDesignError(MarginMIError):
    """A design matrix is rank deficient."""


class SeparationError(MarginMIError):
    """A probit fit diverged (perfect or quasi-perfect separation)."""


class SchemaError(MarginMIError):
    """A data file does not conform to the documented schema."""

    def __init__(self, message, rows=None):
        super().__init__(message)
        self.rows = list(rows) if rows is not None else []
