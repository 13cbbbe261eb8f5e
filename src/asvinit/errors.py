"""Exception types shared across the package."""


class AsvinitError(Exception):
    """Base class for all package errors."""


class SchemaError(AsvinitError):
    """Architecture file is structurally malformed (bad JSON, wrong types,
    unknown keys, missing required fields)."""


class ValidationError(AsvinitError):
    """Architecture is well-formed but violates a model invariant."""

    def __init__(self, message, layer=None):
        if layer is not None:
            message = f"layer {layer}: {message}"
        super().__init__(message)
        self.layer = layer


class UnknownName(AsvinitError):
    """Requested built-in architecture does not exist."""


class QuadratureFailure(AsvinitError):
    """Numerical integration failed to reach the requested accuracy."""


class ShapeMismatch(AsvinitError):
    """Signal vector length does not match the network's expected extent."""


class MissingForwardTrace(AsvinitError):
    """Backward pass requested without the forward signals it depends on."""


class BudgetExceeded(AsvinitError):
    """Requested Monte Carlo trial count exceeds the configured budget."""
