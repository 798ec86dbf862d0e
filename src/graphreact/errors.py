"""Exception types shared across the package."""


class GraphReactError(Exception):
    """Base class for all graphreact errors."""


class PreconditionError(GraphReactError, ValueError):
    """An operation was called outside its stated contract."""


class SingularSystemError(GraphReactError, RuntimeError):
    """A linear system was singular or could not be solved to the
    required residual, or a result does not fit in a float."""


class DocumentError(GraphReactError, ValueError):
    """A graph document failed to parse or failed schema checks."""
