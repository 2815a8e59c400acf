"""Exception types shared across the package."""


class SglinkError(Exception):
    """Base class for all errors raised by this package."""


class SgdParseError(SglinkError):
    """Raised when SGD text cannot be parsed into a valid diagram.

    ``line`` and ``column`` are 1-based positions when known, else None.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", col {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


class DomainError(SglinkError):
    """A precondition on an operation's inputs was violated."""


class SelfCheckError(SglinkError):
    """An internal consistency check failed; this signals a bug."""


class FrozenValueError(SglinkError, AttributeError):
    """Raised on setting or deleting an attribute of an immutable value."""
