"""Exception types shared across the package."""

__all__ = ["NumericalError"]


class NumericalError(RuntimeError):
    """A computation produced non-finite or otherwise unusable numbers."""


class _ArgumentError(ValueError):
    """A ValueError about one argument, named by its keyword in `argument`:
    the range checks of the constructors that the CLI builds from its keys
    raise it, and the CLI reads `argument` to name the flag or section.key
    that the value came from."""

    def __init__(self, argument: str, message: str) -> None:
        super().__init__(message)
        self.argument = argument
