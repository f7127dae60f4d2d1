"""Exception types shared across the package."""

__all__ = ["NumericalError"]


class NumericalError(RuntimeError):
    """A computation produced non-finite or otherwise unusable numbers."""
