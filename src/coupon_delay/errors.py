"""Exception types shared across the package."""

__all__ = ["NumericError"]


class NumericError(ArithmeticError):
    """A numerical routine failed to reach its accuracy or iteration target."""
