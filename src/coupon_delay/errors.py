"""Exception types shared across the package."""


class NumericError(ArithmeticError):
    """A numerical routine failed to reach its accuracy or iteration target."""
