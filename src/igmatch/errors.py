"""Exception types shared across the package.

Solver code should raise the most specific class that applies.
"""

# every error a public entry raises
__all__ = ["InputError", "InternalError", "SizeCapError"]


class InputError(ValueError):
    """Caller-supplied data violates a documented precondition."""


class SizeCapError(InputError):
    """An instance exceeds a configured brute-force or enumeration cap.

    Caps are explicit configuration values with safe defaults.  Exceeding a
    cap is always a hard error, never a silent truncation.
    """

    def __init__(self, what: str, actual, limit):
        self.what = what
        self.actual = actual
        self.limit = limit
        super().__init__(f"{what}: size {actual} exceeds cap {limit}")


class InternalError(AssertionError):
    """A consistency check inside an algorithm failed; indicates a bug."""


def expect_type(value, cls: type) -> None:
    """Raise InputError naming ``cls`` unless ``value`` is one: the entries'
    one check of an argument's type."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise InputError(f"expected {article} {cls.__name__}, got {type(value).__name__}")
