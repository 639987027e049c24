"""Exception types shared across the library."""

import sys


class OrdFieldError(Exception):
    """Base class for all library errors."""


class ZeroDenominatorError(OrdFieldError, ZeroDivisionError):
    """Construction or division with a zero denominator."""


class DomainError(OrdFieldError, ValueError):
    """Operation applied at a point outside its domain (e.g. valuation of 0,
    step function machinery at 0, quotient where the denominator vanishes)."""


class ResourceError(OrdFieldError):
    """An input whose work or output is past a size limit.  It refuses the
    run (exit 2); it is not a DomainError, which the referee records as a
    failed check."""


def digit_limit() -> int:
    """The interpreter's digit limit for converting an int to or from
    text; 0 means none (also before 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


class IrrationalityError(OrdFieldError, ArithmeticError):
    """A comparison against one of the irrational cut points came back
    "equal".  This cannot happen for rational inputs; raising loudly is
    preferred over silently picking a branch."""


class UnsupportedDerivativeError(OrdFieldError, LookupError):
    """No closed-form derivative certificate is known for this (function,
    point) pair.  Callers fall back to raw difference-quotient claims."""


class ParseError(OrdFieldError, ValueError):
    """Syntax error in an element literal, function name, or record line."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
