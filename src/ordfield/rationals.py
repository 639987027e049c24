"""The field Q: exact powers of two, dyadic scaling and the textual form
of rationals.

Elements of Q are `fractions.Fraction` values, which already enforce the
canonical form this library relies on everywhere (positive denominator,
reduced to lowest terms, normalization at construction, structural
equality), so Q needs no wrapper of its own.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ResourceError, digit_limit


def pow2(n: int) -> Fraction:
    """2**n exactly, for any integer n."""
    if n >= 0:
        return Fraction(1 << n)
    return Fraction(1, 1 << (-n))


def scaled(r: Fraction, n: int) -> Fraction:
    """r * 2**n exactly, for any integer n, as one Fraction built from r's
    ints: the numerator is shifted for n >= 0, the denominator for n < 0,
    and the constructor reduces the result, so it is canonical.  No
    power of two and no product of Fractions is built."""
    if n >= 0:
        return Fraction(r.numerator << n, r.denominator)
    return Fraction(r.numerator, r.denominator << -n)


def render_rat(a: Fraction) -> str:
    """Textual form "p/q", or "p" when the denominator is 1: str() of a
    Fraction or an int writes exactly that."""
    try:
        return str(a)
    except ValueError:
        # str() of an int past the interpreter's int-to-text digit limit
        raise too_long() from None


def too_long() -> ResourceError:
    """The error for a value whose text would hold an int past the
    interpreter's int-to-text digit limit."""
    return ResourceError(
        f"value too long to print: an integer past the {digit_limit()}-digit limit"
    )
