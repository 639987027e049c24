"""The field Q: exact powers of two and the textual form of rationals.

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


def render_rat(a: Fraction) -> str:
    """Textual form "p/q", or "p" when the denominator is 1."""
    try:
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"
    except ValueError:
        # str() of an int past the interpreter's int-to-text digit limit
        raise ResourceError(
            f"value too long to print: an integer past the {digit_limit()}-digit limit"
        ) from None
