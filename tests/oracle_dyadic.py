"""Fraction oracle for the dyadic cut comparisons.

These are the comparisons `ordfield.dyadic` made before it compared
integers: every test squares `Fraction`s and compares them against a
`Fraction` power of two, so a wrong shift or a swapped side in the
integer versions shows as a different answer here.
"""

from __future__ import annotations

from fractions import Fraction

from ordfield.dyadic import GREATER, LESS, OUTER_SCALE
from ordfield.errors import DomainError, IrrationalityError
from ordfield.rationals import pow2


def cmp_to_scaled_cn(t: Fraction, n: int, scale: Fraction = Fraction(1)) -> int:
    """Compare t > 0 against scale * c_n; returns LESS or GREATER."""
    if t <= 0:
        raise DomainError("comparison against c_n requires t > 0")
    lhs = t * t
    rhs = scale * scale * pow2(-2 * n - 1)
    if lhs == rhs:
        raise IrrationalityError(f"t^2 = {rhs} would make {scale}*c_{n} rational")
    return GREATER if lhs > rhs else LESS


def class_index(t: Fraction) -> int:
    """The unique n with c_n < |t| < c_{n-1}, for t != 0."""
    if t == 0:
        raise DomainError("0 belongs to no band I_n")
    s = t * t
    e = s.numerator.bit_length() - s.denominator.bit_length()
    n = (-e) // 2
    while s <= pow2(-2 * n - 1):
        n += 1
    while s >= pow2(-2 * n + 1):
        n -= 1
    a = abs(t)
    if cmp_to_scaled_cn(a, n) != GREATER or cmp_to_scaled_cn(a, n - 1) != LESS:
        raise IrrationalityError(f"band search failed for t = {t}")
    return n


def is_outer(t: Fraction, n: int | None = None) -> bool:
    if n is None:
        n = class_index(t)
    return cmp_to_scaled_cn(abs(t), n, OUTER_SCALE) == GREATER
