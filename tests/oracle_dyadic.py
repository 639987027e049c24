"""Fraction oracle for the dyadic cut comparisons, sandwiches and radii.

These are the comparisons `ordfield.dyadic` made before it compared
integers: every test squares `Fraction`s and compares them against a
`Fraction` power of two, so a wrong shift or a swapped side in the
integer versions shows as a different answer here.  `min_dyadic_depth`
is the walk over `Fraction` powers of two that `ordfield.certs` made
before its one shifted-int test.  The sandwiches come
from bisection and each constancy radius from its own loop, as before
the library read them off one integer square root, so an off-by-one
precision or a swapped cut in the shared radius routine shows too.
"""

from __future__ import annotations

from fractions import Fraction

from ordfield.dyadic import GREATER, LESS, OUTER_SCALE
from ordfield.errors import DomainError, IrrationalityError
from ordfield.rationals import pow2

_HALF = Fraction(1, 2)


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


def bisection(n: int):
    """The brackets lo < c_n < hi that bisecting the dyadic bracket
    (2**-(n+1), 2**-n) passes through, widest first, without end."""
    lo = pow2(-n - 1)
    hi = pow2(-n)
    while True:
        yield lo, hi
        mid = (lo + hi) * _HALF
        if cmp_to_scaled_cn(mid, n) == GREATER:
            hi = mid
        else:
            lo = mid


def cn_bounds(n: int, p: int) -> tuple[Fraction, Fraction]:
    """The first bisection bracket of c_n with hi - lo <= 2**-p."""
    if p < 1:
        raise DomainError("precision must be at least 1")
    width_cap = pow2(-p)
    return next((lo, hi) for lo, hi in bisection(n) if hi - lo <= width_cap)


def below_sqrt2(c: Fraction) -> bool:
    if c < 0:
        return True
    sq = c * c
    if sq == 2:
        raise IrrationalityError("rational square equal to 2")
    return sq < 2


def constancy_radius_q(t: Fraction) -> Fraction:
    n = class_index(t)
    u = abs(t) * pow2(n)
    p = 3
    while True:
        lo, hi = cn_bounds(0, p)
        if hi < u and u < 2 * lo:
            break
        p += 2
    delta_u = min(u - hi, 2 * lo - u)
    return delta_u * pow2(-n)


def outer_constancy_radius_q(t: Fraction) -> Fraction:
    n = class_index(t)
    u = abs(t) * pow2(n)
    outer = cmp_to_scaled_cn(u, 0, OUTER_SCALE) == GREATER
    p = 3
    while True:
        lo, hi = cn_bounds(0, p)
        if outer:
            if OUTER_SCALE * hi < u and u < 2 * lo:
                delta_u = min(u - OUTER_SCALE * hi, 2 * lo - u)
                break
        else:
            if hi < u and u < OUTER_SCALE * lo:
                delta_u = min(u - hi, OUTER_SCALE * lo - u)
                break
        p += 2
    return delta_u * pow2(-n)


def sqrt2_gap_radius(c: Fraction) -> Fraction:
    below = below_sqrt2(c)
    p = 2
    while True:
        lo, hi = cn_bounds(-1, p)
        if below and c < lo:
            return lo - c
        if not below and hi < c:
            return c - hi
        p += 2


def min_dyadic_depth(delta: Fraction) -> int:
    """Minimal n with 2**-n < delta/2: a bit-length estimate, then a walk
    up over Fraction powers of two."""
    half = delta / 2
    n = half.denominator.bit_length() - half.numerator.bit_length() - 1
    while pow2(-n) >= half:
        n += 1
    return n
