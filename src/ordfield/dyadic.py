"""Exact machinery for the dyadic cut family c_n = sqrt(2) * 2**-(n+1).

These are the irrational cut points that partition Q \\ {0} into the open
bands I_n = {t : c_n < |t| < c_{n-1}}.  Every comparison against a c_n
reduces to one exact squaring: for t > 0, t > c_n iff t**2 > 2**(-2n-1).
Equality is impossible (a rational square never equals 2 times a dyadic
square), so the comparison is total; hitting "equal" raises loudly.

All outputs come with enough structure to be re-verified by squaring:
class_index re-checks both band endpoints, cn_bounds returns a rational
sandwich, constancy_radius_q returns a radius whose two defining
inequalities hold exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, IrrationalityError
from .rationals import pow2

# Results of the cut comparisons; "equal" never happens for rationals.
LESS = -1
GREATER = 1

_HALF = Fraction(1, 2)

# |t| > scale * c_n  iff  t^2 > scale^2 * 2^(-2n-1); the outer-band cut used
# by the Peano counterexample sits at scale 3/2.
OUTER_SCALE = Fraction(3, 2)


def _cmp_scaled_square(p2: int, q2: int, e: int) -> int:
    """Compare p2 * 2**e against q2, integers only; equality raises.

    With p2 = (t.num * scale.den)**2 and q2 = (t.den * scale.num)**2 this
    is t**2 against scale**2 * 2**-e, both sides multiplied out."""
    if e >= 0:
        lhs, rhs = p2 << e, q2
    else:
        lhs, rhs = p2, q2 << -e
    if lhs == rhs:
        raise IrrationalityError(
            f"{p2} * 2^{e} = {q2} would make a scaled c_n rational"
        )
    return GREATER if lhs > rhs else LESS


def cmp_to_scaled_cn(t: Fraction, n: int, scale: Fraction = Fraction(1)) -> int:
    """Compare t > 0 against scale * c_n; returns LESS or GREATER."""
    if t.numerator <= 0:
        raise DomainError("comparison against c_n requires t > 0")
    p = t.numerator * scale.denominator
    q = t.denominator * scale.numerator
    return _cmp_scaled_square(p * p, q * q, 2 * n + 1)


def cmp_to_cn(t: Fraction, n: int) -> int:
    """Compare t > 0 against c_n by exact squaring."""
    return cmp_to_scaled_cn(t, n)


def class_index(t: Fraction) -> int:
    """The unique n with c_n < |t| < c_{n-1}, for t != 0.

    First guess comes from bit lengths of t**2 (the Archimedean property of
    Q makes the magnitude finite), then the guess is corrected by exact
    comparisons and finally re-verified against both band endpoints.
    """
    p = abs(t.numerator)
    if p == 0:
        raise DomainError("0 belongs to no band I_n")
    q = t.denominator
    p2, q2 = p * p, q * q
    # 2^(e) <= t^2 < 2^(e+1) up to one off; band condition:
    # 2^(-2n-1) < t^2 < 2^(-2n+1), i.e. p2 * 2^(2n+1) > q2 > p2 * 2^(2n-1)
    e = p2.bit_length() - q2.bit_length()
    n = (-e) // 2
    while _cmp_scaled_square(p2, q2, 2 * n + 1) == LESS:
        n += 1
    while _cmp_scaled_square(p2, q2, 2 * n - 1) == GREATER:
        n -= 1
    if (
        _cmp_scaled_square(p2, q2, 2 * n + 1) != GREATER
        or _cmp_scaled_square(p2, q2, 2 * n - 1) != LESS
    ):
        raise IrrationalityError(f"band search failed for t = {t}")
    return n


def cn_bounds(n: int, p: int) -> tuple[Fraction, Fraction]:
    """Rational sandwich lo < c_n < hi with hi - lo <= 2**-p, by bisection
    from the dyadic bracket (2**-(n+1), 2**-n)."""
    if p < 1:
        raise DomainError("precision must be at least 1")
    lo = pow2(-n - 1)
    hi = pow2(-n)
    width_cap = pow2(-p)
    while hi - lo > width_cap:
        mid = (lo + hi) * _HALF
        if cmp_to_cn(mid, n) == GREATER:
            hi = mid
        else:
            lo = mid
    return lo, hi


def constancy_radius_q(t: Fraction) -> Fraction:
    """A radius delta > 0 with (|t| - delta, |t| + delta) inside the band of
    t.  Scale-invariant by construction: the radius is computed for
    u = |t| * 2**n in the base band (c_0, c_-1) and scaled back, so
    constancy_radius_q(t * 2**-k) = constancy_radius_q(t) * 2**-k exactly.
    """
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


def is_outer(t: Fraction, n: int | None = None) -> bool:
    """True when |t| sits in the outer part (3/2 * c_n, c_{n-1}) of its band."""
    if n is None:
        n = class_index(t)
    return cmp_to_scaled_cn(abs(t), n, OUTER_SCALE) == GREATER


def outer_constancy_radius_q(t: Fraction) -> Fraction:
    """Constancy radius within the inner or outer part of t's band, the two
    pieces cut at 3/2 * c_n.  Same scale-invariant construction as
    constancy_radius_q."""
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


def sqrt2_bounds(p: int) -> tuple[Fraction, Fraction]:
    """Rational sandwich of sqrt(2) = c_-1 of width <= 2**-p."""
    return cn_bounds(-1, p)


def sqrt2_gap_radius(c: Fraction) -> Fraction:
    """For rational c != sqrt(2)-side boundary cases, a radius delta > 0 such
    that the ball (c - delta, c + delta) stays on c's side of sqrt(2).
    Always justified by one exact squaring inequality on the returned bound.
    """
    below = c < 0 or c * c < 2
    p = 2
    while True:
        lo, hi = sqrt2_bounds(p)
        if below and c < lo:
            return lo - c
        if not below and hi < c:
            return c - hi
        p += 2
