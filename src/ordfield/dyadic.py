"""Exact machinery for the dyadic cut family c_n = sqrt(2) * 2**-(n+1).

These are the irrational cut points that partition Q \\ {0} into the open
bands I_n = {t : c_n < |t| < c_{n-1}}.  Every comparison against a c_n
reduces to one exact squaring: for t > 0, t > c_n iff t**2 > 2**(-2n-1).
Equality is impossible (a rational square never equals 2 times a dyadic
square), so the comparison is total; hitting "equal" raises loudly.

All outputs come with enough structure to be re-verified by squaring:
class_index re-checks both band endpoints, cn_bounds returns a rational
sandwich read off one integer square root, and every constancy radius
comes from a sandwich of sqrt(2) that clears both cuts around its point.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

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


def below_sqrt2(c: Fraction) -> bool:
    """True when c < sqrt(2): by exact integer squaring for c > 0, where a
    square equal to 2 raises IrrationalityError."""
    return c.numerator <= 0 or cmp_to_scaled_cn(c, -1) == LESS


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
    # 2^(e-1) < t^2 < 2^(e+1); band condition:
    # 2^(-2n-1) < t^2 < 2^(-2n+1), i.e. p2 * 2^(2n+1) > q2 > p2 * 2^(2n-1)
    e = p2.bit_length() - q2.bit_length()
    # never above the band index, as t^2 < 2^(e+1) <= 2^(-2n+1)
    n = (-e) // 2
    while _cmp_scaled_square(p2, q2, 2 * n + 1) == LESS:
        n += 1
    if (
        _cmp_scaled_square(p2, q2, 2 * n + 1) != GREATER
        or _cmp_scaled_square(p2, q2, 2 * n - 1) != LESS
    ):
        raise IrrationalityError(f"band search failed for t = {t}")
    return n


def cn_bounds(n: int, p: int) -> tuple[Fraction, Fraction]:
    """Rational sandwich lo < c_n < hi with hi - lo <= 2**-p: the bracket
    [m, m + 1] * 2**-(n+1+h), m = floor(sqrt(2) * 2**h), that bisecting
    (2**-(n+1), 2**-n) h = max(p - n - 1, 0) times lands on."""
    if p < 1:
        raise DomainError("precision must be at least 1")
    h = max(p - n - 1, 0)
    m = isqrt(2 << 2 * h)
    k = n + 1 + h  # = max(p, n + 1) >= 1
    return Fraction(m, 1 << k), Fraction(m + 1, 1 << k)


def _sqrt2_gap(u: Fraction, lo_cut, hi_cut) -> Fraction:
    """The gap from u to the nearer of the cuts lo_cut * sqrt(2) < u <
    hi_cut * sqrt(2) (None: no cut), measured on the first sandwich
    sqrt2_bounds(h) = [m, m + 1] * 2**-h, h = 2, 4, 6, ..., that clears
    both cuts.  Each h is tested on ints, m = isqrt(2 << 2h) against
    u = p/q and a cut a/b: u > a/b * (m + 1) * 2**-h iff
    p * b * 2**h > a * (m + 1) * q, as q, b > 0.  The bounds and the gap
    are built as Fractions at the clearing h only."""
    p, q = u.numerator, u.denominator
    if lo_cut is not None:
        pb, aq = p * lo_cut.denominator, lo_cut.numerator * q
    if hi_cut is not None:
        cq, pd = hi_cut.numerator * q, p * hi_cut.denominator
    h = 2
    while True:
        m = isqrt(2 << 2 * h)
        if (lo_cut is None or pb << h > aq * (m + 1)) and (hi_cut is None or cq * m > pd << h):
            break
        h += 2
    lo, hi = sqrt2_bounds(h)
    gaps = [] if lo_cut is None else [u - lo_cut * hi]
    if hi_cut is not None:
        gaps.append(hi_cut * lo - u)
    return min(gaps)


def constancy_radius_q(t: Fraction) -> Fraction:
    """A radius delta > 0 with (|t| - delta, |t| + delta) inside the band of
    t.  Scale-invariant by construction: the radius is computed for
    u = |t| * 2**n in the base band (c_0, c_-1) and scaled back, so
    constancy_radius_q(t * 2**-k) = constancy_radius_q(t) * 2**-k exactly.
    """
    n = class_index(t)
    return _sqrt2_gap(abs(t) * pow2(n), _HALF, 1) * pow2(-n)


def is_outer(t: Fraction, n: int) -> bool:
    """True when |t| sits in the outer part (3/2 * c_n, c_{n-1}) of its band
    n = class_index(t).  t**2 = |t|**2 is read off t's ints, so no abs(t)
    is built."""
    p = t.numerator * OUTER_SCALE.denominator
    if not p:
        raise DomainError("0 belongs to no band I_n")
    q = t.denominator * OUTER_SCALE.numerator
    return _cmp_scaled_square(p * p, q * q, 2 * n + 1) == GREATER


def outer_constancy_radius_q(t: Fraction) -> Fraction:
    """Constancy radius within the inner or outer part of t's band, the two
    pieces cut at 3/2 * c_n.  Same scale-invariant construction as
    constancy_radius_q."""
    n = class_index(t)
    u = abs(t) * pow2(n)
    cut = OUTER_SCALE * _HALF  # 3/2 * c_0 = 3/4 * sqrt(2)
    cuts = (cut, 1) if is_outer(u, 0) else (_HALF, cut)
    return _sqrt2_gap(u, *cuts) * pow2(-n)


def sqrt2_bounds(p: int) -> tuple[Fraction, Fraction]:
    """Rational sandwich of sqrt(2) = c_-1 of width <= 2**-p."""
    return cn_bounds(-1, p)


def sqrt2_gap_radius(c: Fraction) -> Fraction:
    """For rational c, a radius delta > 0 such that the ball (c - delta,
    c + delta) stays on c's side of sqrt(2).  Always justified by one exact
    squaring inequality on the returned bound."""
    return _sqrt2_gap(c, None, 1) if below_sqrt2(c) else _sqrt2_gap(c, 1, None)
