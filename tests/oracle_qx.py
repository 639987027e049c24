"""Fraction oracle for Q(x) arithmetic: monic Euclid over Q[x].

This is the rational-coefficient route the integer carrier in laurent.py
replaced.  It shares no arithmetic with it: polynomials here are tuples of
Fractions, the gcd is the monic Euclidean one, and the canonical form it
defines is num and den coprime with den's trailing nonzero coefficient
exactly 1.  render() prints that form with the same conventions as
laurent.render_rf, so the two routes can be compared byte for byte.
"""

from __future__ import annotations

from fractions import Fraction

from ordfield.errors import DomainError, ZeroDenominatorError
from ordfield.laurent import RatFunc, render_poly

_F0 = Fraction(0)


def _trim(p: list) -> tuple:
    while p and not p[-1]:
        p.pop()
    return tuple(p)


def p_add(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def p_mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [_F0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim(out)


def p_scale(a: tuple, c: Fraction) -> tuple:
    if not c:
        return ()
    return tuple(ai * c for ai in a)


def p_divmod(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """Quotient and remainder of a by b over Q (b nonzero)."""
    if not b:
        raise ZeroDenominatorError("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    rem = list(a)
    q = [_F0] * (len(a) - len(b) + 1)
    inv = 1 / Fraction(b[-1])
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1] * inv
        if c:
            q[k] = c
            for j in range(len(b)):
                rem[k + j] -= c * b[j]
    del rem[len(b) - 1:]
    return tuple(q), _trim(rem)


def p_monic(a: tuple) -> tuple:
    if not a:
        return a
    lead = a[-1]
    if lead == 1:
        return a
    return p_scale(a, 1 / Fraction(lead))


def poly_gcd(a: tuple, b: tuple) -> tuple:
    """Monic gcd over Q[x] by Euclid with monic normalization per step."""
    if not a and not b:
        raise DomainError("gcd(0, 0)")
    a, b = p_monic(a), p_monic(b)
    while b:
        _, r = p_divmod(a, b)
        a, b = b, p_monic(r)
    return a


def canonical(num: tuple, den: tuple) -> tuple[tuple, tuple]:
    """num/den with the monic gcd divided out and den's trailing nonzero
    coefficient scaled to 1; zero is ((), (1,))."""
    num = tuple(Fraction(c) for c in num)
    den = tuple(Fraction(c) for c in den)
    if not den:
        raise ZeroDenominatorError("zero denominator polynomial")
    if not num:
        return (), (Fraction(1),)
    g = poly_gcd(num, den)
    num, _ = p_divmod(num, g)
    den, _ = p_divmod(den, g)
    t = next(c for c in den if c)
    return p_scale(num, 1 / t), p_scale(den, 1 / t)


def dense(f: RatFunc) -> tuple[tuple, tuple]:
    """The int coefficients of f's num and den as dense polynomials, with
    the x-power x**v written out as leading zeros of num (v > 0) or den
    (v < 0)."""
    return (0,) * max(f.v, 0) + f.num, (0,) * max(-f.v, 0) + f.den


def _ratio(f: RatFunc) -> tuple[tuple, tuple]:
    num, den = dense(f)
    return tuple(map(Fraction, num)), tuple(map(Fraction, den))


def ratio_add(a: RatFunc, b: RatFunc) -> tuple[tuple, tuple]:
    (n1, d1), (n2, d2) = _ratio(a), _ratio(b)
    return p_add(p_mul(n1, d2), p_mul(n2, d1)), p_mul(d1, d2)


def ratio_sub(a: RatFunc, b: RatFunc) -> tuple[tuple, tuple]:
    (n1, d1), (n2, d2) = _ratio(a), _ratio(b)
    return p_add(p_mul(n1, d2), p_scale(p_mul(n2, d1), Fraction(-1))), p_mul(d1, d2)


def ratio_mul(a: RatFunc, b: RatFunc) -> tuple[tuple, tuple]:
    (n1, d1), (n2, d2) = _ratio(a), _ratio(b)
    return p_mul(n1, n2), p_mul(d1, d2)


def ratio_div(a: RatFunc, b: RatFunc) -> tuple[tuple, tuple]:
    (n1, d1), (n2, d2) = _ratio(a), _ratio(b)
    return p_mul(n1, d2), p_mul(d1, n2)


def ratio_inv(a: RatFunc) -> tuple[tuple, tuple]:
    n, d = _ratio(a)
    return d, n


def sign(num: tuple, den: tuple) -> int:
    """The sign of num/den as x -> 0+: that of the trailing nonzero
    coefficient of the canonical num, whose den trails with 1."""
    num, _ = canonical(num, den)
    return next(((c > 0) - (c < 0) for c in num if c), 0)


def render(num: tuple, den: tuple, compact: bool = False) -> str:
    """The canonical form of num/den as text: "(num)/(den)", trimmed for
    single terms and den = 1."""
    num, den = canonical(num, den)
    num_s = render_poly(num, compact)
    if den == (1,):
        return num_s
    if sum(1 for c in num if c) > 1:
        num_s = f"({num_s})"
    den_s = render_poly(den, compact)
    if sum(1 for c in den if c) > 1:
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"
