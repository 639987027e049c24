"""The non-Archimedean ordered field Q(x), ordered by behavior as x -> 0+.

Elements are canonical ratios of polynomials over Q.  A polynomial is a
tuple of Fractions in ascending degree with no high-order zero padding
(the zero polynomial is the empty tuple).  A RatFunc is canonical when

  * den is nonzero and gcd(num, den) = 1,
  * the lowest-order nonzero coefficient of den is exactly 1,

so structural equality is value equality and the sign of an element can be
read off the trailing coefficient of its numerator.  Under this order x is
a positive infinitesimal: the Archimedean class of a nonzero element is
determined by its valuation (trailing degree of num minus trailing degree
of den), and x**n represents the class of valuation n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, ZeroDenominatorError

Poly = tuple  # tuple[Fraction, ...], ascending degree, no trailing zeros

_F0 = Fraction(0)
_F1 = Fraction(1)

P_ZERO: Poly = ()
P_ONE: Poly = (_F1,)
P_X: Poly = (_F0, _F1)


def poly(coeffs) -> Poly:
    """Canonical polynomial from an iterable of coefficients (ascending)."""
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def p_ord(p: Poly) -> int:
    """Index of the lowest nonzero coefficient (p must be nonzero)."""
    if not p:
        raise DomainError("ord of the zero polynomial")
    for i, c in enumerate(p):
        if c:
            return i
    raise DomainError("non-canonical zero polynomial")


def p_add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def p_neg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def p_sub(a: Poly, b: Poly) -> Poly:
    return p_add(a, p_neg(b))


def p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return P_ZERO
    out = [_F0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return tuple(out)


def p_scale(a: Poly, c: Fraction) -> Poly:
    if not c:
        return P_ZERO
    return tuple(ai * c for ai in a)


def p_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of a by b over Q (b nonzero)."""
    if not b:
        raise ZeroDenominatorError("polynomial division by zero")
    if len(a) < len(b):
        return P_ZERO, a
    rem = list(a)
    q = [_F0] * (len(a) - len(b) + 1)
    inv = 1 / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1] * inv
        if c:
            q[k] = c
            for j in range(len(b)):
                rem[k + j] -= c * b[j]
    del rem[len(b) - 1:]
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(q), tuple(rem)


def p_monic(a: Poly) -> Poly:
    if not a:
        return a
    lead = a[-1]
    if lead == 1:
        return a
    return p_scale(a, 1 / lead)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q[x] by Euclid with monic normalization per step."""
    if not a and not b:
        raise DomainError("gcd(0, 0)")
    a, b = p_monic(a), p_monic(b)
    while b:
        _, r = p_divmod(a, b)
        a, b = b, p_monic(r)
    return a


# Internal fraction-free arithmetic: RatFunc operations clear coefficient
# denominators once, run on plain-int coefficient lists, and convert back
# to canonical Fraction tuples at the very end.  Cancellation is decided
# by a mod-P coprimality filter (a gcd of degree 0 mod P certifies
# coprimality over Q as long as the leading coefficient survives mod P,
# since the leading coefficient of any true common factor divides it);
# inconclusive cases fall back to an exact primitive-PRS gcd over Z[x].
_FILTER_P = (1 << 31) - 1


def _iview(p: Poly) -> tuple[list, int]:
    """Integer view (ints, d) with p = ints / d."""
    d = 1
    for c in p:
        cd = c.denominator
        if cd != 1:
            d = math.lcm(d, cd)
    if d == 1:
        return [c.numerator for c in p], 1
    return [c.numerator * (d // c.denominator) for c in p], d


def _iscale(a: list, k: int) -> list:
    if k == 1:
        return a
    return [c * k for c in a]


def _iadd(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and not out[-1]:
        out.pop()
    return out


def _imul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    while out and not out[-1]:
        out.pop()
    return out


def _iprim(a: list) -> list:
    """Primitive part with positive leading coefficient."""
    if not a:
        return a
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    if g != 1:
        a = [c // g for c in a]
    return a


def _ipseudo_rem(a: list, b: list) -> list:
    """Pseudo-remainder of a by b over Z (b nonzero, deg a >= deg b)."""
    lb = b[-1]
    r = list(a)
    while r and len(r) >= len(b):
        c = r[-1]
        k = len(r) - len(b)
        r = [ri * lb for ri in r]
        for j in range(len(b) - 1):
            r[k + j] -= c * b[j]
        r.pop()
        while r and not r[-1]:
            r.pop()
    return r


def _int_poly_gcd(a: list, b: list) -> list:
    """Primitive gcd over Z[x] by the primitive pseudo-remainder sequence."""
    a, b = _iprim(a), _iprim(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _ipseudo_rem(a, b)
        a, b = b, _iprim(r)
    return a


def _iexact_div(a: list, g: list) -> list:
    """Exact quotient of a by g in Z[x] (g primitive, known to divide a)."""
    q = [0] * (len(a) - len(g) + 1)
    r = list(a)
    lg = g[-1]
    for k in range(len(a) - len(g), -1, -1):
        top = r[k + len(g) - 1]
        if top % lg:
            raise DomainError("inexact integer polynomial division")
        c = top // lg
        q[k] = c
        if c:
            for j in range(len(g)):
                r[k + j] -= c * g[j]
    if any(r):
        raise DomainError("inexact integer polynomial division")
    return q


def _isurely_coprime(a: list, b: list) -> bool:
    """True certifies gcd(a, b) is constant over Q; False is inconclusive.

    Inverse-free Euclid mod P: each elimination replaces fa by
    lb*fa - c*x^k*fb (a unit multiple, so the gcd degree is preserved).
    """
    P = _FILTER_P
    fa = [c % P for c in a]
    fb = [c % P for c in b]
    if not fa[-1] or not fb[-1]:
        return False
    while fb:
        if len(fa) < len(fb):
            fa, fb = fb, fa
            continue
        lb = fb[-1]
        c = fa[-1]
        k = len(fa) - len(fb)
        fa = [x * lb % P for x in fa]
        for j in range(len(fb) - 1):
            fa[k + j] = (fa[k + j] - c * fb[j]) % P
        fa.pop()
        while fa and not fa[-1]:
            fa.pop()
        if not fa:
            fa, fb = fb, []
    return len(fa) == 1


def _rf_from_int_ratio(nums: list, dens: list) -> "RatFunc":
    """Canonical RatFunc equal to nums/dens (integer coefficient lists)."""
    if not dens:
        raise ZeroDenominatorError("zero denominator polynomial")
    if not nums:
        return RF_ZERO
    on, od = p_ord(nums), p_ord(dens)
    k = on if on < od else od
    if k:
        nums = nums[k:]
        dens = dens[k:]
    cn = math.gcd(*nums)
    cd = math.gcd(*dens)
    if cn != 1:
        nums = [c // cn for c in nums]
    if cd != 1:
        dens = [c // cd for c in dens]
    if len(nums) > 1 and len(dens) > 1:
        if len(nums) == 2 and len(dens) == 2:
            if nums[0] * dens[1] == nums[1] * dens[0]:
                # proportional linear parts: the value is a constant
                return RatFunc((Fraction(cn * nums[1], cd * dens[1]),), P_ONE)
        elif not _isurely_coprime(nums, dens):
            g = _int_poly_gcd(nums, dens)
            if len(g) > 1:
                nums = _iexact_div(nums, g)
                dens = _iexact_div(dens, g)
    t = dens[p_ord(dens)]
    sd = cd * t
    if sd == 1:
        num = tuple(Fraction(c * cn) for c in nums)
    else:
        num = tuple(Fraction(c * cn, sd) for c in nums)
    if t == 1:
        den = tuple(Fraction(c) for c in dens)
    else:
        den = tuple(Fraction(c, t) for c in dens)
    return RatFunc(num, den)


class RatFunc(NamedTuple):
    """Canonical rational function; construct via rf_normalize or helpers."""

    num: Poly
    den: Poly

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return rf_add(self, o)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return rf_sub(self, o)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return rf_sub(o, self)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return rf_mul(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return rf_div(self, o)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return rf_div(o, self)

    def __neg__(self) -> "RatFunc":
        return RatFunc(p_neg(self.num), self.den)

    def __pos__(self) -> "RatFunc":
        return self

    def __abs__(self) -> "RatFunc":
        return -self if rf_sign(self) < 0 else self

    def __pow__(self, n: int) -> "RatFunc":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return rf_inv(self) ** (-n)
        out = RF_ONE
        base = self
        while n:
            if n & 1:
                out = rf_mul(out, base)
            n >>= 1
            if n:
                base = rf_mul(base, base)
        return out

    def __lt__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return rf_sign(rf_sub(o, self)) > 0

    def __le__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return rf_sign(rf_sub(o, self)) >= 0

    def __gt__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return rf_sign(rf_sub(self, o)) > 0

    def __ge__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return rf_sign(rf_sub(self, o)) >= 0


RF_ZERO = RatFunc(P_ZERO, P_ONE)
RF_ONE = RatFunc(P_ONE, P_ONE)
RF_X = RatFunc(P_X, P_ONE)


def _coerce(v) -> RatFunc | None:
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, (int, Fraction)):
        return rf_const(Fraction(v))
    return None


def rf_const(c: Fraction) -> RatFunc:
    if not c:
        return RF_ZERO
    return RatFunc((Fraction(c),), P_ONE)


def x_pow(n: int) -> RatFunc:
    """The monomial x**n for any integer n; represents valuation class n."""
    if n >= 0:
        return RatFunc((_F0,) * n + (_F1,), P_ONE)
    return RatFunc(P_ONE, (_F0,) * (-n) + (_F1,))


def rf_normalize(num: Poly, den: Poly) -> RatFunc:
    """Canonical form of num/den; den must be nonzero."""
    if not den:
        raise ZeroDenominatorError("zero denominator polynomial")
    if not num:
        return RF_ZERO
    n, wn = _iview(num)
    d, wd = _iview(den)
    return _rf_from_int_ratio(_iscale(n, wd), _iscale(d, wn))


def _int_ratio(a: RatFunc) -> tuple[list, list]:
    """a as a ratio of integer coefficient lists."""
    n, wn = _iview(a.num)
    d, wd = _iview(a.den)
    return _iscale(n, wd), _iscale(d, wn)


def rf_add(a: RatFunc, b: RatFunc) -> RatFunc:
    if not b.num:
        return a
    if not a.num:
        return b
    if a.den == P_ONE and b.den == P_ONE:
        return RatFunc(p_add(a.num, b.num), P_ONE)
    n1, d1 = _int_ratio(a)
    n2, d2 = _int_ratio(b)
    return _rf_from_int_ratio(
        _iadd(_imul(n1, d2), _imul(n2, d1)), _imul(d1, d2)
    )


def rf_sub(a: RatFunc, b: RatFunc) -> RatFunc:
    if not b.num:
        return a
    if not a.num:
        return -b
    if a.den == P_ONE and b.den == P_ONE:
        return RatFunc(p_sub(a.num, b.num), P_ONE)
    n1, d1 = _int_ratio(a)
    n2, d2 = _int_ratio(b)
    return _rf_from_int_ratio(
        _iadd(_imul(n1, d2), _iscale(_imul(n2, d1), -1)), _imul(d1, d2)
    )


def rf_mul(a: RatFunc, b: RatFunc) -> RatFunc:
    if not a.num or not b.num:
        return RF_ZERO
    if b == RF_ONE:
        return a
    if a == RF_ONE:
        return b
    n1, d1 = _int_ratio(a)
    n2, d2 = _int_ratio(b)
    return _rf_from_int_ratio(_imul(n1, n2), _imul(d1, d2))


def rf_div(a: RatFunc, b: RatFunc) -> RatFunc:
    if not b.num:
        raise ZeroDenominatorError("division by the zero rational function")
    if not a.num:
        return RF_ZERO
    if b == RF_ONE:
        return a
    n1, d1 = _int_ratio(a)
    n2, d2 = _int_ratio(b)
    return _rf_from_int_ratio(_imul(n1, d2), _imul(d1, n2))


def rf_inv(a: RatFunc) -> RatFunc:
    if not a.num:
        raise ZeroDenominatorError("inverse of the zero rational function")
    n, d = _int_ratio(a)
    return _rf_from_int_ratio(d, n)


def rf_sign(f: RatFunc) -> int:
    """Sign as x -> 0+: 0 for zero, else the sign of num's trailing
    coefficient (den's is +1 by canonical form)."""
    if not f.num:
        return 0
    c = f.num[p_ord(f.num)]
    return 1 if c > 0 else -1


def valuation(f: RatFunc) -> int:
    """Order of vanishing at 0; defined for nonzero f only."""
    if not f.num:
        raise DomainError("valuation of 0 (the class of 0 is {0})")
    return p_ord(f.num) - p_ord(f.den)


def dominates(p: RatFunc, q: RatFunc) -> bool:
    """The relation p << q: n|p| < |q| for every positive integer n."""
    if not p.num:
        return bool(q.num)
    if not q.num:
        return False
    return valuation(p) > valuation(q)


def same_class(p: RatFunc, q: RatFunc) -> bool:
    """The Archimedean-class relation p ~ q."""
    if not p.num or not q.num:
        return (not p.num) and (not q.num)
    return valuation(p) == valuation(q)


def render_poly(p: Poly, compact: bool = False) -> str:
    """Textual form "a0 + a1*x + a2*x^2"; compact drops the spaces."""
    if not p:
        return "0"
    parts: list[str] = []
    for k, c in enumerate(p):
        if not c:
            continue
        mag = c if c > 0 else -c
        if k == 0:
            body = str(mag)
        else:
            xs = "x" if k == 1 else f"x^{k}"
            body = xs if mag == 1 else f"{mag}*{xs}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    s = " ".join(parts)
    return s.replace(" ", "") if compact else s


def render_rf(f: RatFunc, compact: bool = False) -> str:
    """Textual form "(num)/(den)", trimmed for single terms and den = 1."""
    num_s = render_poly(f.num, compact)
    if f.den == P_ONE:
        return num_s
    if sum(1 for c in f.num if c) > 1:
        num_s = f"({num_s})"
    den_s = render_poly(f.den, compact)
    if sum(1 for c in f.den if c) > 1:
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"
