"""The non-Archimedean ordered field Q(x), ordered by behavior as x -> 0+.

A polynomial is a tuple of coefficients in ascending degree with no
high-order zero padding (the zero polynomial is the empty tuple).  A
nonzero RatFunc is held in x-adic normal form x**v * num/den: v is an int,
num and den are tuples of ints, and

  * neither num nor den is divisible by x: num[0] != 0 and den[0] > 0,
  * gcd(num, den) over Q[x] is a constant,
  * the gcd of all the coefficients of num and den together is 1,

and zero is (0, (), (1,)).  The form is unique (Knuth, TAOCP Vol. 2,
4.6; Geddes, Czapor and Labahn 1992, on normal forms for rational
functions), so structural equality is value equality.  Under this order x
is a positive infinitesimal, the Archimedean class of a nonzero element is
its valuation v, and x**n represents the class of valuation n.  So v is
the valuation, the sign of num[0] is the sign, and two elements of
different valuations, or of different signs, compare without a
subtraction; x**n is (n, (1,), (1,)).

Arithmetic keeps operands canonical by cancelling their small cross
factors, never a gcd of the degree-doubled result (Henrici 1956, "A
subroutine for computations with rational numbers"; Knuth, TAOCP Vol. 2,
4.5.1).  The two identities hold unchanged in Q[x]:

  * n1/d1 + n2/d2: with g = gcd(d1, d2), the numerator
    t = n1*(d2/g) + n2*(d1/g) is coprime to (d1/g)*(d2/g), so only
    h = gcd(t, g) can cancel; when g is constant nothing does;
  * (n1/d1) * (n2/d2): num and den of the product are coprime once
    gcd(n1, d2) and gcd(n2, d1) are divided out, and when both are
    constant nothing cancels.

A product adds the two valuations.  A sum factors out the lower one,
x**v1 * (n1/d1 + x**(v2 - v1) * n2/d2), so it shifts one numerator; only
when v1 == v2 can the low terms of t cancel, and the factor of x they
leave moves into v.  No side of a cross pair is ever divisible by x.
Each path ends in one step that divides out the joint integer content
and makes den[0] positive.  A constant side of a cross pair shares no
factor, so rf_mul skips its test, two monomials multiply as two int
products and one gcd, and a sum whose two denominators are constants
takes a shorter integer path to the same form.  Some common short shapes
go straight to the form the general path would reach:

  * a unit +-x**k factor of a product moves the other factor's valuation
    and perhaps its sign: its num and den stay coprime and primitive, and
    den[0] stays positive;
  * two monomials n1/d1 and n2/d2 of one valuation add as one integer
    cross-add t = n1*d2 + n2*d1 over d1*d2, reduced by gcd(t, d1*d2);
  * with exactly one constant denominator, n1/s + n2/d2, g is constant,
    so t = n1*d2 + s*n2 over s*d2 is coprime to d2 and only x and the
    integer content cancel;
  * two equal denominators d are the case g = d of the sum rule: t is
    n1 + n2 and only h = gcd(t, d) can cancel, so a + (-a) costs one
    polynomial add.

Division multiplies by the inverse, whose num and den are the operand's
den and num.  A comparison takes no gcd: when a and b tie in valuation,
the sign of a - b is that of the lowest nonzero coefficient of
n1*d2 - n2*d1.  The operators test type(o) is RatFunc before they coerce
an int or Fraction, on either side, and call rf_add, rf_sub, rf_mul and
rf_div by name.

Rational coefficients and dense x-powers appear only at the edges: poly
and rf_normalize accept dense Fraction coefficients, rf_const a Fraction
and an exponent, and render_rf prints num and den divided by den[0], with
the x-power added to the exponents, or a one-term value from its ints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, ZeroDenominatorError
from .rationals import render_rat, too_long

Poly = tuple  # ascending degree, no trailing zeros; int coefficients in a RatFunc

P_ZERO: Poly = ()
P_ONE: Poly = (1,)
_P_MINUS_ONE: Poly = (-1,)


def poly(coeffs) -> Poly:
    """Canonical polynomial from an iterable of rational coefficients
    (ascending); an input to rf_normalize."""
    out = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _x_split(p):
    """(k, p / x**k) for the largest k with x**k dividing nonzero p."""
    k = 0
    while not p[k]:
        k += 1
    return (k, p[k:]) if k else (0, p)


def _p_add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _p_neg(a: Poly) -> Poly:
    return tuple([-c for c in a])


def _p_scale(a: Poly, k) -> Poly:
    """a times the nonzero scalar k."""
    return a if k == 1 else tuple([c * k for c in a])


def _p_mul(a: Poly, b: Poly) -> Poly:
    """Product of two canonical polynomials; the product of their leading
    coefficients is nonzero, so no high-order zero needs trimming.  A
    linear factor times one of length 2 or 3 is written out in closed
    form."""
    la, lb = len(a), len(b)
    if not la or not lb:
        return P_ZERO
    if la > lb:
        a, b, la, lb = b, a, lb, la
    if la == 1:
        k = a[0]
        return b if k == 1 else tuple([c * k for c in b])
    if la == 2:
        a0, a1 = a
        if lb == 2:
            b0, b1 = b
            return (a0 * b0, a0 * b1 + a1 * b0, a1 * b1)
        if lb == 3:
            b0, b1, b2 = b
            return (a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1, a1 * b2)
        return (a0 * b[0], *[a0 * c + a1 * p for p, c in zip(b, b[1:])], a1 * b[-1])
    out = [0] * (la + lb - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


# Each cross pair (d1, d2), (t, g), (n1, d2) or (n2, d1) is tested for a
# common factor in the cheapest way that decides it (_cross_gcd):
#   * a constant side shares no factor, with no test;
#   * two linear sides a0 + a1*x and b0 + b1*x share one exactly when
#     they are proportional, a0*b1 == a1*b0, and it is then either side;
#   * a linear side l shares one exactly when the other side vanishes at
#     l's root, an integer evaluation that decides it either way; when
#     l's coefficients reach P, a nonzero value mod P decides it first;
#   * a quadratic side q shares one with a exactly when it shares one with
#     the pseudo-remainder r of a by q (Knuth, TAOCP Vol. 2, 4.6.1): q
#     itself divides a when r is zero, a constant r leaves them coprime,
#     and a linear r goes to the root test against q.  Each step of the
#     remainder adds about the bits of q's largest coefficient to r's, so
#     the rule takes a q whose coefficients lie below P, where a step
#     costs no more than one of the filter's; a larger q goes to the
#     filter;
#   * two equal sides are their own gcd;
#   * any other pair goes through a mod-P filter: a gcd of degree 0 mod P
#     certifies coprimality over Q as long as the leading coefficients
#     survive mod P, since the leading coefficient of any true common
#     factor divides them.
# The exact primitive-PRS gcd over Z[x] runs only on the pair itself, and
# only when the filter is inconclusive.  Neither side is divisible by x.
_FILTER_P = (1 << 31) - 1


def _iview(p: Poly) -> tuple[list, int]:
    """Integer coefficients ints and d with p = ints / d, high-order zeros
    dropped; the one place rational input coefficients are cleared."""
    d = 1
    for c in p:
        cd = c.denominator
        if cd != 1:
            d = math.lcm(d, cd)
    if d == 1:
        ints = [c.numerator for c in p]
    else:
        ints = [c.numerator * (d // c.denominator) for c in p]
    while ints and not ints[-1]:
        ints.pop()
    return ints, d


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
    """Pseudo-remainder of a by b over Z (b nonzero, deg a >= deg b).

    A step replaces r by lb*r - c*x**k*b, c the leading coefficient of r.
    Below the deg b coefficients it changes, it only scales r by lb, so
    those coefficients take the product of the factors when a step first
    reaches them: a step costs O(deg b), not O(deg a).
    """
    lb = b[-1]
    m = len(b) - 1
    r = list(a)
    lo = len(r)  # r[i] for i < lo is still to be multiplied by scale
    scale = 1
    while len(r) > m:
        k = len(r) - 1 - m
        for i in range(k, min(lo, len(r))):
            r[i] *= scale
        lo = k
        c = r.pop()
        for j in range(m):
            r[k + j] = r[k + j] * lb - c * b[j]
        scale *= lb
        while r and not r[-1]:
            r.pop()
    for i in range(min(lo, len(r))):
        r[i] *= scale
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
    """Exact quotient of a by g in Z[x] (g primitive, known to divide a);
    a linear g divides by synthetic division from the top."""
    if len(g) == 2:
        g0, g1 = g
        q = []
        c = 0
        for top in a[:0:-1]:
            top -= c * g0
            if top % g1:
                raise DomainError("inexact integer polynomial division")
            c = top // g1
            q.append(c)
        if a[0] != c * g0:
            raise DomainError("inexact integer polynomial division")
        q.reverse()
        return q
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

    Euclid mod P with a monic divisor: each remainder is divided by its
    leading coefficient once, so an elimination changes only the deg b
    coefficients it reaches and costs O(deg b), not O(deg a).
    """
    P = _FILTER_P
    fa = [c % P for c in a]
    fb = [c % P for c in b]
    if not fa[-1] or not fb[-1]:
        return False
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while len(fb) > 1:
        inv = pow(fb[-1], -1, P)
        fb = [c * inv % P for c in fb]
        m = len(fb) - 1
        while len(fa) > m:
            c = fa.pop()
            if c:
                k = len(fa) - m
                for j in range(m):
                    fa[k + j] = (fa[k + j] - c * fb[j]) % P
        while fa and not fa[-1]:
            fa.pop()
        if not fa:
            return False
        fa, fb = fb, fa
    return True


def _linear_gcd(a, b) -> list | None:
    """Primitive b (up to sign) when the linear b divides a, else None: the
    homogenized value of a at b's root, b1**deg(a) * a(-b0/b1), is 0.  It
    grows by the bits of b at each step, so when a is long and b's
    coefficients reach P it is first taken mod P, and a nonzero residue
    decides."""
    b0, b1 = b
    if len(a) > 4 and (abs(b0) >= _FILTER_P or abs(b1) >= _FILTER_P):
        P = _FILTER_P
        v, w, m0, m1 = a[-1] % P, b1 % P, b0 % P, b1 % P
        for c in a[-2::-1]:
            v = (c * w - m0 * v) % P
            w = w * m1 % P
        if v:
            return None
    v, w = a[-1], b1
    for c in a[-2::-1]:
        v = c * w - b0 * v
        w *= b1
    if v:
        return None
    g = math.gcd(b0, b1)
    return [b0 // g, b1 // g]


def _cross_gcd(a, b) -> list | None:
    """Primitive gcd (up to sign) of two nonzero integer polynomials when
    it is not a constant, else None; the tests are those described above
    _FILTER_P, in that order."""
    if len(a) == 1 or len(b) == 1:
        return None
    if len(a) == 2:
        a, b = b, a
    if len(b) == 2:
        if len(a) == 2:
            b0, b1 = b
            if a[0] * b1 != a[1] * b0:
                return None
            g = math.gcd(b0, b1)
            return [b0 // g, b1 // g]
        return _linear_gcd(a, b)
    if len(a) == 3:
        a, b = b, a
    if len(b) == 3 and max(map(abs, b)) < _FILTER_P:
        r = _ipseudo_rem(a, b)
        if not r:
            return _iprim(b)
        return _linear_gcd(b, r) if len(r) == 2 else None
    if a == b:
        return _iprim(a)
    if _isurely_coprime(a, b):
        return None
    g = _int_poly_gcd(a, b)
    return g if len(g) > 1 else None


_new = tuple.__new__  # builds a RatFunc without NamedTuple's __new__ frame


def _rf_canon(v: int, num, den) -> "RatFunc":
    """RatFunc x**v * num/den of nonzero num and den, coprime over Q[x] and
    not divisible by x, with their joint integer content and the sign of
    den[0] divided out."""
    c = math.gcd(*num, *den)
    if den[0] < 0:
        c = -c
    if c == 1:
        return _new(RatFunc, (v, tuple(num), tuple(den)))
    return _new(RatFunc, (v, tuple([x // c for x in num]), tuple([x // c for x in den])))


class RatFunc(NamedTuple):
    """Canonical rational function x**v * num/den; construct via
    rf_normalize or helpers."""

    v: int
    num: Poly
    den: Poly

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, o):
        if type(o) is not RatFunc and (o := _coerce(o)) is None:
            return NotImplemented
        return rf_add(self, o)

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is not RatFunc and (o := _coerce(o)) is None:
            return NotImplemented
        return rf_sub(self, o)

    def __rsub__(self, o):
        if (o := _coerce(o)) is None:
            return NotImplemented
        return rf_sub(o, self)

    def __mul__(self, o):
        if type(o) is not RatFunc and (o := _coerce(o)) is None:
            return NotImplemented
        return rf_mul(self, o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if type(o) is not RatFunc and (o := _coerce(o)) is None:
            return NotImplemented
        return rf_div(self, o)

    def __rtruediv__(self, o):
        if (o := _coerce(o)) is None:
            return NotImplemented
        return rf_div(o, self)

    def __neg__(self) -> "RatFunc":
        return _new(RatFunc, (self.v, _p_neg(self.num), self.den))

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

    def __lt__(self, o):
        if type(o) is not RatFunc and (o := _coerce(o)) is None:
            return NotImplemented
        return _rf_cmp(self, o) < 0

    def __le__(self, o):
        if type(o) is not RatFunc and (o := _coerce(o)) is None:
            return NotImplemented
        return _rf_cmp(self, o) <= 0

    def __gt__(self, o):
        if type(o) is not RatFunc and (o := _coerce(o)) is None:
            return NotImplemented
        return _rf_cmp(self, o) > 0

    def __ge__(self, o):
        if type(o) is not RatFunc and (o := _coerce(o)) is None:
            return NotImplemented
        return _rf_cmp(self, o) >= 0


RF_ZERO = RatFunc(0, P_ZERO, P_ONE)
RF_ONE = RatFunc(0, P_ONE, P_ONE)
RF_X = RatFunc(1, P_ONE, P_ONE)


def _coerce(v) -> RatFunc | None:
    """The other operand of an operator whose test for a RatFunc failed."""
    if isinstance(v, (int, Fraction)):
        return rf_const(v)
    return None


def rf_const(c: Fraction, n: int = 0) -> RatFunc:
    """The monomial c * x**n for a rational c, in canonical form."""
    if type(c) is not Fraction:
        c = Fraction(c)
    if not c:
        return RF_ZERO
    return RatFunc(n, (c.numerator,), (c.denominator,))


def x_pow(n: int) -> RatFunc:
    """The monomial x**n for any integer n; represents valuation class n."""
    return RatFunc(n, P_ONE, P_ONE)


def rf_normalize(num: Poly, den: Poly) -> RatFunc:
    """Canonical form of num/den, given as dense polynomials (int or
    Fraction coefficients); den must be nonzero."""
    n, wn = _iview(num)
    d, wd = _iview(den)
    if not d:
        raise ZeroDenominatorError("zero denominator polynomial")
    if not n:
        return RF_ZERO
    vn, n = _x_split(n)
    vd, d = _x_split(d)
    n, d = _p_scale(n, wd), _p_scale(d, wn)
    g = _cross_gcd(n, d)
    if g:
        n, d = _iexact_div(n, g), _iexact_div(d, g)
    return _rf_canon(vn - vd, n, d)


def _rf_sum(a: RatFunc, b: RatFunc) -> RatFunc:
    """a + b for nonzero canonical operands: x**v times the sum of a and b
    divided by x**v, v the lower valuation."""
    if a.v > b.v:
        a, b = b, a
    v, n1, d1 = a
    v2, n2, d2 = b
    l1, l2 = len(d1), len(d2)
    if v2 > v:
        n2 = (0,) * (v2 - v) + n2
    elif l1 == l2 == len(n1) == len(n2) == 1:
        # two monomials of one valuation: one cross-add and one gcd
        t = n1[0] * d2[0] + n2[0] * d1[0]
        if not t:
            return RF_ZERO
        s = d1[0] * d2[0]
        c = math.gcd(t, s)
        return _new(RatFunc, (v, (t // c,), (s // c,)))
    if l1 == 1 and l2 == 1:
        # constant denominators: num and den stay coprime over Q[x], so
        # only the integer content can cancel
        s, t = d1[0], d2[0]
        if s == t:
            num = _p_add(n1, n2)
        else:
            g = math.gcd(s, t)
            num = _p_add(_p_scale(n1, t // g), _p_scale(n2, s // g))
            s = s // g * t
        if not num:
            return RF_ZERO
        k, num = _x_split(num)
        c = math.gcd(*num, s)
        if c == 1:
            return _new(RatFunc, (v + k, num, (s,)))
        return _new(RatFunc, (v + k, tuple([x // c for x in num]), (s // c,)))
    if l1 == 1 or l2 == 1:
        # one constant denominator, d1 = (s,): t = n1*d2 + s*n2 is coprime
        # to d2, so only x and the content of t/(s*d2) cancel
        if l1 > 1:
            n1, d1, n2, d2 = n2, d2, n1, d1
        s = d1[0]
        t = _p_add(_p_mul(n1, d2), _p_scale(n2, s))
        if not t:
            return RF_ZERO
        k, t = _x_split(t) if not t[0] else (0, t)
        return _rf_canon(v + k, t, _p_scale(d2, s))
    if d1 == d2:
        # one denominator d: Henrici's rule with g = d, so t = n1 + n2 and
        # only gcd(t, d) can cancel
        t = _p_add(n1, n2)
        if not t:
            return RF_ZERO
        k, t = _x_split(t)
        h = _cross_gcd(t, d1)
        if h:
            t, d1 = _iexact_div(t, h), _iexact_div(d1, h)
        return _rf_canon(v + k, t, d1)
    g = _cross_gcd(d1, d2)
    if g:
        d1, d2 = _iexact_div(d1, g), _iexact_div(d2, g)
    t = _p_add(_p_mul(n1, d2), _p_mul(n2, d1))
    if not t:
        return RF_ZERO
    k, t = _x_split(t)
    den = _p_mul(d1, d2)
    if g:
        h = _cross_gcd(t, g)
        if h:
            t, g = _iexact_div(t, h), _iexact_div(g, h)
        den = _p_mul(den, g)
    return _rf_canon(v + k, t, den)


def rf_add(a: RatFunc, b: RatFunc) -> RatFunc:
    if not b.num:
        return a
    if not a.num:
        return b
    return _rf_sum(a, b)


def rf_sub(a: RatFunc, b: RatFunc) -> RatFunc:
    if not b.num:
        return a
    if not a.num:
        return -b
    return _rf_sum(a, -b)


def rf_mul(a: RatFunc, b: RatFunc) -> RatFunc:
    v1, n1, d1 = a
    v2, n2, d2 = b
    if not n1 or not n2:
        return RF_ZERO
    # a unit +-x**k shifts the valuation and perhaps the sign, nothing more
    if d2 == P_ONE and (n2 == P_ONE or n2 == _P_MINUS_ONE):
        return _new(RatFunc, (v1 + v2, n1 if n2[0] == 1 else _p_neg(n1), d1))
    if d1 == P_ONE and (n1 == P_ONE or n1 == _P_MINUS_ONE):
        return _new(RatFunc, (v1 + v2, n2 if n1[0] == 1 else _p_neg(n2), d2))
    if len(n1) == len(d1) == len(n2) == len(d2) == 1:
        n, d = n1[0] * n2[0], d1[0] * d2[0]
        g = math.gcd(n, d)
        return _new(RatFunc, (v1 + v2, (n // g,), (d // g,)))
    if len(n1) > 1 and len(d2) > 1:
        g = _cross_gcd(n1, d2)
        if g:
            n1, d2 = _iexact_div(n1, g), _iexact_div(d2, g)
    if len(n2) > 1 and len(d1) > 1:
        g = _cross_gcd(n2, d1)
        if g:
            n2, d1 = _iexact_div(n2, g), _iexact_div(d1, g)
    return _rf_canon(v1 + v2, _p_mul(n1, n2), _p_mul(d1, d2))


def rf_div(a: RatFunc, b: RatFunc) -> RatFunc:
    if not b.num:
        raise ZeroDenominatorError("division by the zero rational function")
    return rf_mul(a, rf_inv(b))


def rf_inv(a: RatFunc) -> RatFunc:
    """1/a: swapping num and den keeps them coprime and primitive, so only
    the sign of the new den[0] needs fixing."""
    v, num, den = a
    if not num:
        raise ZeroDenominatorError("inverse of the zero rational function")
    if num[0] < 0:
        return _new(RatFunc, (-v, _p_neg(den), _p_neg(num)))
    return _new(RatFunc, (-v, den, num))


def rf_sign(f: RatFunc) -> int:
    """Sign as x -> 0+: 0 for zero, else the sign of num[0] (den[0] is
    positive by canonical form)."""
    if not f.num:
        return 0
    return 1 if f.num[0] > 0 else -1


def _rf_cmp(a: RatFunc, b: RatFunc) -> int:
    """The sign of a - b.  The lowest-order term of a - b decides it: it is
    a's or -b's when the signs or valuations differ, and the difference of
    the constant terms num[0]/den[0] when they tie.  When those are equal
    too, a - b is x**v * (n1*d2 - n2*d1) / (d1*d2), whose denominator has
    a positive constant term, so the lowest nonzero coefficient of
    n1*d2 - n2*d1 gives its sign, without a gcd."""
    sa = (1 if a.num[0] > 0 else -1) if a.num else 0
    sb = (1 if b.num[0] > 0 else -1) if b.num else 0
    if sa != sb:
        return 1 if sa > sb else -1
    if not sa or a.v != b.v:
        return sa if a.v < b.v else -sa
    c = a.num[0] * b.den[0] - b.num[0] * a.den[0]
    if c:
        return 1 if c > 0 else -1
    for c in _p_add(_p_mul(a.num, b.den), _p_neg(_p_mul(b.num, a.den))):
        if c:
            return 1 if c > 0 else -1
    return 0


def valuation(f: RatFunc) -> int:
    """Order of vanishing at 0; defined for nonzero f only."""
    if not f.num:
        raise DomainError("valuation of 0 (the class of 0 is {0})")
    return f.v


def dominates(p: RatFunc, q: RatFunc) -> bool:
    """The relation p << q: n|p| < |q| for every positive integer n."""
    if not p.num:
        return bool(q.num)
    if not q.num:
        return False
    return p.v > q.v


def same_class(p: RatFunc, q: RatFunc) -> bool:
    """The Archimedean-class relation p ~ q."""
    if not p.num or not q.num:
        return (not p.num) and (not q.num)
    return p.v == q.v


def render_poly(p: Poly, compact: bool = False, shift: int = 0, t: int = 1) -> str:
    """Textual form "a0 + a1*x + a2*x^2" of x**shift * p / t; compact drops
    the spaces."""
    if not p:
        return "0"
    parts: list[str] = []
    for k, c in enumerate(p, shift):
        if not c:
            continue
        if t != 1:
            c = Fraction(c, t)
        mag = abs(c)
        if k == 0:
            body = render_rat(mag)
        else:
            xs = "x" if k == 1 else f"x^{k}"
            body = xs if mag == 1 else f"{render_rat(mag)}*{xs}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    s = " ".join(parts)
    return s.replace(" ", "") if compact else s


def render_rf(f: RatFunc, compact: bool = False) -> str:
    """Textual form "(num)/(den)" of x**v * num/den with num and den divided
    by den[0] and x**v carried by the exponents of num (v > 0) or den
    (v < 0), trimmed for single terms and a constant den.  Both ends of a
    canonical num or den are nonzero, so it has one term when it has
    length 1.  A one-term value n/d * x**v (d > 0, gcd(n, d) = 1) is
    written straight from its ints: "mag", "x^k", "mag*x^k" or
    "mag/x^k", signed, with "x" for k = 1."""
    v, num, den = f
    t = den[0]
    if len(num) == 1 and len(den) == 1:
        n = num[0]
        try:
            mag = str(abs(n)) if t == 1 else f"{abs(n)}/{t}"
        except ValueError:
            raise too_long() from None
        sign = "-" if n < 0 else ""
        if not v:
            return sign + mag
        xs = "x" if v == 1 or v == -1 else f"x^{abs(v)}"
        if v < 0:
            return f"{sign}{mag}/{xs}"
        return sign + xs if mag == "1" else f"{sign}{mag}*{xs}"
    num_s = render_poly(num, compact, max(v, 0), t)
    if len(den) == 1 and v >= 0:
        return num_s
    if len(num) > 1:
        num_s = f"({num_s})"
    den_s = render_poly(den, compact, max(-v, 0), t)
    if len(den) > 1:
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"
