"""Closed-form certificate rules: delta-rules for verifiers and witness
rules for falsifiers.

A delta rule maps a challenge epsilon to a radius delta; the two shapes
(constant, and min(cap, slope*eps)) cover every certificate the shipped
constructions need: constancy radii and the linear envelopes |f(t)| < 2|t|
and |f(t)| < C|t|.  A witness rule maps a challenge delta to a probe point
that exactly violates the claimed limit; witnesses are closed-form in
delta (dyadic scaling in Q, valuation shift in Q(x)) so they stay exact
for arbitrarily extreme challenges, including infinitesimal delta.

This module holds only what the rules mean.  Each rule class declares its
TAG and the kinds of its arguments in ARGS, and a step probe its home
`field`; their names are written and read by `functions.render_name` and
`functions.parse_name`, which own the name format of rules and functions
alike.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .fields import Field, Value, render_elem, sign_of
from .laurent import RatFunc, valuation, x_pow
from .rationals import scaled


class ConstRule(Value):
    """delta(eps) = d0."""

    FIELDS = ("d0",)
    TAG = "const"
    ARGS = ("elem",)

    def delta_for(self, eps):
        return self.d0


class LinearCapRule(Value):
    """delta(eps) = min(cap, slope * eps)."""

    FIELDS = ("cap", "slope")
    TAG = "linear_cap"
    ARGS = ("elem", "elem")

    def delta_for(self, eps):
        scaled = self.slope * eps
        return scaled if scaled < self.cap else self.cap


def min_dyadic_depth(delta: Fraction) -> int:
    """Minimal n with 2**-n < delta/2, for delta = p/q > 0.  The condition
    is q * 2**m < p with m = 1 - n; with a, b the bit lengths of q, p it
    holds at m = b - a - 1 and fails at m = b - a + 1, so one shifted-int
    test at m = b - a decides between n = a - b + 1 and a - b + 2."""
    p, q = delta.numerator, delta.denominator
    if p <= 0:
        raise DomainError(f"dyadic depth needs delta > 0, got {render_elem(delta)}")
    m = p.bit_length() - q.bit_length()
    below = q << m < p if m >= 0 else q < p << -m
    return 1 - m if below else 2 - m


class QStepProbe(Value):
    """w(delta) = r * 2**-n with n minimal such that 2**-n < delta/2.

    r is a fixed rational with 1/2 < r**2 < 2, so the probe's band index is
    known exactly (it is n) at every depth.  The witness is built from r's
    ints by rationals.scaled, one Fraction per delta.
    """

    FIELDS = ("r",)
    TAG = "qstep"
    ARGS = ("elem",)
    field = Field.Q

    def __post_init__(self):
        if not Fraction(1, 2) < self.r * self.r < 2:
            raise DomainError(f"step probe pattern {self.r} needs 1/2 < r^2 < 2")

    def witness_for(self, delta: Fraction) -> Fraction:
        return scaled(self.r, -min_dyadic_depth(delta))


class QXStepProbe(Value):
    """w(delta) = sign * r * x**(v(delta)+1) with r a positive unit."""

    FIELDS = ("r", "sign")
    DEFAULTS = {"sign": 1}
    TAG = "qxstep"
    ARGS = ("elem", "sign")
    field = Field.QX

    def __post_init__(self):
        if sign_of(self.r) <= 0 or valuation(self.r) != 0:
            raise DomainError("qx step probe pattern must be a positive unit")
        if self.sign not in (1, -1):
            raise DomainError("probe sign must be +1 or -1")

    def witness_for(self, delta: RatFunc) -> RatFunc:
        w = self.r * x_pow(valuation(delta) + 1)
        return -w if self.sign < 0 else w


class TwoSided(Value):
    """Selector pair: use `pos` when the claim's candidate is <= midpoint,
    else `neg`."""

    FIELDS = ("pos", "neg", "midpoint")
    TAG = "two_sided"
    ARGS = ("witness", "witness", "elem")

    def __post_init__(self):
        if isinstance(self.pos, TwoSided) or isinstance(self.neg, TwoSided):
            raise DomainError("witness rule two_sided takes no two_sided side")

    def pick(self, candidate):
        return self.pos if candidate <= self.midpoint else self.neg
