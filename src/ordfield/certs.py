"""Closed-form certificate rules: delta-rules for verifiers and witness
rules for falsifiers.

A DeltaRule maps a challenge epsilon to a radius delta; the two shapes
(constant, and min(cap, slope*eps)) cover every certificate the shipped
constructions need: constancy radii and the linear envelopes |f(t)| < 2|t|
and |f(t)| < C|t|.  A WitnessRule maps a challenge delta to a probe point
that exactly violates the claimed limit; witnesses are closed-form in
delta (dyadic scaling in Q, valuation shift in Q(x)) so they stay exact
for arbitrarily extreme challenges, including infinitesimal delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ParseError
from .fields import Field, render_elem, sign_of
from .laurent import RatFunc, valuation, x_pow
from .literals import check_nesting, parse_elem
from .rationals import pow2


@dataclass(frozen=True)
class ConstRule:
    """delta(eps) = d0."""

    d0: object

    def delta_for(self, eps):
        return self.d0

    def render(self) -> str:
        return f"const({render_elem(self.d0)})"


@dataclass(frozen=True)
class LinearCapRule:
    """delta(eps) = min(cap, slope * eps)."""

    cap: object
    slope: object

    def delta_for(self, eps):
        scaled = self.slope * eps
        return scaled if scaled < self.cap else self.cap

    def render(self) -> str:
        return f"linear_cap({render_elem(self.cap)},{render_elem(self.slope)})"


DeltaRule = ConstRule | LinearCapRule


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


@dataclass(frozen=True)
class QStepProbe:
    """w(delta) = r * 2**-n with n minimal such that 2**-n < delta/2.

    r is a fixed rational with 1/2 < r**2 < 2, so the probe's band index is
    known exactly (it is n) at every depth.
    """

    r: Fraction

    def __post_init__(self):
        if not Fraction(1, 2) < self.r * self.r < 2:
            raise DomainError(f"step probe pattern {self.r} needs 1/2 < r^2 < 2")

    def witness_for(self, delta: Fraction) -> Fraction:
        return self.r * pow2(-min_dyadic_depth(delta))

    def render(self) -> str:
        return f"qstep({render_elem(self.r)})"


@dataclass(frozen=True)
class QXStepProbe:
    """w(delta) = sign * r * x**(v(delta)+1) with r a positive unit."""

    r: RatFunc
    sign: int = 1

    def __post_init__(self):
        if sign_of(self.r) <= 0 or valuation(self.r) != 0:
            raise DomainError("qx step probe pattern must be a positive unit")
        if self.sign not in (1, -1):
            raise DomainError("probe sign must be +1 or -1")

    def witness_for(self, delta: RatFunc) -> RatFunc:
        w = self.r * x_pow(valuation(delta) + 1)
        return -w if self.sign < 0 else w

    def render(self) -> str:
        s = "+" if self.sign > 0 else "-"
        return f"qxstep({render_elem(self.r)},{s})"


@dataclass(frozen=True)
class TwoSided:
    """Selector pair: use `pos` when the claim's candidate is <= midpoint,
    else `neg`."""

    pos: "WitnessRule"
    neg: "WitnessRule"
    midpoint: object

    def pick(self, candidate) -> "WitnessRule":
        return self.pos if candidate <= self.midpoint else self.neg

    def render(self) -> str:
        return (
            f"two_sided({self.pos.render()},{self.neg.render()},"
            f"{render_elem(self.midpoint)})"
        )


WitnessRule = QStepProbe | QXStepProbe | TwoSided


def parse_rule(s: str, field: Field) -> DeltaRule:
    """Parse a rendered delta-rule, its values in field."""
    name, args = split_call(s)
    if name == "const" and len(args) == 1:
        return ConstRule(parse_elem(field, args[0]))
    if name == "linear_cap" and len(args) == 2:
        return LinearCapRule(parse_elem(field, args[0]), parse_elem(field, args[1]))
    raise ParseError(f"unknown delta rule {s!r}")


def parse_witness(s: str, field: Field) -> WitnessRule:
    """Parse a rendered witness rule (recursively for two_sided), its values
    in field."""
    name, args = split_call(s)
    # each step probe is built for one field; two_sided checks its two sides
    home = {"qstep": Field.Q, "qxstep": Field.QX}.get(name, field)
    if home is not field:
        raise ParseError(f"witness rule {s!r} lives in field {home.value}")
    if name == "qstep" and len(args) == 1:
        return QStepProbe(parse_elem(field, args[0]))
    if name == "qxstep" and len(args) == 2:
        sgn = {"+": 1, "-": -1}.get(args[1])
        if sgn is None:
            raise ParseError(f"bad probe sign {args[1]!r}")
        return QXStepProbe(parse_elem(field, args[0]), sgn)
    if name == "two_sided" and len(args) == 3:
        return TwoSided(
            parse_witness(args[0], field),
            parse_witness(args[1], field),
            parse_elem(field, args[2]),
        )
    raise ParseError(f"unknown witness rule {s!r}")


def split_call(s: str) -> tuple[str, list[str]]:
    """Split `name(a,b,...)` into its name and its top-level arguments;
    commas inside nested parentheses stay with their argument."""
    s = s.strip()
    if not s.endswith(")") or "(" not in s:
        raise ParseError(f"expected name(args) form, got {s!r}")
    name, _, body = s.partition("(")
    body = body[:-1]
    args: list[str] = []
    depth = 0
    cur = []
    for ch in body:
        if ch == "," and depth == 0:
            args.append("".join(cur))
            cur = []
            continue
        if ch == "(":
            depth += 1
            check_nesting(depth + 1)  # the call's own parenthesis is one more
        elif ch == ")":
            depth -= 1
        cur.append(ch)
    if cur or not args:
        args.append("".join(cur))
    return name.strip(), [a.strip() for a in args]
