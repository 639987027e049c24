"""The constructed counterexample functions as exactly evaluable symbolic
descriptors.

Functions form a closed enumeration rather than opaque callables so that
certificates and probe generators can introspect their structure and
transcripts can serialize them.  Each descriptor class is one row of the
function table: it owns its field, its evaluator, its constancy radius,
its derivative certificate, its tag and the kinds of its arguments.

This module owns the name format of functions and of the certificate
rules in `certs` alike: `render_name` writes every name and `parse_name`
reads it back, looking its tag up in one of the three family tables of
FAMILIES (function names, delta rules, witness rules).

The step functions return the canonical representative of the band/class
of their argument (2**-n for the dyadic band I_n in Q, x**v for valuation
v in Q(x)); both are locally constant off 0 and squeezed between linear
envelopes, which is exactly what makes their difference quotients vanish
while f(t)/t stays bounded away from 0.

OuterSquareStep is the Peano counterexample: it jumps at the irrational
in-band cut 3/2 * c_m and takes the value 4**-m (the square of the band
scale) on the outer part.  It is therefore o(t) but not o(t**2), while
still being locally constant off 0; every derivative at 0 exists and is 0,
so its degree-n Taylor polynomial vanishes for every n although the Peano
remainder claim fails from n = 2 on.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .certs import ConstRule, LinearCapRule, QStepProbe, QXStepProbe, TwoSided
from .dyadic import (
    below_sqrt2,
    class_index,
    constancy_radius_q,
    is_outer,
    outer_constancy_radius_q,
    sqrt2_gap_radius,
)
from .errors import DomainError, ParseError, ResourceError, UnsupportedDerivativeError
from .fields import Field, Value, field_one, field_zero, render_elem
from .laurent import RF_ZERO, valuation, x_pow
from .literals import MAX_POWER_BITS, _power_bits, check_nesting, parse_elem, parse_int
from .rationals import pow2

# the values 0 and 1 of the Q step functions: a Fraction is immutable, so
# every evaluation returns the same one
_ZERO = Fraction(0)
_ONE = Fraction(1)


class DerivativeCert(Value):
    """Closed-form derivative value plus the delta-rule certifying the
    difference-quotient limit claim."""

    FIELDS = ("value", "rule", "note")


class FieldFn(Value):
    """Base of the function descriptors.

    A subclass sets TAG (its name in transcripts), `field` and `eval_at`.
    ARGS gives the kind ("fn", "int" or "elem") of each of its FIELDS
    other than `field`, in FIELDS order; `render_name` writes them and
    `parse_name` reads them.  One that is locally constant off 0 gives its
    ball radius in `radius_at` and, in PIECE, the note of its certificate
    f' = 0 on that ball; one with another closed-form derivative gives its
    certificate in `derivative_at`.  `envelope` holds the strict bounds
    (lower, upper) on |f(t)/t| of the step functions.
    """

    ARGS: tuple[str, ...] = ()
    COLON = True  # one argument is written tag:a, where a rule writes tag(a)
    PIECE = None
    envelope = None

    def radius_at(self, t):
        raise DomainError(f"no constancy rule for {render_name(self)}")

    def derivative_at(self, t) -> DerivativeCert:
        if self.PIECE is None:
            raise UnsupportedDerivativeError(
                f"no closed-form derivative for {render_name(self)} at {render_elem(t)}"
            )
        return DerivativeCert(field_zero(self.field), ConstRule(self.radius_at(t)), self.PIECE)


class Identity(FieldFn):
    FIELDS = ("field",)
    DEFAULTS = {"field": Field.Q}
    TAG = "identity"

    def eval_at(self, t):
        return t

    def derivative_at(self, t) -> DerivativeCert:
        one = field_one(self.field)
        return DerivativeCert(one, ConstRule(one), "difference quotient is identically 1")


class Constant(FieldFn):
    FIELDS = ("field", "value")
    TAG = "constant"
    ARGS = ("elem",)

    def eval_at(self, t):
        return self.value

    def derivative_at(self, t) -> DerivativeCert:
        return DerivativeCert(
            field_zero(self.field),
            ConstRule(field_one(self.field)),
            "difference quotient is identically 0",
        )


class Power(FieldFn):
    """t**n for n >= 1."""

    FIELDS = ("field", "n")
    TAG = "pow"
    ARGS = ("int",)

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("power exponent must be at least 1")

    def eval_at(self, t):
        if _power_bits(t, self.n) > MAX_POWER_BITS:
            raise ResourceError(
                f"power ^{self.n} would exceed the {MAX_POWER_BITS}-bit size limit"
            )
        return t**self.n

    def derivative_at(self, a) -> DerivativeCert:
        n = self.n
        one = field_one(self.field)
        if n == 1:
            return DerivativeCert(one, ConstRule(one), "difference quotient is identically 1")
        bound = sum(
            (math.comb(n, k) * abs(a) ** (n - k) for k in range(2, n + 1)),
            field_zero(self.field),
        )
        return DerivativeCert(
            n * a ** (n - 1),
            LinearCapRule(one, one / bound),
            "binomial tail bound for |h| <= 1",
        )


class StepQ(FieldFn):
    """Band representative 2**-n on I_n; 0 at 0."""

    field = Field.Q
    TAG = "step_q"
    PIECE = "constant on the band of t"
    envelope = (Fraction(1, 2), Fraction(2))

    def eval_at(self, t):
        if not t:
            return _ZERO
        return pow2(-class_index(t))

    def radius_at(self, t):
        return constancy_radius_q(t)

    def derivative_at(self, t) -> DerivativeCert:
        if t == 0:
            raise UnsupportedDerivativeError("StepQ(h)/h has no limit at 0")
        return super().derivative_at(t)


class StepQX(FieldFn):
    """Class representative x**v(t); 0 at 0."""

    field = Field.QX
    TAG = "step_qx"
    PIECE = "constant on the class of t"
    envelope = (x_pow(1), x_pow(-1))

    def eval_at(self, t):
        if not t:
            return RF_ZERO
        return x_pow(valuation(t))

    def radius_at(self, t):
        return abs(t) / 2

    def derivative_at(self, t) -> DerivativeCert:
        if not t:
            raise UnsupportedDerivativeError("StepQX(h)/h has no limit at 0")
        return super().derivative_at(t)


class IndicatorCut(FieldFn):
    """Indicator of the cut set {q : q < 0 or q**2 < 2} = (-inf, sqrt 2)."""

    field = Field.Q
    TAG = "indicator_cut"
    PIECE = "constant on t's side of sqrt(2)"

    def eval_at(self, t):
        return _ONE if below_sqrt2(t) else _ZERO

    def radius_at(self, t):
        return sqrt2_gap_radius(t)


class OuterSquareStep(FieldFn):
    """4**-m on the outer part (3/2 c_m, c_{m-1}) of each band, else 0."""

    field = Field.Q
    TAG = "outer_square_step"
    PIECE = "constant on t's piece of its band"

    def eval_at(self, t):
        if not t:
            return _ZERO
        m = class_index(t)
        return pow2(-2 * m) if is_outer(t, m) else _ZERO

    def radius_at(self, t):
        return outer_constancy_radius_q(t)

    def derivative_at(self, t) -> DerivativeCert:
        if t == 0:
            return DerivativeCert(
                Fraction(0),
                LinearCapRule(Fraction(1), Fraction(1)),
                "|f(h)/h| <= (8/9)|h| for every h",
            )
        return super().derivative_at(t)


class Quotient(FieldFn):
    FIELDS = ("f", "g")
    TAG = "quotient"
    ARGS = ("fn", "fn")

    @property
    def field(self) -> Field:
        return self.f.field

    def eval_at(self, t):
        g = evaluate(self.g, t)
        if not g:
            raise DomainError(f"quotient denominator vanishes at {render_elem(t)}")
        return evaluate(self.f, t) / g


class DiffQuotient(FieldFn):
    """h |-> (f(a+h) - f(a)) / h.

    f(a) is evaluated at the first h and kept on the instance outside its
    fields, so equality, hashing and the name stay those of (f, a); a
    DomainError at a is not kept, and fails every h.  Whether a and f(a)
    are zero is tested once, beside f(a): a zero one is kept as None, and
    each h then skips adding or subtracting it, which would only copy the
    other operand."""

    FIELDS = ("f", "a")
    TAG = "diffq"
    ARGS = ("fn", "elem")

    @property
    def field(self) -> Field:
        return self.f.field

    @functools.cached_property
    def _fa(self) -> tuple:
        """(a, f(a)), each None when it is zero."""
        return self.a or None, evaluate(self.f, self.a) or None

    def eval_at(self, h):
        if not h:
            raise DomainError("difference quotient needs h != 0")
        a, fa = self._fa
        fh = evaluate(self.f, h if a is None else a + h)
        return (fh if fa is None else fh - fa) / h


# the three families of names: each maps a tag to its class
FAMILIES = {
    "function name": {cls.TAG: cls for cls in FieldFn.__subclasses__()},
    "delta rule": {cls.TAG: cls for cls in (ConstRule, LinearCapRule)},
    "witness rule": {cls.TAG: cls for cls in (QStepProbe, QXStepProbe, TwoSided)},
}


def evaluate(fn: FieldFn, t):
    """Exact value of fn at t; raises DomainError off the domain."""
    return fn.eval_at(t)


class RatioCheck(Value):
    """Transcript of the two strict envelope comparisons for |f(t)/t|."""

    FIELDS = ("ratio", "lower", "upper", "passed")


def ratio_bounds_check(fn: FieldFn, t) -> RatioCheck:
    """Check lower < |f(t)/t| < upper exactly, with the envelopes 1/2, 2 in
    Q and x, 1/x in Q(x)."""
    if not t:
        raise DomainError("envelope ratio needs t != 0")
    if fn.envelope is None:
        raise DomainError("envelope bounds are defined for the step functions")
    lower, upper = fn.envelope
    ratio = abs(evaluate(fn, t) / t)
    return RatioCheck(ratio, lower, upper, lower < ratio and ratio < upper)


def local_constancy(fn: FieldFn, t):
    """A (value, radius) pair with fn constant (= value) on the open ball of
    that radius around t != 0."""
    if not t:
        raise DomainError("no constancy ball around 0")
    return evaluate(fn, t), fn.radius_at(t)


def derivative_certificate(fn: FieldFn, t) -> DerivativeCert:
    """Exact derivative of fn at t with a delta-rule for the claim
    lim_{h->0} (f(t+h)-f(t))/h = value.  Raises UnsupportedDerivativeError
    outside the closed-form table (in particular for the step functions at
    0, where the limit does not exist)."""
    return fn.derivative_at(t)


def render_name(obj) -> str:
    """The name of a function, delta rule or witness rule, as transcripts
    and claim files write it: the bare tag with no arguments, else the
    arguments written by their kinds in ARGS, `tag(a,b)`.  One argument
    is written `tag:a` by a class that sets COLON (the functions) and
    `tag(a)` by the others (the rules).  The arguments are its FIELDS
    other than `field`."""
    values = [getattr(obj, name) for name in obj.FIELDS if name != "field"]
    write = {"fn": render_name, "witness": render_name, "int": str, "elem": render_elem}
    write["sign"] = lambda sign: "+" if sign > 0 else "-"
    args = [write[kind](v) for kind, v in zip(obj.ARGS, values, strict=True)]
    if not args:
        return obj.TAG
    if len(args) == 1 and getattr(obj, "COLON", False):
        return f"{obj.TAG}:{args[0]}"
    return f"{obj.TAG}({','.join(args)})"


def _parse_sign(s: str) -> int:
    sign = {"+": 1, "-": -1}.get(s)
    if sign is None:
        raise ParseError(f"bad probe sign {s!r}")
    return sign


def parse_name(field: Field, s: str, family: str):
    """Inverse of render_name: the member of `family` (a key of FAMILIES)
    that s names, its values read in field.  Only the form render_name
    writes parses.  The tag, the home field of a class that has one and
    the argument count and form are checked before any argument is read,
    the arguments then left to right by kind."""
    s = s.strip()
    tag, colon, arg = s.partition(":")
    call = "(" in tag
    if call:
        tag, args = _split_call(s)
    else:
        args = [arg] if colon else []
    cls = FAMILIES[family].get(tag)
    if cls is None:
        raise ParseError(f"unknown {family} {s!r}")
    home = getattr(cls, "field", field)
    if isinstance(home, Field) and home is not field:
        raise ParseError(f"{family} {s!r} lives in field {home.value}")
    n = len(cls.ARGS)
    if len(args) != n or call != (n > 1 or n == 1 and not getattr(cls, "COLON", False)):
        raise ParseError(f"unknown {family} {s!r}")
    read = {
        "fn": lambda a: parse_name(field, a, "function name"),
        "witness": lambda a: parse_name(field, a, "witness rule"),
        "int": parse_int,
        "elem": lambda a: parse_elem(field, a),
        "sign": _parse_sign,
    }
    values = [read[kind](a) for kind, a in zip(cls.ARGS, args)]
    if "field" in cls.FIELDS:
        values.insert(0, field)
    return cls(*values)


def _split_call(s: str) -> tuple[str, list[str]]:
    """Split `name(a,b,...)` into its name and its top-level arguments,
    every one of them, an empty last one too; commas inside nested
    parentheses stay with their argument."""
    if not s.endswith(")"):
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
    args.append("".join(cur))
    return name.strip(), [a.strip() for a in args]
