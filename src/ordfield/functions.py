"""The constructed counterexample functions as exactly evaluable symbolic
descriptors.

Functions form a closed enumeration rather than opaque callables so that
certificates and probe generators can introspect their structure and
transcripts can serialize them.  Each descriptor class is one row of the
function table: it owns its field, its evaluator, its constancy radius,
its derivative certificate, its tag and the kinds of its arguments.
`fn_name` and `parse_fn` alone own the name format, and one tag registry
maps names back to classes for `parse_fn`.

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
from dataclasses import dataclass, fields
from fractions import Fraction

from .certs import ConstRule, DeltaRule, LinearCapRule, split_call
from .dyadic import (
    below_sqrt2,
    class_index,
    constancy_radius_q,
    is_outer,
    outer_constancy_radius_q,
    sqrt2_gap_radius,
)
from .errors import DomainError, ParseError, ResourceError, UnsupportedDerivativeError
from .fields import Field, field_one, field_zero, render_elem
from .laurent import RF_ZERO, valuation, x_pow
from .literals import MAX_POWER_BITS, _power_bits, parse_elem, parse_int
from .rationals import pow2


@dataclass(frozen=True)
class DerivativeCert:
    """Closed-form derivative value plus the delta-rule certifying the
    difference-quotient limit claim."""

    value: object
    rule: DeltaRule
    note: str


class FieldFn:
    """Base of the function descriptors.

    A subclass sets TAG (its name in transcripts), `field` and `eval_at`.
    ARGS gives the kind ("fn", "int" or "elem") of each of its dataclass
    fields other than `field`, in field order; `fn_name` writes them and
    `parse_fn` reads them.  One that is locally constant off 0 gives its
    ball radius in `radius_at`; one with a closed-form derivative gives its
    certificate in `derivative_at`.  `envelope` holds the strict bounds
    (lower, upper) on |f(t)/t| of the step functions.
    """

    ARGS: tuple[str, ...] = ()
    envelope = None

    def radius_at(self, t):
        raise DomainError(f"no constancy rule for {fn_name(self)}")

    def derivative_at(self, t) -> DerivativeCert:
        raise UnsupportedDerivativeError(
            f"no closed-form derivative for {fn_name(self)} at {render_elem(t)}"
        )


@dataclass(frozen=True)
class Identity(FieldFn):
    field: Field = Field.Q

    TAG = "identity"

    def eval_at(self, t):
        return t

    def derivative_at(self, t) -> DerivativeCert:
        one = field_one(self.field)
        return DerivativeCert(one, ConstRule(one), "difference quotient is identically 1")


@dataclass(frozen=True)
class Constant(FieldFn):
    field: Field
    value: object

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


@dataclass(frozen=True)
class Power(FieldFn):
    """t**n for n >= 1."""

    field: Field
    n: int

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


@dataclass(frozen=True)
class StepQ(FieldFn):
    """Band representative 2**-n on I_n; 0 at 0."""

    field = Field.Q
    TAG = "step_q"
    envelope = (Fraction(1, 2), Fraction(2))

    def eval_at(self, t):
        if t == 0:
            return Fraction(0)
        return pow2(-class_index(t))

    def radius_at(self, t):
        return constancy_radius_q(t)

    def derivative_at(self, t) -> DerivativeCert:
        if t == 0:
            raise UnsupportedDerivativeError("StepQ(h)/h has no limit at 0")
        return DerivativeCert(
            Fraction(0), ConstRule(self.radius_at(t)), "constant on the band of t"
        )


@dataclass(frozen=True)
class StepQX(FieldFn):
    """Class representative x**v(t); 0 at 0."""

    field = Field.QX
    TAG = "step_qx"
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
        return DerivativeCert(RF_ZERO, ConstRule(self.radius_at(t)), "constant on the class of t")


@dataclass(frozen=True)
class IndicatorCut(FieldFn):
    """Indicator of the cut set {q : q < 0 or q**2 < 2} = (-inf, sqrt 2)."""

    field = Field.Q
    TAG = "indicator_cut"

    def eval_at(self, t):
        return Fraction(1) if below_sqrt2(t) else Fraction(0)

    def radius_at(self, t):
        return sqrt2_gap_radius(t)

    def derivative_at(self, t) -> DerivativeCert:
        return DerivativeCert(
            Fraction(0), ConstRule(self.radius_at(t)), "constant on t's side of sqrt(2)"
        )


@dataclass(frozen=True)
class OuterSquareStep(FieldFn):
    """4**-m on the outer part (3/2 c_m, c_{m-1}) of each band, else 0."""

    field = Field.Q
    TAG = "outer_square_step"

    def eval_at(self, t):
        if t == 0:
            return Fraction(0)
        m = class_index(t)
        return pow2(-2 * m) if is_outer(t, m) else Fraction(0)

    def radius_at(self, t):
        return outer_constancy_radius_q(t)

    def derivative_at(self, t) -> DerivativeCert:
        if t == 0:
            return DerivativeCert(
                Fraction(0),
                LinearCapRule(Fraction(1), Fraction(1)),
                "|f(h)/h| <= (8/9)|h| for every h",
            )
        return DerivativeCert(
            Fraction(0), ConstRule(self.radius_at(t)), "constant on t's piece of its band"
        )


@dataclass(frozen=True)
class Quotient(FieldFn):
    f: FieldFn
    g: FieldFn

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


@dataclass(frozen=True)
class DiffQuotient(FieldFn):
    """h |-> (f(a+h) - f(a)) / h.

    f(a) is evaluated at the first h and kept on the instance outside its
    fields, so equality, hashing and the name stay those of (f, a); a
    DomainError at a is not kept, and fails every h."""

    f: FieldFn
    a: object

    TAG = "diffq"
    ARGS = ("fn", "elem")

    @property
    def field(self) -> Field:
        return self.f.field

    @functools.cached_property
    def _fa(self):
        return evaluate(self.f, self.a)

    def eval_at(self, h):
        if not h:
            raise DomainError("difference quotient needs h != 0")
        fa = self._fa
        return (evaluate(self.f, self.a + h) - fa) / h


_BY_TAG = {cls.TAG: cls for cls in FieldFn.__subclasses__()}


def evaluate(fn: FieldFn, t):
    """Exact value of fn at t; raises DomainError off the domain."""
    return fn.eval_at(t)


@dataclass(frozen=True)
class RatioCheck:
    """Transcript of the two strict envelope comparisons for |f(t)/t|."""

    ratio: object
    lower: object
    upper: object
    passed: bool


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


def fn_name(fn: FieldFn) -> str:
    """Canonical compact name used by the CLI and transcripts: the tag,
    `tag:arg` for one argument, `tag(a,b)` for two.  The arguments are the
    dataclass fields other than `field`, each written by its kind in ARGS."""
    values = [getattr(fn, f.name) for f in fields(fn) if f.name != "field"]
    write = {"fn": fn_name, "int": str, "elem": render_elem}
    args = [write[kind](v) for kind, v in zip(fn.ARGS, values, strict=True)]
    if not args:
        return fn.TAG
    if len(args) == 1:
        return f"{fn.TAG}:{args[0]}"
    return f"{fn.TAG}({','.join(args)})"


def parse_fn(field: Field, s: str) -> FieldFn:
    """Inverse of fn_name for the given field: only the form fn_name
    writes parses, so a one-argument name in call form is refused."""
    s = s.strip()
    tag, colon, arg = s.partition(":")
    call = "(" in tag
    if call:
        tag, args = split_call(s)
    else:
        args = [arg] if colon else []
    cls = _BY_TAG.get(tag)
    if cls is None or len(args) != len(cls.ARGS) or call != (len(args) > 1):
        raise ParseError(f"unknown function name {s!r}")
    read = {"fn": parse_fn, "int": lambda _, a: parse_int(a), "elem": parse_elem}
    values = [read[kind](field, a) for kind, a in zip(cls.ARGS, args)]
    if any(f.name == "field" for f in fields(cls)):
        values.insert(0, field)
    fn = cls(*values)
    if fn.field is not field:
        raise ParseError(f"function {s!r} lives in field {fn.field.value}")
    return fn
