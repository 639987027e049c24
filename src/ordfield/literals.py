"""Recursive-descent parser for field-element literals.

Grammar (whitespace-insensitive; U+2212 is accepted for '-'):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ('^' int)*
    atom   := int | 'x' | '(' expr ')'

A power binds tighter than a unary minus: "-x^2" is -(x^2), as
render_elem writes it.

Values are computed directly in the requested field, so "5/7" is the exact
rational and "x^2*(1+x)/(2-x)" is a canonical RatFunc.  The Q field rejects
'x'.  Rendering is the inverse: render_elem(parse_elem(field, s)) parses
back to an equal element.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, ZeroDenominatorError, digit_limit
from .fields import Field, from_rat
from .laurent import RF_X

_ATOM_STARTS = "digit, 'x', '-' or '('"

# The largest power a literal may ask for, in estimated bits of the result
# (see _power_bits): far above any point, candidate or schedule value a
# claim needs, and far below what would exhaust memory.
MAX_POWER_BITS = 1 << 20

# The deepest nesting of parentheses and unary minus signs in a literal, and
# of parentheses in a function name: far below the recursion limit.
MAX_NESTING = 100

# The one integer grammar of literals, function names and record fields.
_INT = re.compile(r"-?[0-9]+")


class _Scanner:
    def __init__(self, text: str):
        self.text = text.replace("−", "-")
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take(self) -> str:
        ch = self.peek()
        if ch is None:
            raise ParseError("unexpected end of input", self.pos)
        self.pos += 1
        return ch

    def take_int(self) -> int:
        self.skip_ws()
        start = self.pos
        m = _INT.match(self.text, start)
        if m is None:
            raise ParseError("expected an integer", start)
        self.pos = m.end()
        return parse_int(m.group(), start)


def parse_elem(field: Field, text: str):
    """Parse a literal into an exact element of the given field."""
    sc = _Scanner(text)
    value = _expr(field, sc, 0)
    if sc.peek() is not None:
        raise ParseError(f"unexpected {sc.peek()!r}", sc.pos)
    return value


def parse_int(text: str, pos: int | None = None) -> int:
    """A decimal integer written on its own, such as the exponent in a
    function name or a schedule depth in a claim file: ASCII digits with an
    optional leading '-', nothing else."""
    if not _INT.fullmatch(text):
        raise ParseError(f"expected an integer, got {text!r}", pos)
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer longer than the {digit_limit()}-digit limit", pos) from None


def check_nesting(depth: int, pos: int | None = None) -> int:
    """depth, refused past MAX_NESTING."""
    if depth > MAX_NESTING:
        raise ParseError(f"nested deeper than the {MAX_NESTING}-level limit", pos)
    return depth


def _expr(field: Field, sc: _Scanner, depth: int):
    value = _term(field, sc, depth)
    while sc.peek() in ("+", "-"):
        op = sc.take()
        rhs = _term(field, sc, depth)
        value = value + rhs if op == "+" else value - rhs
    return value


def _term(field: Field, sc: _Scanner, depth: int):
    value = _factor(field, sc, depth)
    while sc.peek() in ("*", "/"):
        op = sc.take()
        rhs = _factor(field, sc, depth)
        if op == "*":
            value = value * rhs
        elif not rhs:
            raise ZeroDenominatorError("division by zero")
        else:
            value = value / rhs
    return value


def _factor(field: Field, sc: _Scanner, depth: int):
    if sc.peek() == "-":
        sc.take()
        return -_factor(field, sc, check_nesting(depth + 1, sc.pos))
    value = _atom(field, sc, depth)
    while sc.peek() == "^":
        sc.take()
        pos = sc.pos
        k = sc.take_int()
        if k < 0 and not value:
            raise ZeroDenominatorError("zero raised to a negative power")
        if _power_bits(value, k) > MAX_POWER_BITS:
            raise ParseError(
                f"power ^{k} would exceed the {MAX_POWER_BITS}-bit size limit", pos
            )
        value = value**k
    return value


def _power_bits(value, k: int) -> int:
    """An estimate of the size of value**k in bits, never below it by more
    than a bit per coefficient.  For Q: |k| times the bits of the base's
    numerator or denominator.  For Q(x): each coefficient of p**|k| is at
    most ||p||_1**|k| (||p||_1 the sum of p's absolute coefficients), so the
    result's num and den each have at most |k|*deg(p) + 1 coefficients of
    |k|*ceil(log2 ||p||_1) bits; the larger of the two products counts.
    deg(p) counts the x-power the normal form keeps apart (num's when the
    valuation v > 0, den's when v < 0): x**k alone stays small, but a sum
    such as 1 + x**k is dense again."""
    k = abs(k)
    if isinstance(value, Fraction):
        return k * max(value.numerator.bit_length(), value.denominator.bit_length())
    v = value.v
    return max(
        (k * (len(p) - 1 + s) + 1) * max(1, k * (sum(map(abs, p)) - 1).bit_length())
        for p, s in ((value.num, max(v, 0)), (value.den, max(-v, 0)))
        if p
    )


def _atom(field: Field, sc: _Scanner, depth: int):
    ch = sc.peek()
    if ch is None:
        raise ParseError(f"expected {_ATOM_STARTS}", sc.pos)
    if ch == "(":
        sc.take()
        value = _expr(field, sc, check_nesting(depth + 1, sc.pos))
        if sc.peek() != ")":
            raise ParseError("expected ')'", sc.pos)
        sc.take()
        return value
    if ch == "x":
        if field is Field.Q:
            raise ParseError("variable 'x' is not allowed in field q", sc.pos)
        sc.take()
        return RF_X
    if "0" <= ch <= "9":
        return from_rat(field, Fraction(sc.take_int()))
    raise ParseError(f"expected {_ATOM_STARTS}, got {ch!r}", sc.pos)
