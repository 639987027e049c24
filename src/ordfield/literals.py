"""Recursive-descent parser for field-element literals.

Grammar (whitespace-insensitive; U+2212 is accepted for '-'):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' int)*
    atom   := '-' atom | int | 'x' | '(' expr ')'

Values are computed directly in the requested field, so "5/7" is the exact
rational and "x^2*(1+x)/(2-x)" is a canonical RatFunc.  The Q field rejects
'x'.  Rendering is the inverse: render_elem(parse_elem(field, s)) parses
back to an equal element.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import ParseError, ZeroDenominatorError
from .fields import Field
from .laurent import RF_X, rf_const

_ATOM_STARTS = "digit, 'x', '-' or '('"

# The largest power a literal may ask for, in estimated bits of the result
# (see _power_bits): far above any point, candidate or schedule value a
# claim needs, and far below what would exhaust memory.
MAX_POWER_BITS = 1 << 20

# The deepest nesting of parentheses and unary minus signs in a literal, and
# of parentheses in a function name: far below the recursion limit.
MAX_NESTING = 100


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
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", start)
        return parse_int(self.text[start : self.pos], start)


def parse_elem(field: Field, text: str):
    """Parse a literal into an exact element of the given field."""
    sc = _Scanner(text)
    value = _expr(field, sc, 0)
    if sc.peek() is not None:
        raise ParseError(f"unexpected {sc.peek()!r}", sc.pos)
    return value


def parse_int(text: str, pos: int | None = None) -> int:
    """A decimal integer written on its own, such as the exponent in a
    function name or a schedule depth in a claim file."""
    try:
        return int(text)
    except ValueError:
        # the interpreter's digit limit for int(); 0 means none (also before 3.10.7)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if 0 < limit < len(text):
            raise ParseError(f"integer longer than the {limit}-digit limit", pos) from None
        raise ParseError(f"expected an integer, got {text!r}", pos) from None


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
    """An estimate of the size of value**k in bits, from the |k|-fold
    growth of the base's size: for Q, of its numerator's and denominator's
    bits; for Q(x), of its largest coefficient's bits and of its degree,
    multiplied, since each coefficient of the result can be that large."""
    k = abs(k)
    if isinstance(value, Fraction):
        return k * max(value.numerator.bit_length(), value.denominator.bit_length())
    bits = max(c.bit_length() for c in value.num + value.den)
    degree = max(len(value.num), len(value.den)) - 1
    return (k * degree + 1) * k * bits


def _atom(field: Field, sc: _Scanner, depth: int):
    ch = sc.peek()
    if ch is None:
        raise ParseError(f"expected {_ATOM_STARTS}", sc.pos)
    if ch == "-":
        sc.take()
        return -_atom(field, sc, check_nesting(depth + 1, sc.pos))
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
    if ch.isdigit():
        n = sc.take_int()
        return Fraction(n) if field is Field.Q else rf_const(Fraction(n))
    raise ParseError(f"expected {_ATOM_STARTS}, got {ch!r}", sc.pos)
