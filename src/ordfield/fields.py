"""Field tags and element helpers shared by the claim engine and CLI.

Elements of Q are Fractions; elements of Q(x) are RatFuncs.  Both types
carry the full operator protocol, so generic code only needs the tag for
construction, rendering, and schedule defaults.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .errors import DomainError
from .laurent import RF_ONE, RF_ZERO, RatFunc, render_rf, rf_const, rf_sign
from .rationals import render_rat


class Field(enum.Enum):
    Q = "q"
    QX = "qx"


def field_zero(field: Field):
    return Fraction(0) if field is Field.Q else RF_ZERO


def field_one(field: Field):
    return Fraction(1) if field is Field.Q else RF_ONE


def from_rat(field: Field, c: Fraction):
    return c if field is Field.Q else rf_const(c)


def sign_of(e) -> int:
    """The sign of a RatFunc, a Fraction or an int; a rational's is its
    numerator's, which spares Fraction's comparison protocol."""
    if isinstance(e, RatFunc):
        return rf_sign(e)
    n = e.numerator
    return 1 if n > 0 else (-1 if n < 0 else 0)


def check_elem(field: Field, e) -> None:
    ok = isinstance(e, Fraction) if field is Field.Q else isinstance(e, RatFunc)
    if not ok:
        raise DomainError(f"element {e!r} does not belong to field {field.value}")


def render_elem(e, compact: bool = True) -> str:
    if isinstance(e, RatFunc):
        return render_rf(e, compact)
    return render_rat(e)
