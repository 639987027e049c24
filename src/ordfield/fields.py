"""Field tags and element helpers shared by the claim engine and CLI, and
the base of its immutable value classes.

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


_set = object.__setattr__


class Value:
    """Base of the immutable value classes.  A subclass names its
    positional arguments in FIELDS, in order, and gives the defaults of
    trailing ones in DEFAULTS.  An instance keeps its arguments as one
    tuple, which alone decides equality (same class, equal tuples) and the
    hash; its attributes cannot be assigned or deleted.  `__post_init__`
    checks a new instance."""

    FIELDS: tuple[str, ...] = ()
    DEFAULTS: dict = {}

    def __init__(self, *args):
        names = self.FIELDS
        if len(args) != len(names):
            try:
                args += tuple(self.DEFAULTS[n] for n in names[len(args) :])
            except KeyError as e:
                raise TypeError(f"{type(self).__name__}() needs the argument {e}") from None
            if len(args) != len(names):
                raise TypeError(f"{type(self).__name__}() takes the arguments {names}")
        # set through object.__setattr__, the attributes stay in the
        # instance's compact layout, which reads faster than a __dict__
        _set(self, "_values", args)
        for name, value in zip(names, args):
            _set(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        args = ", ".join(f"{n}={v!r}" for n, v in zip(self.FIELDS, self._values))
        return f"{type(self).__qualname__}({args})"


# the zero of Q: a Fraction is immutable, so every call returns the same one
_Q_ZERO = Fraction(0)


def field_zero(field: Field):
    return _Q_ZERO if field is Field.Q else RF_ZERO


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
