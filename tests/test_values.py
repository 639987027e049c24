"""The immutable value classes: certificates, claims, reports, function
descriptors and records all share `fields.Value`."""

from fractions import Fraction as F

import pytest

import ordfield.cli  # noqa: F401  (every module of the package is loaded)
from ordfield.certs import ConstRule, LinearCapRule, QStepProbe, QXStepProbe, TwoSided
from ordfield.claims import Check, FalsifierCert, LimitClaim, RefereeReport, VerifierCert
from ordfield.demos import Record
from ordfield.errors import DomainError
from ordfield.fields import Field, Value
from ordfield.functions import (
    Constant,
    DerivativeCert,
    DiffQuotient,
    FieldFn,
    Identity,
    IndicatorCut,
    OuterSquareStep,
    Power,
    Quotient,
    RatioCheck,
    StepQ,
    StepQX,
    evaluate,
)
from ordfield.laurent import RF_ONE

CLAIM = LimitClaim(StepQ(), F(0), F(0))
VERIFIER = VerifierCert(CLAIM, ConstRule(F(1)))
PROBE = QStepProbe(F(1))

# (class, arguments, other arguments): each class with two argument lists
# that make unequal instances; a class without fields has no second list
EXAMPLES = [
    (ConstRule, (F(1),), (F(2),)),
    (LinearCapRule, (F(1), F(1)), (F(1), F(1, 2))),
    (QStepProbe, (F(1),), (F(5, 7),)),
    (QXStepProbe, (RF_ONE, 1), (RF_ONE, -1)),
    (TwoSided, (PROBE, QStepProbe(F(5, 7)), F(0)), (PROBE, PROBE, F(0))),
    (LimitClaim, (StepQ(), F(0), F(0)), (StepQ(), F(0), F(1))),
    (VerifierCert, (CLAIM, ConstRule(F(1)), ""), (CLAIM, ConstRule(F(1)), "note")),
    (FalsifierCert, (CLAIM, F(1, 2), PROBE), (CLAIM, F(1, 4), PROBE)),
    (RefereeReport, (VERIFIER, (), (), ()), (VERIFIER, (), (), ((F(1), 0, ()),))),
    (Check, (VERIFIER, (F(1),), 2), (VERIFIER, (F(1),), 3)),
    (Record, ("mvt", (("a", 1),), None), ("mvt", (("a", 1),), True)),
    (DerivativeCert, (F(0), ConstRule(F(1)), "n"), (F(1), ConstRule(F(1)), "n")),
    (Identity, (Field.Q,), (Field.QX,)),
    (Constant, (Field.Q, F(1)), (Field.Q, F(2))),
    (Power, (Field.Q, 2), (Field.Q, 3)),
    (StepQ, (), None),
    (StepQX, (), None),
    (IndicatorCut, (), None),
    (OuterSquareStep, (), None),
    (Quotient, (StepQ(), Identity()), (Identity(), StepQ())),
    (DiffQuotient, (StepQ(), F(0)), (StepQ(), F(1))),
    (RatioCheck, (F(1), F(1, 2), F(2), True), (F(1), F(1, 2), F(2), False)),
]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_class_has_an_example():
    package = {c for c in _subclasses(Value) if c.__module__.startswith("ordfield.")}
    assert package - {FieldFn} == {cls for cls, _, _ in EXAMPLES}


@pytest.mark.parametrize("cls, args, other", EXAMPLES, ids=[e[0].__name__ for e in EXAMPLES])
def test_value_semantics(cls, args, other):
    a, same = cls(*args), cls(*args)
    assert a is not same and a == same and not a != same
    assert hash(a) == hash(same)
    assert [getattr(a, name) for name in cls.FIELDS] == list(args)
    if other is not None:
        b = cls(*other)
        assert a != b and not a == b

    # a subclass with the same fields is another class: never equal
    class Twin(cls):
        pass

    assert a != Twin(*args) and Twin(*args) != a
    assert a != args

    for name in cls.FIELDS + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == same


def test_fieldless_functions_are_pairwise_unequal():
    fns = [StepQ(), IndicatorCut(), OuterSquareStep(), StepQX()]
    for i, f in enumerate(fns):
        for j, g in enumerate(fns):
            assert (f == g) == (i == j)
    assert len(set(fns)) == len(fns)


def test_defaults_and_arity():
    assert QXStepProbe(RF_ONE) == QXStepProbe(RF_ONE, 1) != QXStepProbe(RF_ONE, -1)
    assert Identity() == Identity(Field.Q) and Check(VERIFIER, ()).budget == 2
    assert Record("k", ()).outcome is None and VERIFIER.note == ""
    with pytest.raises(TypeError, match="needs the argument 'd0'"):
        ConstRule()
    with pytest.raises(TypeError, match="needs the argument 'schedule'"):
        Check(VERIFIER)
    with pytest.raises(TypeError, match="takes the arguments"):
        ConstRule(F(1), F(2))


def test_post_init_checks_run():
    with pytest.raises(DomainError, match="1/2 < r\\^2 < 2"):
        QStepProbe(F(3))
    with pytest.raises(DomainError, match="at least 1"):
        Power(Field.Q, 0)


def test_repr_names_the_fields():
    assert repr(ConstRule(F(1))) == "ConstRule(d0=Fraction(1, 1))"
    assert repr(StepQ()) == "StepQ()"


def test_diff_quotient_cache_stays_out_of_equality_and_hash():
    dq = DiffQuotient(Power(Field.Q, 2), F(1, 3))
    fresh = DiffQuotient(Power(Field.Q, 2), F(1, 3))
    before = (hash(dq), repr(dq))
    assert evaluate(dq, F(1, 2)) == F(2, 3) + F(1, 2)
    assert "_fa" in vars(dq) and "_fa" not in vars(fresh)
    assert dq == fresh and hash(dq) == hash(fresh) == before[0]
    assert repr(dq) == before[1]
