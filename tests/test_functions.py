import importlib
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from ordfield import functions
from ordfield.certs import ConstRule, LinearCapRule, QStepProbe, QXStepProbe, TwoSided
from ordfield.claims import FalsifierCert, VerifierCert
from ordfield.dyadic import class_index, sqrt2_gap_radius
from ordfield.errors import DomainError, ParseError, UnsupportedDerivativeError
from ordfield.fields import Field
from ordfield.functions import (
    FAMILIES,
    Constant,
    DerivativeCert,
    DiffQuotient,
    Identity,
    IndicatorCut,
    OuterSquareStep,
    Power,
    Quotient,
    StepQ,
    StepQX,
    derivative_certificate,
    evaluate,
    local_constancy,
    parse_name,
    ratio_bounds_check,
    render_name,
)
from ordfield.laurent import RF_ONE, RF_X, RF_ZERO, rf_const, x_pow
from ordfield.literals import parse_elem
from ordfield.rationals import pow2

from conftest import rand_nonzero_rat, rand_nonzero_ratfunc


def qx(text):
    return parse_elem(Field.QX, text)


def test_eval_examples():
    assert evaluate(StepQ(), F(0)) == 0
    assert evaluate(StepQ(), F(3, 4)) == 1
    assert evaluate(StepQX(), qx("x^2*(1+x)/(2-x)")) == x_pow(2)
    assert evaluate(IndicatorCut(), F(3, 2)) == 0
    assert evaluate(Power(Field.Q, 2), F(3, 4)) == F(9, 16)


def test_eval_more():
    assert evaluate(StepQX(), RF_ZERO) == RF_ZERO
    assert evaluate(StepQX(), qx("5/(7*x)")) == x_pow(-1)
    assert evaluate(IndicatorCut(), F(-100)) == 1
    assert evaluate(IndicatorCut(), F(1)) == 1
    assert evaluate(IndicatorCut(), F(2)) == 0
    assert evaluate(Identity(Field.Q), F(5, 3)) == F(5, 3)
    assert evaluate(Power(Field.Q, 3), F(-2)) == -8
    assert evaluate(Constant(Field.QX, RF_X), RF_ONE) == RF_X
    assert evaluate(DiffQuotient(Power(Field.Q, 2), F(3, 4)), F(1, 4)) == F(7, 4)
    assert evaluate(Quotient(StepQ(), Identity(Field.Q)), F(3, 4)) == F(4, 3)
    dq = DiffQuotient(StepQ(), F(0))
    assert evaluate(dq, F(5, 7) * pow2(-9)) == F(7, 5)


def test_eval_errors():
    with pytest.raises(DomainError):
        evaluate(Quotient(StepQ(), Identity(Field.Q)), F(0))
    with pytest.raises(DomainError):
        evaluate(DiffQuotient(StepQ(), F(0)), F(0))


def test_step_q_band_values(rng):
    for _ in range(200):
        t = rand_nonzero_rat(rng, bits=24)
        assert evaluate(StepQ(), t) == pow2(-class_index(t))


def test_ratio_bounds_examples():
    rc = ratio_bounds_check(StepQ(), F(5, 7) * pow2(-11))
    assert rc.passed and rc.ratio == F(7, 5)
    rc = ratio_bounds_check(StepQ(), F(-1))
    assert rc.passed and rc.ratio == F(1)
    rc = ratio_bounds_check(StepQX(), qx("3*x^2"))
    assert rc.passed and rc.ratio == rf_const(F(1, 3))
    with pytest.raises(DomainError):
        ratio_bounds_check(StepQ(), F(0))


def test_ratio_bounds_random_q(rng):
    for _ in range(300):
        t = rand_nonzero_rat(rng, bits=40)
        rc = ratio_bounds_check(StepQ(), t)
        assert rc.passed
        assert F(1, 2) < rc.ratio < 2


def test_ratio_bounds_random_qx(rng):
    for _ in range(200):
        t = rand_nonzero_ratfunc(rng)
        rc = ratio_bounds_check(StepQX(), t)
        assert rc.passed
        assert RF_X < rc.ratio < x_pow(-1)


def test_local_constancy_examples():
    assert local_constancy(StepQ(), F(1)) == (F(1), F(1, 4))
    v, r = local_constancy(StepQX(), x_pow(3))
    assert v == x_pow(3) and r == x_pow(3) / 2
    v, r = local_constancy(StepQ(), pow2(-5))
    assert v == pow2(-5) and r == pow2(-5) * F(1, 4)


def test_local_constancy_exact(rng):
    for _ in range(100):
        t = rand_nonzero_rat(rng, bits=16)
        v, r = local_constancy(StepQ(), t)
        for k in range(1, 11):
            h = r * F(k, 11) * (1 if k % 2 else -1)
            assert evaluate(StepQ(), t + h) == v
    for _ in range(60):
        t = rand_nonzero_ratfunc(rng)
        v, r = local_constancy(StepQX(), t)
        for k in range(1, 11):
            h = r * F(k, 11) * (1 if k % 2 else -1)
            assert evaluate(StepQX(), t + h) == v


def test_indicator_cut_is_two_valued_and_gap():
    assert evaluate(IndicatorCut(), F(1)) - evaluate(IndicatorCut(), F(2)) == 1
    for t in (F(-3), F(0), F(7, 5), F(3, 2), F(100)):
        assert evaluate(IndicatorCut(), t) in (F(0), F(1))


def test_derivative_certificate_examples():
    cert = derivative_certificate(StepQ(), F(3, 4))
    assert cert.value == 0
    assert isinstance(cert.rule, ConstRule) and cert.rule.d0 == F(1, 32)
    cert = derivative_certificate(Identity(Field.Q), F(123))
    assert cert.value == 1
    cert = derivative_certificate(OuterSquareStep(), F(0))
    assert cert.value == 0
    assert isinstance(cert.rule, LinearCapRule)
    assert cert.rule.cap == 1 and cert.rule.slope == 1
    # a function locally constant off 0 has derivative 0 there, certified
    # by its constancy ball, with the note naming the piece it is constant on
    for fn, t, note in [
        (StepQ(), F(-5, 14), "constant on the band of t"),
        (StepQX(), rf_const(F(5, 7)) * x_pow(-1), "constant on the class of t"),
        (StepQX(), -RF_X, "constant on the class of t"),
        (IndicatorCut(), F(7, 5), "constant on t's side of sqrt(2)"),
        (IndicatorCut(), F(3, 2), "constant on t's side of sqrt(2)"),
        (OuterSquareStep(), F(13, 10), "constant on t's piece of its band"),
        (OuterSquareStep(), F(-1), "constant on t's piece of its band"),
    ]:
        zero = RF_ZERO if fn.field is Field.QX else F(0)
        cert = derivative_certificate(fn, t)
        assert type(cert.value) is type(zero)
        assert cert == DerivativeCert(zero, ConstRule(fn.radius_at(t)), note)
    # 0 is no cut of the indicator, so its ball at 0 is the one of any point
    cert = derivative_certificate(IndicatorCut(), F(0))
    assert cert == DerivativeCert(F(0), ConstRule(sqrt2_gap_radius(F(0))), "constant on t's side of sqrt(2)")


def test_derivative_certificate_unsupported():
    with pytest.raises(UnsupportedDerivativeError):
        derivative_certificate(StepQ(), F(0))
    with pytest.raises(UnsupportedDerivativeError):
        derivative_certificate(StepQX(), RF_ZERO)
    with pytest.raises(UnsupportedDerivativeError):
        derivative_certificate(DiffQuotient(StepQ(), F(0)), F(1))
    with pytest.raises(UnsupportedDerivativeError):
        derivative_certificate(Quotient(StepQ(), Identity(Field.Q)), F(1))


def test_outer_square_step_values():
    f = OuterSquareStep()
    assert evaluate(f, F(0)) == 0
    assert evaluate(f, F(13, 10)) == 1  # outer: (13/10)^2 = 1.69 > 9/8
    assert evaluate(f, F(1)) == 0  # inner: 1 < 9/8
    assert evaluate(f, F(13, 10) * pow2(-9)) == pow2(-18)
    assert evaluate(f, -F(13, 10) * pow2(-9)) == pow2(-18)


def test_outer_square_step_is_o_of_t_but_not_o_of_t_squared(rng):
    f = OuterSquareStep()
    for _ in range(200):
        t = rand_nonzero_rat(rng, bits=24)
        v = evaluate(f, t)
        assert 9 * v <= 8 * t * t  # |F(t)| <= (8/9) t^2 exactly
        if abs(t) <= 1:
            assert abs(v) < abs(t)
    # but along the outer probes F(t)/t^2 stays >= 1/2
    for m in range(0, 60, 7):
        w = F(13, 10) * pow2(-m)
        assert evaluate(f, w) / w**2 == F(100, 169) >= F(1, 2)


SRC = Path(__file__).resolve().parents[1] / "src" / "ordfield"


def _tagged_classes() -> set[type]:
    """Every class defined in a module of the package that has a TAG."""
    out = set()
    for path in SRC.glob("*.py"):
        if path.stem == "__init__":
            continue
        mod = importlib.import_module(f"ordfield.{path.stem}")
        out.update(
            c
            for c in vars(mod).values()
            if isinstance(c, type) and c.__module__ == mod.__name__ and hasattr(c, "TAG")
        )
    return out


def _family_of(cls: type) -> list[str]:
    return [family for family, table in FAMILIES.items() if table.get(cls.TAG) is cls]


def test_fn_name_roundtrip():
    fns = [
        Identity(Field.Q),
        Constant(Field.Q, F(-7, 5)),
        Constant(Field.QX, qx("x/(1-x)")),
        Power(Field.Q, 4),
        StepQ(),
        StepQX(),
        IndicatorCut(),
        Power(Field.QX, 3),
        Identity(Field.QX),
        OuterSquareStep(),
        Quotient(StepQ(), Identity(Field.Q)),
        DiffQuotient(OuterSquareStep(), F(1, 2)),
        DiffQuotient(Constant(Field.QX, qx("1/(1+x)")), qx("x/(1-x)")),
        Quotient(OuterSquareStep(), Power(Field.Q, 2)),
        DiffQuotient(StepQX(), x_pow(2)),
    ]
    for fn in fns:
        assert parse_name(fn.field, render_name(fn), "function name") == fn


def test_every_named_class_round_trips_in_each_field():
    # a certificate's TAG names its report, not a class: it is no name
    tagged = _tagged_classes()
    assert {c for c in tagged if hasattr(c, "KIND")} == {VerifierCert, FalsifierCert}
    named = {c for c in tagged if not hasattr(c, "KIND")}
    # every named class is in exactly one family table, and every class
    # of a table is named
    assert all(len(_family_of(c)) == 1 for c in named)
    assert named == {c for table in FAMILIES.values() for c in table.values()}
    examples = [
        # functions
        (Field.Q, Identity(Field.Q)),
        (Field.Q, Constant(Field.Q, F(-7, 5))),
        (Field.QX, Constant(Field.QX, qx("x/(1-x)"))),
        (Field.Q, Power(Field.Q, 4)),
        (Field.Q, StepQ()),
        (Field.QX, StepQX()),
        (Field.Q, IndicatorCut()),
        (Field.QX, Power(Field.QX, 3)),
        (Field.QX, Identity(Field.QX)),
        (Field.Q, OuterSquareStep()),
        (Field.Q, Quotient(StepQ(), Identity(Field.Q))),
        (Field.Q, DiffQuotient(OuterSquareStep(), F(1, 2))),
        (Field.QX, DiffQuotient(Constant(Field.QX, qx("1/(1+x)")), qx("x/(1-x)"))),
        (Field.Q, Quotient(OuterSquareStep(), Power(Field.Q, 2))),
        (Field.QX, DiffQuotient(StepQX(), x_pow(2))),
        (Field.QX, Quotient(StepQX(), Identity(Field.QX))),
        # delta rules
        (Field.Q, ConstRule(F(1, 4))),
        (Field.Q, LinearCapRule(F(1), F(1, 2))),
        (Field.QX, LinearCapRule(RF_ONE, RF_X)),
        (Field.QX, ConstRule(qx("x/2"))),
        # witness rules
        (Field.Q, QStepProbe(F(5, 7))),
        (Field.Q, TwoSided(QStepProbe(F(5, 7)), QStepProbe(F(-5, 7)), F(0))),
        (Field.QX, QXStepProbe(RF_ONE, -1)),
        (Field.QX, TwoSided(QXStepProbe(RF_ONE), QXStepProbe(RF_ONE, -1), RF_ZERO)),
    ]
    fields = {c: set() for c in named}
    for field, obj in examples:
        [family] = _family_of(type(obj))
        assert parse_name(field, render_name(obj), family) == obj
        fields[type(obj)].add(field)
    # a class with a home field lives there, every other one in both
    for cls, seen in fields.items():
        home = getattr(cls, "field", None)
        assert seen == ({home} if isinstance(home, Field) else {Field.Q, Field.QX}), cls
    # a function writes one argument tag:a, a rule tag(a); neither reads
    # the other's form
    for family, name in [
        ("delta rule", "const:1"),
        ("witness rule", "qstep:5/7"),
        ("function name", "pow(2)"),
    ]:
        with pytest.raises(ParseError, match=f"^unknown {family} '{re.escape(name)}'$"):
            parse_name(Field.Q, name, family)


def test_fn_name_examples():
    assert render_name(StepQ()) == "step_q"
    assert render_name(Quotient(StepQ(), Identity(Field.Q))) == "quotient(step_q,identity)"
    assert render_name(Power(Field.Q, 2)) == "pow:2"
    assert render_name(DiffQuotient(StepQ(), F(0))) == "diffq(step_q,0)"
    assert render_name(ConstRule(F(1, 2))) == "const(1/2)"
    assert render_name(LinearCapRule(F(1), F(1, 2))) == "linear_cap(1,1/2)"
    assert render_name(QXStepProbe(RF_ONE, -1)) == "qxstep(1,-)"
    two_sided = TwoSided(QStepProbe(F(5, 7)), QStepProbe(F(-5, 7)), F(0))
    assert render_name(two_sided) == "two_sided(qstep(5/7),qstep(-5/7),0)"


def test_variant_validation():
    with pytest.raises(Exception):
        Power(Field.Q, 0)


def test_diff_quotient_evaluates_f_at_a_once(monkeypatch):
    calls = []

    def counted(fn, t):
        calls.append(t)
        return evaluate(fn, t)

    monkeypatch.setattr(functions, "evaluate", counted)
    a = F(1, 3)
    dq = DiffQuotient(Power(Field.Q, 2), a)
    assert not calls  # f(a) waits for the first h
    hs = [pow2(-k) for k in range(1, 6)]
    assert [dq.eval_at(h) for h in hs] == [2 * a + h for h in hs]
    assert calls.count(a) == 1 and len(calls) == len(hs) + 1
    # f(a) is kept outside the fields: equality, hash and name are (f, a)'s
    fresh = DiffQuotient(Power(Field.Q, 2), a)
    assert dq == fresh and hash(dq) == hash(fresh) and render_name(dq) == render_name(fresh)
    assert DiffQuotient.FIELDS == ("f", "a")
    # a DomainError at a is raised by every h, not by the construction
    off = DiffQuotient(Quotient(Identity(Field.Q), Identity(Field.Q)), F(0))
    for h in hs:
        with pytest.raises(DomainError, match="quotient denominator vanishes at 0"):
            off.eval_at(h)
