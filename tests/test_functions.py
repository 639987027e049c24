import dataclasses
from fractions import Fraction as F

import pytest

from ordfield import functions
from ordfield.certs import ConstRule, LinearCapRule
from ordfield.dyadic import class_index
from ordfield.errors import DomainError, UnsupportedDerivativeError
from ordfield.fields import Field
from ordfield.functions import (
    Constant,
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
    fn_name,
    local_constancy,
    parse_fn,
    ratio_bounds_check,
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
        assert parse_fn(fn.field, fn_name(fn)) == fn


def test_fn_name_examples():
    assert fn_name(StepQ()) == "step_q"
    assert fn_name(Quotient(StepQ(), Identity(Field.Q))) == "quotient(step_q,identity)"
    assert fn_name(Power(Field.Q, 2)) == "pow:2"
    assert fn_name(DiffQuotient(StepQ(), F(0))) == "diffq(step_q,0)"


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
    assert dq == fresh and hash(dq) == hash(fresh) and fn_name(dq) == fn_name(fresh)
    assert [f.name for f in dataclasses.fields(dq)] == ["f", "a"]
    # a DomainError at a is raised by every h, not by the construction
    off = DiffQuotient(Quotient(Identity(Field.Q), Identity(Field.Q)), F(0))
    for h in hs:
        with pytest.raises(DomainError, match="quotient denominator vanishes at 0"):
            off.eval_at(h)
