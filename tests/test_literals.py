import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordfield.cli import main
from ordfield.errors import ParseError, ZeroDenominatorError
from ordfield.fields import Field, render_elem
from ordfield.laurent import RF_X, rf_normalize, poly, valuation, x_pow
from ordfield.literals import MAX_NESTING, MAX_POWER_BITS, parse_elem, parse_int
from ordfield.rationals import pow2

from conftest import rand_ratfunc


def test_q_examples():
    assert parse_elem(Field.Q, "-7/5") == F(-7, 5)
    assert parse_elem(Field.Q, "−7/5") == F(-7, 5)  # unicode minus
    assert parse_elem(Field.Q, "2/-4") == F(-1, 2)
    assert parse_elem(Field.Q, "7") == 7
    assert parse_elem(Field.Q, "7/1") == 7
    assert parse_elem(Field.Q, "(1 + 1/2) * 2/3") == 1
    assert parse_elem(Field.Q, "2^-5") == F(1, 32)


def test_qx_examples():
    f = parse_elem(Field.QX, "x^2*(1+x)/(2-x)")
    assert valuation(f) == 2
    assert f == rf_normalize(poly([0, 0, 1, 1]), poly([2, -1]))
    assert parse_elem(Field.QX, "x") == RF_X
    assert parse_elem(Field.QX, "1/x") == x_pow(-1)
    assert parse_elem(Field.QX, "x^2/(x - x^2)") == parse_elem(Field.QX, "x/(1-x)")
    assert parse_elem(Field.QX, "-x + 1") == parse_elem(Field.QX, "1 - x")


def test_x_rejected_in_q():
    with pytest.raises(ParseError):
        parse_elem(Field.Q, "x + 1")


def test_syntax_errors_carry_position():
    with pytest.raises(ParseError) as ei:
        parse_elem(Field.Q, "1 + ")
    assert ei.value.pos is not None
    with pytest.raises(ParseError):
        parse_elem(Field.Q, "")
    with pytest.raises(ParseError):
        parse_elem(Field.Q, "(1 + 2")
    with pytest.raises(ParseError):
        parse_elem(Field.Q, "1 2")
    with pytest.raises(ParseError):
        parse_elem(Field.QX, "x^")


def test_division_by_zero_polynomial():
    with pytest.raises(ZeroDenominatorError):
        parse_elem(Field.QX, "1/(x - x)")
    with pytest.raises(ZeroDenominatorError):
        parse_elem(Field.Q, "1/0")
    with pytest.raises(ZeroDenominatorError):
        parse_elem(Field.QX, "(x+1)^-1 * x / (0*x)")


def test_precedence():
    assert parse_elem(Field.Q, "1 + 2 * 3^2") == 19
    assert parse_elem(Field.Q, "2/4/2") == F(1, 4)
    assert parse_elem(Field.QX, "2*x^2") == 2 * x_pow(2)
    assert parse_elem(Field.QX, "(1+x)^2") == parse_elem(Field.QX, "1 + 2*x + x^2")
    assert parse_elem(Field.QX, "x^-2") == x_pow(-2)


@given(st.fractions())
def test_q_roundtrip(q):
    assert parse_elem(Field.Q, render_elem(q)) == q


def test_qx_roundtrip(rng):
    for _ in range(300):
        f = rand_ratfunc(rng, max_deg=3)
        assert parse_elem(Field.QX, render_elem(f)) == f
        assert parse_elem(Field.QX, render_elem(f, compact=False)) == f


def test_oversized_powers_refused(capsys):
    for field, text in (
        ("q", "2^99999999999"),
        ("qx", "x^99999999999"),
        ("q", "2^65536^65536"),
        ("qx", "(1+x)^-99999999999"),
    ):
        t0 = time.perf_counter()
        assert main(["eval", "--field", field, text]) == 2, text
        assert time.perf_counter() - t0 < 1, text
        assert "size limit" in capsys.readouterr().err


def test_power_size_limit_boundary():
    # 2 has 2 bits; x has degree 1 and 1-bit coefficients
    assert MAX_POWER_BITS == 1 << 20
    assert parse_elem(Field.Q, "2^524288") == pow2(524288)
    assert parse_elem(Field.Q, "2^-524288") == pow2(-524288)
    with pytest.raises(ParseError):
        parse_elem(Field.Q, "2^524289")
    assert parse_elem(Field.QX, "x^1023") == x_pow(1023)
    with pytest.raises(ParseError):
        parse_elem(Field.QX, "x^1024")


def _refused_fast(capsys, text):
    t0 = time.perf_counter()
    assert main(["eval", "--field", "q", "--", text]) == 2
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert err.startswith("ordfield: ") and err.count("\n") == 1
    return err


def test_nesting_cap():
    deepest = "(" * MAX_NESTING + "1" + ")" * MAX_NESTING
    assert parse_elem(Field.Q, deepest) == 1
    assert parse_elem(Field.Q, "-" * MAX_NESTING + "1") == 1
    # parentheses and unary minus signs count together
    half = MAX_NESTING // 2
    assert parse_elem(Field.QX, "-(" * half + "x" + ")" * half) == RF_X
    for text in (
        "(" + deepest + ")",
        "-" * (MAX_NESTING + 1) + "1",
        "-(" * half + "-x" + ")" * half,
        "1 - " + "-" * (MAX_NESTING + 1) + "1",
    ):
        with pytest.raises(ParseError, match="limit"):
            parse_elem(Field.QX, text)


def test_deep_nesting_exits_2(capsys):
    for text in ("(" * 900 + "1" + ")" * 900, "-" * 5000 + "1"):
        assert f"{MAX_NESTING}-level limit" in _refused_fast(capsys, text)


def test_integer_past_the_digit_limit_exits_2(capsys):
    limit = sys.get_int_max_str_digits()
    assert parse_elem(Field.Q, "7" * limit) == int("7" * limit)
    digits = "7" * (limit + 1)
    err = _refused_fast(capsys, digits)
    assert f"{limit}-digit limit" in err and len(err) < 100
    with pytest.raises(ParseError, match=f"{limit}-digit limit") as ei:
        parse_int(digits)
    assert len(str(ei.value)) < 100
    with pytest.raises(ParseError, match="expected an integer, got 'abc'"):
        parse_int("abc")
