from fractions import Fraction as F

from hypothesis import given
from hypothesis import strategies as st

from ordfield.rationals import pow2, render_rat

from field_axioms import check_ordered_field_triple


def test_pow2():
    assert pow2(0) == F(1)
    assert pow2(-3) == F(1, 8)
    assert pow2(5) == F(32)
    assert pow2(-512) * pow2(512) == 1


def test_render():
    assert render_rat(F(-1, 2)) == "-1/2"
    assert render_rat(F(7)) == "7"
    assert render_rat(F(24, 35)) == "24/35"


@given(st.fractions(), st.fractions(), st.fractions())
def test_ordered_field_axioms(a, b, c):
    check_ordered_field_triple(a, b, c, F(0), F(1))
