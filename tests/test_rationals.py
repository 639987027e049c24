from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordfield.fields import sign_of
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


HUGE = 10**400 + 7


@pytest.mark.parametrize(
    "e",
    [0, 1, -1, HUGE, -HUGE, F(0), F(1), F(-1), F(HUGE, 3), F(-HUGE, 3), F(1, HUGE), F(-1, HUGE),
     F(HUGE, HUGE + 2), F(-HUGE - 2, HUGE)],
)
def test_sign_of_matches_fraction_comparison(e):
    assert sign_of(e) == (F(e) > 0) - (F(e) < 0)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.fractions(), st.fractions(), st.fractions())
def test_ordered_field_axioms(a, b, c):
    check_ordered_field_triple(a, b, c, F(0), F(1))
