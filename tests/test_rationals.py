from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordfield.errors import ResourceError, digit_limit
from ordfield.fields import sign_of
from ordfield.claims import _Q_PATTERNS
from ordfield.rationals import pow2, render_rat, scaled

from field_axioms import check_ordered_field_triple


def test_pow2():
    assert pow2(0) == F(1)
    assert pow2(-3) == F(1, 8)
    assert pow2(5) == F(32)
    assert pow2(-512) * pow2(512) == 1


def test_scaled_is_the_canonical_product_it_replaces():
    # the Q probe patterns, the witness patterns 5/7, -5/7, 13/10 and 1, an
    # even numerator the constructor must reduce against 2**n, and zero
    patterns = set(_Q_PATTERNS) | {F(-5, 7), F(13, 10), F(1), F(4, 3), F(-4, 3), F(0)}
    for r in patterns:
        for n in range(-80, 641):
            s = scaled(r, n)
            assert type(s) is F and s == r * pow2(n), (r, n)
            assert s.denominator > 0 and gcd(s.numerator, s.denominator) == 1, (r, n)


def test_render():
    assert render_rat(F(-1, 2)) == "-1/2"
    assert render_rat(F(7)) == "7"
    assert render_rat(F(24, 35)) == "24/35"


HUGE = 10**400 + 7


@pytest.mark.parametrize(
    "a, text",
    [(0, "0"), (7, "7"), (-7, "-7"), (F(6, 2), "3"), (F(-4, 1), "-4"), (F(0), "0"),
     (F(-1, 2), "-1/2"), (F(-24, 35), "-24/35"), (F(HUGE, 3), f"{HUGE}/3"), (F(-1, HUGE), f"-1/{HUGE}")],
)
def test_render_rat_text(a, text):
    # render_rat is str() of its argument: "p" for an int or a denominator
    # of 1, else "p/q", on every supported interpreter
    assert render_rat(a) == text


@pytest.mark.parametrize("sign", [1, -1])
def test_render_rat_past_the_digit_limit_is_refused(sign):
    limit = digit_limit()
    if not limit:
        pytest.skip("this interpreter has no int-to-text digit limit")
    big = sign * 10**limit  # limit + 1 digits
    for a in (big, F(big), F(big, 3), F(sign, big)):
        with pytest.raises(ResourceError, match="too long to print"):
            render_rat(a)


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
