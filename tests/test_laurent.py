import math
import operator
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ordfield.claims import Check, FalsifierCert, check_falsifier, check_verifier
from ordfield.demos import demo_dlim
from ordfield.errors import DomainError, ZeroDenominatorError
from ordfield.fields import Field
from ordfield.laurent import (
    P_ONE,
    RF_ONE,
    RF_X,
    RF_ZERO,
    dominates,
    _p_add,
    _p_mul,
    _p_neg,
    poly,
    render_poly,
    render_rf,
    rf_add,
    rf_div,
    rf_inv,
    rf_mul,
    rf_const,
    rf_normalize,
    rf_sign,
    rf_sub,
    same_class,
    valuation,
    x_pow,
)
from ordfield.literals import parse_elem
from ordfield import laurent

from conftest import accept_rf, rand_nonzero_ratfunc, rand_poly, rand_ratfunc, wide_ratfuncs
from field_axioms import check_ordered_field_triple
from oracle_series import expand, s_add, s_div, s_mul, s_sub, series_equal
import oracle_qx
from oracle_qx import dense


def qx(text):
    return parse_elem(Field.QX, text)


def test_poly_arith_examples():
    assert _p_mul(poly([1, 1]), poly([1, -1])) == poly([1, 0, -1])
    assert _p_add(poly([2, 0, 5]), poly([])) == poly([2, 0, 5])
    assert _p_add(poly([1, 1]), _p_neg(poly([1, 1]))) == ()


def test_poly_gcd_examples():
    # x^2 - x and x share the factor x; the gcd comes back monic
    assert oracle_qx.poly_gcd(poly([0, -1, 1]), poly([0, 1])) == poly([0, 1])
    assert oracle_qx.poly_gcd(poly([2]), poly([0, 4])) == P_ONE
    with pytest.raises(DomainError):
        oracle_qx.poly_gcd((), ())


def test_poly_gcd_nontrivial():
    a = poly([1, 2, 1])  # (1+x)^2
    b = poly([1, 0, -1])  # (1+x)(1-x)
    assert oracle_qx.poly_gcd(a, b) == poly([1, 1])


def test_rf_normalize_cancels_common_factor():
    f = rf_normalize(poly([0, -1, 1]), poly([0, 1]))
    assert f == rf_normalize(poly([-1, 1]), P_ONE)
    assert render_rf(f) == "-1 + x"


def test_rf_normalize_scales_den_trailing_coefficient():
    # x/2 is stored as the primitive integer pair (x, 2)
    f = rf_normalize(poly([0, 2]), poly([4]))
    assert dense(f) == ((0, 1), (2,))


def test_rf_normalize_zero():
    assert rf_normalize((), poly([1, 1])) == RF_ZERO
    with pytest.raises(ZeroDenominatorError):
        rf_normalize(poly([1]), ())


def test_rf_arith_examples():
    assert rf_div(x_pow(2), RF_X) == RF_X
    assert rf_add(qx("1/(1-x)"), rf_const(F(-1))) == qx("x/(1-x)")
    assert rf_mul(RF_X, qx("1/x")) == RF_ONE
    with pytest.raises(ZeroDenominatorError):
        rf_div(RF_X, RF_ZERO)


def test_rf_sign_examples():
    assert rf_sign(qx("x - x^2")) == 1
    assert rf_sign(qx("-x + 1")) == 1
    assert rf_sign(RF_ZERO) == 0
    assert rf_sign(qx("-x")) == -1
    assert rf_sign(qx("(x - 1)/(1 + x)")) == -1


def test_valuation_examples():
    assert valuation(qx("x^2*(1+x)/(2-x)")) == 2
    assert valuation(qx("1/x")) == -1
    assert valuation(rf_const(F(7, 5))) == 0
    with pytest.raises(DomainError):
        valuation(RF_ZERO)


def test_dominates_examples():
    assert dominates(RF_X, RF_ONE)  # x is infinitesimal
    assert dominates(RF_ONE, qx("1/x"))  # 0 < 1/C << 1 << C with C = 1/x
    assert not dominates(rf_const(F(3)), rf_const(F(5)))
    assert dominates(RF_ZERO, RF_ONE)
    assert not dominates(RF_ONE, RF_ZERO)
    assert not dominates(RF_ZERO, RF_ZERO)


def test_same_class_examples():
    assert same_class(x_pow(2), qx("5*x^2/(1+x)"))
    assert same_class(RF_ZERO, RF_ZERO)
    assert not same_class(RF_X, x_pow(2))
    assert not same_class(RF_ZERO, RF_X)


def test_non_archimedean_order():
    for n in range(1, 1001):
        assert n * RF_X < RF_ONE
    assert RF_ZERO < qx("1/x")


def test_order_positive_infinitesimal():
    assert RF_ZERO < RF_X < rf_const(F(1, 10**9))


def test_x_pow_is_not_dense():
    f = x_pow(10**6)
    assert tuple(f) == (10**6, (1,), (1,))
    assert tuple(rf_inv(f)) == (-(10**6), (1,), (1,))


@st.composite
def _qx_elems(draw, v=None):
    """Zero, or x**v * n/d with n and d of degree <= 2, built from dense
    coefficients; v is drawn from -70..70 unless given."""
    if draw(st.integers(0, 9)) == 0:
        return RF_ZERO
    if v is None:
        v = draw(st.integers(-70, 70))
    unit = st.tuples(
        st.integers(1, 9), st.sampled_from((1, -1)), st.lists(st.integers(-9, 9), max_size=2)
    ).map(lambda t: (t[0] * t[1], *t[2]))
    num, den = draw(unit), draw(unit)
    f = rf_normalize((0,) * max(v, 0) + num, (0,) * max(-v, 0) + den)
    assert valuation(f) == v
    return f


@st.composite
def _qx_pairs(draw):
    """(a, b) with b unrelated to a, of a's valuation, equal to a in its
    lowest term, -a, or a itself."""
    a = draw(_qx_elems())
    v = a.v
    mode = draw(st.sampled_from(("any", "same-valuation", "same-lowest-term", "negated", "equal")))
    if mode == "any":
        b = draw(_qx_elems())
    elif mode == "same-valuation":
        b = draw(_qx_elems(v))
    elif mode == "same-lowest-term":
        b = a + draw(_qx_elems(v + draw(st.integers(1, 3))))
    elif mode == "negated":
        b = -a
    else:
        b = a
    return (b, a) if draw(st.booleans()) else (a, b)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_qx_pairs())
def test_order_matches_fraction_oracle(pair):
    # the comparisons decide by sign, valuation and lowest terms where they
    # can; the oracle always takes the sign of the whole difference
    a, b = pair
    s = oracle_qx.sign(*oracle_qx.ratio_sub(a, b))
    assert (a < b) == (s < 0)
    assert (a <= b) == (s <= 0)
    assert (a > b) == (s > 0)
    assert (a >= b) == (s >= 0)
    assert (a == b) == (s == 0)


def _dlim_qx_elem_len(delta_depth: int) -> int:
    """The longest num or den among the deltas, probes and witnesses, their
    values, distances and separations, of demo dlim --field qx."""
    steps = demo_dlim.__wrapped__(Field.QX, eps_depth=2, delta_depth=delta_depth)
    next(steps)
    longest = 0
    for step in steps:
        if not isinstance(step, Check):
            continue
        if isinstance(step.cert, FalsifierCert):
            report = check_falsifier(step.cert, step.schedule)
        else:
            report = check_verifier(step.cert, step.schedule, step.budget)
        elems = [row.delta for row in report.rows]
        elems += [e for p in report.probes for e in p if e is not None]
        longest = max(longest, *(max(len(e.num), len(e.den)) for e in elems))
    return longest


def test_dlim_qx_elements_do_not_grow_with_depth():
    # the delta schedule and its probes are x**m * 2**-k with m up to the
    # depth: in normal form their size does not depend on m
    assert _dlim_qx_elem_len(200) <= _dlim_qx_elem_len(20)


def test_class_interval_stays_in_class(rng):
    # every sampled element of (p/2, 2p) shares p's class
    for _ in range(200):
        p = abs(rand_nonzero_ratfunc(rng))
        for k in range(1, 8):
            u = p * (F(1, 2) + F(3, 16) * k)
            assert same_class(u, p)


def test_dominates_same_class_consistency(rng):
    for _ in range(300):
        p = rand_nonzero_ratfunc(rng)
        q = rand_nonzero_ratfunc(rng)
        assert same_class(p, q) == (not dominates(p, q) and not dominates(q, p))


def test_valuation_additive(rng):
    for _ in range(300):
        f = rand_nonzero_ratfunc(rng)
        g = rand_nonzero_ratfunc(rng)
        assert valuation(f * g) == valuation(f) + valuation(g)
        s = f + g
        if s:
            assert valuation(s) >= min(valuation(f), valuation(g))


def test_field_axioms_random(rng):
    zero, one = RF_ZERO, RF_ONE
    for _ in range(400):
        a = rand_ratfunc(rng)
        b = rand_ratfunc(rng)
        c = rand_ratfunc(rng)
        check_ordered_field_triple(a, b, c, zero, one)


def test_series_oracle_agreement(rng):
    for _ in range(120):
        a = rand_ratfunc(rng)
        b = rand_ratfunc(rng)
        sa, sb = expand(a), expand(b)
        assert series_equal(expand(a + b), s_add(sa, sb))
        assert series_equal(expand(a - b), s_sub(sa, sb))
        assert series_equal(expand(a * b), s_mul(sa, sb))
        if b:
            assert series_equal(expand(a / b), s_div(sa, sb))


def test_gcd_against_sympy(rng):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def to_sympy(p):
        return sympy.Poly.from_list([sympy.Rational(c) for c in reversed(p)], x)

    for _ in range(60):
        a = rand_ratfunc(rng)
        num, den = dense(a)
        if not a or den == P_ONE:
            continue
        # canonical form means sympy.gcd of num and den is constant
        g = sympy.gcd(to_sympy(num).as_expr(), to_sympy(den).as_expr())
        assert g.is_number


def test_render_poly():
    assert render_poly(poly([1, -1])) == "1 - x"
    assert render_poly(poly([0, F(1, 2), 0, 3])) == "1/2*x + 3*x^3"
    assert render_poly(()) == "0"
    assert render_poly(poly([-2, 1]), compact=True) == "-2+x"


def test_render_roundtrip(rng):
    for _ in range(200):
        f = rand_ratfunc(rng, max_deg=3)
        assert qx(render_rf(f)) == f
        assert qx(render_rf(f, compact=True)) == f


def test_int_gcd_route_matches_monic_euclid(rng):
    # the fraction-free gcd that backs rf normalization agrees with the
    # oracle's monic Euclid over Q[x]
    from ordfield.laurent import _int_poly_gcd

    for _ in range(200):
        g = rand_poly(rng, 2, 5, nonzero=True)
        a = _p_mul(g, rand_poly(rng, 2, 5, nonzero=True))
        b = _p_mul(g, rand_poly(rng, 2, 5, nonzero=True))
        ints_a = [int(c) for c in a]
        ints_b = [int(c) for c in b]
        got = _int_poly_gcd(ints_a, ints_b)
        want = oracle_qx.poly_gcd(a, b)
        lead = got[-1]
        assert tuple(F(c, lead) for c in got) == want


def test_canonical_form_is_route_independent(rng):
    # the same value reached along different routes has identical structure
    for _ in range(150):
        f = rand_ratfunc(rng)
        g = rand_ratfunc(rng)
        assert (f + g) - g == f
        if g:
            assert (f * g) / g == f
            assert (f / g) * g == f


def test_rf_normalize_fractional_coefficient_inputs():
    # (1/3 + 1/3 x) / (1/6) = 2 + 2x
    f = rf_normalize(poly([F(1, 3), F(1, 3)]), poly([F(1, 6)]))
    assert f == rf_normalize(poly([2, 2]), P_ONE)
    # (x^2/2 - x/2) / (x/4) = 2x - 2
    g = rf_normalize(poly([0, F(-1, 2), F(1, 2)]), poly([0, F(1, 4)]))
    assert g == rf_normalize(poly([-2, 2]), P_ONE)
    # fractional common factor: ((1+x)/2)^2 / ((1+x)/3)
    h = rf_normalize(
        poly([F(1, 4), F(1, 2), F(1, 4)]), poly([F(1, 3), F(1, 3)])
    )
    assert h == rf_normalize(poly([F(3, 4), F(3, 4)]), P_ONE)


def assert_canonical(f):
    from ordfield.laurent import _int_poly_gcd

    assert type(f.v) is int
    assert all(type(c) is int for c in f.num + f.den)
    if not f.num:
        assert f == RF_ZERO and f.v == 0 and f.den == (1,)
        return
    # no high-order zeros
    assert f.num[-1] and f.den[-1]
    # neither num nor den is divisible by x, and den[0] is positive
    assert f.num[0] and f.den[0] > 0
    # the integer content of num and den together is 1
    assert math.gcd(*f.num, *f.den) == 1
    # num and den are coprime over Q[x]
    assert len(_int_poly_gcd(list(f.num), list(f.den))) == 1


def test_canonical_invariants_after_random_ops(rng):
    for _ in range(250):
        a = rand_ratfunc(rng, max_deg=3)
        b = rand_ratfunc(rng, max_deg=3)
        for res in (a + b, a - b, a * b):
            assert_canonical(res)
        if b:
            assert_canonical(a / b)
        assert_canonical(-a)
        assert_canonical(abs(a))
        assert_canonical(a ** 3)


RF_OPS = (
    (rf_add, oracle_qx.ratio_add),
    (rf_sub, oracle_qx.ratio_sub),
    (rf_mul, oracle_qx.ratio_mul),
    (rf_div, oracle_qx.ratio_div),
)


def _assert_matches_fraction_oracle(a, b):
    for op, ratio in RF_OPS:
        if op is rf_div and not b:
            continue
        got = op(a, b)
        assert_canonical(got)
        for compact in (False, True):
            assert render_rf(got, compact) == oracle_qx.render(*ratio(a, b), compact)
    if a:
        inv = rf_inv(a)
        assert_canonical(inv)
        assert render_rf(inv) == oracle_qx.render(*oracle_qx.ratio_inv(a))
    assert render_rf(a) == oracle_qx.render(*dense(a))


@pytest.mark.parametrize("v", (-70, -2, -1, 0, 1, 2, 70))
def test_monomial_texts_match_the_oracle(v):
    # a one-term value is written straight from its ints
    for n in (1, -1, 5, -5, 2**70, -(2**70)):
        for d in (1, 7, 2**64):
            f = rf_const(F(n, d), v)
            for compact in (False, True):
                text = render_rf(f, compact)
                assert text == oracle_qx.render(*dense(f), compact)
                assert parse_elem(Field.QX, text) == f


def test_int_carrier_matches_fraction_oracle_criterion_1_operands():
    # the first operands of acceptance criterion 1
    rng = random.Random(20260810 + 1)
    for _ in range(500):
        _assert_matches_fraction_oracle(accept_rf(rng), accept_rf(rng))


def test_int_carrier_matches_fraction_oracle_wide_samples():
    # the first elements of the acceptance suite's 2^64-coefficient pool
    pool = wide_ratfuncs(random.Random(20260810 + 3), 60)
    for a, b in zip(pool, pool[1:] + pool[:1]):
        _assert_matches_fraction_oracle(a, b)


def _pm(*factors):
    """Product of integer polynomials given as coefficient tuples."""
    out = (1,)
    for f in factors:
        out = _p_mul(out, f)
    return out


# irreducible over Q: a quadratic side goes through one pseudo-remainder
# and the root test, a linear one through the root test, and the factors
# of a pair whose sides are both of degree 3 or more reach the mod-P filter
# and the exact gcd
P2, Q2, S2 = (1, 1, 1), (2, -1, 3), (5, 0, 1)
L1, L2 = (1, 2), (3, -1)
# primitive with a positive leading and a negative trailing coefficient,
# so dividing a canonical den by it flips the den's trailing sign
NEG2, NEG1 = (-2, 0, 1), (-1, 1)
X = (0, 1)

CROSS_FACTOR_PAIRS = [
    # a.num and b.den share a factor, and so do b.num and a.den
    ((_pm(P2, L1), _pm(Q2, L2)), (_pm(Q2, S2), _pm(P2, X, (7, 1)))),
    ((_pm(L1, (4, 0, 1)), _pm(L2, (2, 5))), (_pm(L2, S2), _pm(L1, Q2))),
    # denominators share g = P2*Q2; part of it (P2) cancels into t, as
    # x/(P2*Q2) + (P2 - x*S2)/(P2*Q2*S2) = 1/(Q2*S2)
    ((X, _pm(P2, Q2)), (_p_add(P2, _p_neg(_pm(X, S2))), _pm(P2, Q2, S2))),
    ((X, _pm(L1, Q2)), (_p_add(L1, _p_neg(_pm(X, S2))), _pm(L1, Q2, S2))),
    # denominators sharing g whose reduced numerator keeps nothing of it
    (((1,), _pm(P2, Q2)), ((3,), _pm(P2, S2))),
    # both cross sides divisible by x, none of them linear
    ((_pm(X, P2), (2, 1)), ((3, -1), _pm(X, Q2))),
    (((1,), _pm(X, P2)), ((1,), _pm(X, X, S2))),
    # cancelling NEG2 or NEG1 out of a den leaves its trailing coefficient
    # negative, in a quotient of each pair among other results
    (((1,), _pm(NEG2, (3, 1))), (_pm(S2, (2, 1)), NEG2)),
    ((NEG2, (1, 1)), ((1,), _pm(NEG2, (3, 1)))),
    (((1,), _pm(NEG1, (2, 1))), ((3, 1), NEG1)),
    # constant sides: content cancels, denominators are integers, a sum
    # cancels to zero
    (((0, 2), (3,)), ((3,), (1, 2))),
    (((1, 1), (6,)), ((-1, 1), (10,))),
    (((0, 1), (2,)), ((0, -1), (2,))),
    ((P2, (4,)), ((9,), Q2)),
    # equal cross pairs, decided without the filter: d1 == d2 in a sum
    # (one pair also divisible by x), n1 == d2 and n2 == d1 in a*(1/a)
    (((1, 2), _pm(P2, Q2)), ((3, 0, 1), _pm(P2, Q2))),
    (((1,), _pm(X, P2)), ((2, 1), _pm(X, P2))),
    ((_pm(P2, Q2), _pm(S2, L1)), (_pm(S2, L1), _pm(P2, Q2))),
]

# pairs with a quadratic side, one for each outcome of its pseudo-remainder
# r: the first four in the cross pair (n1, d2) of a * b, the last in the
# denominators of a + b
QUADRATIC_CROSS_PAIRS = [
    # r = 0: the quadratic P2 divides the cubic P2*L1
    ((_pm(P2, L1), Q2), ((3, 1), P2)),
    # r = 5, a constant: x*P2 + 5 and P2 are coprime
    (((5, 1, 1, 1), L2), ((1,), P2)),
    # r linear, sharing the root of L1 with L1*L2
    ((_pm(L1, S2), (7, 1)), ((1,), _pm(L1, L2))),
    # r linear, without a shared root: S2*L2 and L1*(3, 1)
    ((_pm(S2, L2), (7, 1)), ((1,), _pm(L1, (3, 1)))),
    # proportional denominators of a sum: d2 = 3*d1, not equal
    (((0, 1, 2), P2), ((1,), _pm((3,), P2))),
]
# pairs still decided by the mod-P filter and the exact gcd: both sides of
# degree 3, sharing the factor L1 of the sums' denominators, and a
# quadratic side W2 with a coefficient past the filter's modulus, whose
# pseudo-remainder would grow by that many bits a step; it divides the
# cubic W2*L1 and is coprime to x*W2 + 5
W2 = (1, 1, laurent._FILTER_P)
FILTER_CROSS_PAIRS = [
    (((1,), _pm(P2, L1)), ((2,), _pm(Q2, L1))),
    ((_pm(W2, L1), Q2), ((3, 1), W2)),
    (((5, 1, 1, laurent._FILTER_P), L2), ((1,), W2)),
]
CROSS_FACTOR_PAIRS += QUADRATIC_CROSS_PAIRS + FILTER_CROSS_PAIRS


@pytest.mark.parametrize("pair", range(len(CROSS_FACTOR_PAIRS)))
def test_cross_factor_paths_match_fraction_oracle(pair):
    # built operands that force each way _rf_sum and rf_mul cancel: every
    # result is canonical and renders as the oracle's
    operands = []
    for num, den in CROSS_FACTOR_PAIRS[pair]:
        f = rf_normalize(num, den)
        assert_canonical(f)
        assert render_rf(f) == oracle_qx.render(num, den)
        operands.append(f)
    a, b = operands
    _assert_matches_fraction_oracle(a, b)
    _assert_matches_fraction_oracle(b, a)


def _cross_sides(pair):
    """The cross pairs of rf_mul and the denominators of _rf_sum for one
    operand pair, as _cross_gcd receives them."""
    (_, n1, d1), (_, n2, d2) = (rf_normalize(num, den) for num, den in pair)
    return [(list(n1), list(d2)), (list(n2), list(d1)), (list(d1), list(d2))]


def _decide(pairs) -> int:
    """_cross_gcd on each cross pair of the operand pairs whose sides both
    have degree 2 or more, checked against the oracle; how many there were."""
    n = 0
    for pair in pairs:
        for a, b in _cross_sides(pair):
            if min(len(a), len(b)) >= 3:
                want = oracle_qx.poly_gcd(tuple(a), tuple(b))
                assert (laurent._cross_gcd(a, b) is None) == (want == P_ONE)
                n += 1
    return n


def test_small_quadratic_side_never_reaches_the_filter(monkeypatch):
    calls = []
    real = laurent._isurely_coprime

    def counting(a, b):
        calls.append((tuple(a), tuple(b)))
        return real(a, b)

    monkeypatch.setattr(laurent, "_isurely_coprime", counting)
    assert _decide(QUADRATIC_CROSS_PAIRS) == 6
    assert calls == []
    # the quadratic pair (Q2, W2) takes Q2's pseudo-remainder; the other
    # three reach the filter, W2's lead vanishing mod P
    assert _decide(FILTER_CROSS_PAIRS) == 4
    assert len(calls) == 3


@st.composite
def _planted_pairs(draw):
    """Two integer polynomials, neither divisible by x, of degree <= 4, with
    a planted common factor of degree 0 to 2."""

    def unit(max_deg):
        deg = draw(st.integers(0, max_deg))
        lo = draw(st.integers(-9, 9).filter(bool))
        if not deg:
            return (lo,)
        mid = draw(st.lists(st.integers(-9, 9), min_size=deg - 1, max_size=deg - 1))
        return (lo, *mid, draw(st.integers(-9, 9).filter(bool)))

    g = unit(2)
    top = 4 - (len(g) - 1)
    return _pm(g, unit(top)), _pm(g, unit(top))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_planted_pairs())
def test_cross_gcd_matches_monic_euclid(pair):
    a, b = pair
    want = oracle_qx.poly_gcd(a, b)
    got = laurent._cross_gcd(list(a), list(b))
    if len(want) == 1:
        assert got is None
    else:
        assert len(got) == len(want)
        assert tuple(F(c, got[-1]) for c in got) == want


# a long numerator against a side with coefficients past the filter's
# modulus: the root test of a linear side and the filter both stay linear
# in the numerator's degree, where each used to grow with its square
LONG_OVER_WIDE = [
    ("(1+x^3000)/(10^500*x+1)", (1,) + (0,) * 2999 + (1,), (1, 10**500)),
    ("(5+x^20000)/(10^100*x^2+x+1)", (5,) + (0,) * 19999 + (1,), (1, 1, 10**100)),
]


@pytest.mark.parametrize("text, num, den", LONG_OVER_WIDE, ids=["linear", "quadratic"])
def test_long_numerator_over_wide_side_is_fast(text, num, den):
    t0 = time.perf_counter()
    f = parse_elem(Field.QX, text)
    elapsed = time.perf_counter() - t0
    assert f == laurent.RatFunc(0, num, den)
    assert elapsed < 2.0, f"{text} took {elapsed:.2f}s"


def test_wide_linear_root_test_falls_back_when_the_residue_vanishes():
    P = laurent._FILTER_P
    b = [3, 10**20]
    a = _pm(b, (1, 1, 1, 1))
    # b divides a: the residue vanishes and the exact test finds b
    assert laurent._linear_gcd(list(a), b) == b
    # a + P has the value P * (10^20)^4 at b's root, zero mod P but not
    # zero, so the exact test decides; a + 4 is decided mod P
    assert laurent._linear_gcd(list(_p_add(a, (P,))), b) is None
    assert laurent._linear_gcd(list(_p_add(a, (4,))), b) is None


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_planted_pairs())
def test_filter_never_certifies_a_shared_factor(pair):
    a, b = pair
    want = oracle_qx.poly_gcd(a, b)
    if laurent._isurely_coprime(list(a), list(b)):
        assert want == P_ONE


@pytest.mark.parametrize("c", [3, -2, 0, F(1, 2), F(-7, 3)], ids=str)
def test_int_and_fraction_on_the_left_of_each_operator(c):
    # the reflected operators coerce the left operand and keep its place
    k = rf_const(c)
    for f in (RF_X, rf_normalize((1, 2), (3, 0, 1)), -x_pow(-2)):
        assert c + f == rf_add(k, f) == f + c
        assert c - f == rf_sub(k, f) == -(f - c)
        assert c * f == rf_mul(k, f) == f * c
        assert c / f == rf_div(k, f)
        if c:
            assert c / f == rf_inv(f / c)
    assert 1 - RF_X == rf_normalize((1, -1), (1,))
    assert F(1, 2) - RF_X == rf_normalize((1, -2), (2,))
    assert 1 / RF_X == x_pow(-1)
    with pytest.raises(ZeroDenominatorError):
        c / RF_ZERO
    for other in (1.5, "x", None):
        for op in (lambda: other + RF_X, lambda: other - RF_X, lambda: other * RF_X, lambda: other / RF_X):
            with pytest.raises(TypeError):
                op()


def _dense_elem(draw, num, den):
    """x**v * num/den for a drawn v in -3..3, from dense coefficients."""
    v = draw(st.integers(-3, 3))
    return rf_normalize((0,) * max(v, 0) + num, (0,) * max(-v, 0) + den)


@st.composite
def _shaped_pairs(draw):
    """(a, b) whose denominators take one path each of _rf_sum and rf_mul:
    two monomials, two monomials of one valuation, a unit +-x**k operand,
    exactly one constant denominator, two equal non-constant denominators
    (a and -a among them), two linear denominators sharing their factor,
    two linear denominators with a coefficient past the filter's modulus,
    proportional or not, a quadratic side that b's denominator may share,
    a and 1/a with sides of degree 3 or more, or a zero operand."""
    coeff = st.integers(-9, 9) | st.integers(-(2**70), 2**70)
    nonzero = coeff.filter(bool)

    def p(lo, hi):
        # a polynomial of degree lo..hi that x does not divide
        deg = draw(st.integers(lo, hi))
        if not deg:
            return (draw(nonzero),)
        return (draw(nonzero), *[draw(coeff) for _ in range(deg - 1)], draw(nonzero))

    shapes = (
        "monomials",
        "monomials-one-valuation",
        "unit",
        "one-constant",
        "equal-den",
        "linear-shared",
        "linear-wide",
        "quadratic",
        "inverse",
        "zero",
    )
    shape = draw(st.sampled_from(shapes))
    if shape == "monomials":
        a, b = (rf_const(F(draw(nonzero), draw(nonzero)), draw(st.integers(-3, 3))) for _ in "ab")
    elif shape == "monomials-one-valuation":
        v = draw(st.integers(-3, 3))
        a, b = (rf_const(F(draw(nonzero), draw(nonzero)), v) for _ in "ab")
    elif shape == "unit":
        a = draw(st.sampled_from((1, -1))) * x_pow(draw(st.integers(-3, 3)))
        b = _dense_elem(draw, p(0, 3), p(0, 3))
    elif shape == "equal-den":
        lin = p(1, 1)
        den = _p_mul(lin, p(0, 2))
        a = _dense_elem(draw, p(0, 3), den)
        kind = draw(st.sampled_from(("other", "negative", "shared")))
        if kind == "negative":
            b = -a
        elif kind == "shared":
            # a + b has lin in its numerator, which cancels against den
            b = _dense_elem(draw, _p_mul(lin, p(0, 2)), den) - a
        else:
            b = _dense_elem(draw, p(0, 3), den)
        assume(len(a.den) > 1 and a.den == b.den)
    elif shape == "one-constant":
        a = _dense_elem(draw, p(0, 3), p(0, 0))
        b = _dense_elem(draw, p(0, 3), p(1, 3))
        if draw(st.booleans()):
            # -a plus a term of higher valuation: the low terms of a + b cancel
            b = x_pow(a.v - b.v + draw(st.integers(1, 3))) * b - a
        assume(len(b.den) > 1)
    elif shape == "linear-shared":
        lin = p(1, 1)
        a = _dense_elem(draw, p(0, 2), _p_mul(lin, p(0, 0)))
        b = _dense_elem(draw, p(0, 2), _p_mul(lin, p(0, 0)))
        assume(len(a.den) == len(b.den) == 2)
    elif shape == "linear-wide":
        wide = st.integers(laurent._FILTER_P, 2**70) | st.integers(-(2**70), -laurent._FILTER_P)
        lin = (draw(wide), draw(nonzero)) if draw(st.booleans()) else (draw(nonzero), draw(wide))
        den = _p_mul(lin, p(0, 0)) if draw(st.booleans()) else p(1, 1)
        a = _dense_elem(draw, p(0, 2), lin)
        b = _dense_elem(draw, p(0, 2), den)
        assume(len(a.den) == len(b.den) == 2)
    elif shape == "quadratic":
        quad = p(2, 2)
        a = _dense_elem(draw, p(0, 3), quad) if draw(st.booleans()) else _dense_elem(draw, quad, p(0, 3))
        den = _p_mul(quad, p(0, 1)) if draw(st.booleans()) else p(1, 3)
        b = _dense_elem(draw, p(0, 2), den)
    elif shape == "inverse":
        a = _dense_elem(draw, p(3, 4), p(3, 4))
        assume(len(a.num) > 3 and len(a.den) > 3)
        b = rf_inv(a)
    else:
        a, b = RF_ZERO, _dense_elem(draw, p(0, 3), p(0, 3))
    return (b, a) if draw(st.booleans()) else (a, b)


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(_shaped_pairs())
def test_each_operand_shape_matches_the_fraction_oracle(pair):
    # through the operators, in both orders: each result is canonical and
    # is the oracle's canonical form of the plain cross-multiplied ratio
    a, b = pair
    ops = (
        (operator.add, oracle_qx.ratio_add),
        (operator.sub, oracle_qx.ratio_sub),
        (operator.mul, oracle_qx.ratio_mul),
        (operator.truediv, oracle_qx.ratio_div),
    )
    for x, y in ((a, b), (b, a)):
        for op, ratio in ops:
            if op is operator.truediv and not y:
                with pytest.raises(ZeroDenominatorError):
                    op(x, y)
                continue
            got = op(x, y)
            assert_canonical(got)
            assert oracle_qx.canonical(*dense(got)) == oracle_qx.canonical(*ratio(x, y))


def test_two_linear_sides_share_a_factor_exactly_when_proportional():
    # the proportionality rule of _cross_gcd gives what the root test of
    # the first side against the second gives, the primitive first side,
    # on proportional pairs and others, with coefficients below and past
    # the filter's modulus
    rng = random.Random(36)
    P = laurent._FILTER_P
    shared = 0
    for _ in range(2000):
        size = rng.choice((9, 2**70))
        b = [rng.randint(-size, size) or 1 for _ in "01"]
        if rng.random() < 0.5:
            k = rng.choice((1, -1)) * rng.randint(1, 2**40)
            a = [c * k for c in b]
        else:
            a = [rng.randint(-size, size) or P for _ in "01"]
        want = laurent._linear_gcd(b, a)
        assert laurent._cross_gcd(a, b) == want
        assert laurent._cross_gcd(b, a) == laurent._linear_gcd(a, b)
        shared += want is not None
    assert shared > 900


def test_exact_division_by_a_linear_factor():
    # synthetic division from the top against the product it undoes
    rng = random.Random(26)
    for g in ([2, 3], [3, -2], [-1, 1], [1, 10**40]):
        for _ in range(50):
            q = [rng.randint(-(2**70), 2**70) for _ in range(rng.randint(1, 6))]
            q[-1] = q[-1] or 1
            assert laurent._iexact_div(list(_p_mul(tuple(q), tuple(g))), g) == q
    # 5 is not a multiple of g's leading 2: refused at the first top step
    with pytest.raises(DomainError, match="^inexact integer polynomial division$"):
        laurent._iexact_div([1, 2, 5], [1, 2])
    # (x + 1)(x + 2) + 1 by x + 1: every top step divides by 1, so only the
    # last remainder, 1, refuses
    with pytest.raises(DomainError, match="^inexact integer polynomial division$"):
        laurent._iexact_div([3, 3, 1], [1, 1])
