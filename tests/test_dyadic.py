import random
from fractions import Fraction as F

import pytest

from ordfield import dyadic
from ordfield.dyadic import (
    GREATER,
    LESS,
    OUTER_SCALE,
    below_sqrt2,
    class_index,
    cmp_to_scaled_cn,
    cn_bounds,
    constancy_radius_q,
    is_outer,
    outer_constancy_radius_q,
    sqrt2_gap_radius,
)
from ordfield.errors import DomainError
from ordfield.rationals import pow2

import oracle_dyadic
from conftest import rand_nonzero_rat, wide_rationals


def band_holds(t, n):
    """Independent check of c_n < |t| < c_{n-1} by direct squaring."""
    s = abs(t) ** 2
    return pow2(-2 * n - 1) < s < pow2(-2 * n + 1)


def test_cmp_examples():
    assert cmp_to_scaled_cn(F(3, 4), 0) == GREATER  # 9/16 > 1/2
    assert cmp_to_scaled_cn(F(1, 2), 0) == LESS  # 1/4 < 1/2
    assert cmp_to_scaled_cn(F(1), -1) == LESS  # 1 < 2
    with pytest.raises(DomainError):
        cmp_to_scaled_cn(F(0), 0)
    with pytest.raises(DomainError):
        cmp_to_scaled_cn(F(-1), 0)


def test_class_index_examples():
    assert class_index(F(3, 4)) == 0
    assert class_index(F(1, 2)) == 1
    for n in range(-8, 9):
        assert class_index(pow2(-n)) == n


def test_class_index_zero():
    with pytest.raises(DomainError):
        class_index(F(0))


def test_class_index_partition(rng):
    # exactly one n passes both endpoint comparisons
    for _ in range(300):
        t = rand_nonzero_rat(rng, bits=24)
        n = class_index(t)
        assert band_holds(t, n)
        assert not band_holds(t, n - 1)
        assert not band_holds(t, n + 1)


def test_class_index_homogeneity_and_symmetry(rng):
    for _ in range(200):
        t = rand_nonzero_rat(rng, bits=24)
        n = class_index(t)
        assert class_index(t / 2) == n + 1
        assert class_index(-t) == n


def test_cn_bounds_examples():
    lo, hi = cn_bounds(0, 1)
    assert lo * lo < F(1, 2) < hi * hi and hi - lo <= F(1, 2)
    lo, hi = cn_bounds(0, 4)
    assert hi - lo <= F(1, 16)
    assert lo * lo < F(1, 2) < hi * hi


def test_cn_bounds_scale():
    # the bisection is scale-invariant: bounds(n, p) = 2^-n * bounds(0, p-n)
    for n in (-3, 2, 5):
        lo, hi = cn_bounds(n, 10)
        lo0, hi0 = cn_bounds(0, 10 - n)
        assert lo == lo0 * pow2(-n) and hi == hi0 * pow2(-n)
        assert lo * lo < pow2(-2 * n - 1) < hi * hi


def test_cn_bounds_nesting():
    prev = cn_bounds(0, 1)
    for p in range(2, 24):
        cur = cn_bounds(0, p)
        assert prev[0] <= cur[0] and cur[1] <= prev[1]
        assert cur[1] - cur[0] <= pow2(-p)
        assert cur[0] ** 2 < F(1, 2) < cur[1] ** 2
        prev = cur


def test_constancy_radius_examples():
    assert constancy_radius_q(F(1)) == F(1, 4)
    # (3/4 - d)^2 > 1/2 and (3/4 + d)^2 < 2
    d = constancy_radius_q(F(3, 4))
    assert (F(3, 4) - d) ** 2 > F(1, 2)
    assert (F(3, 4) + d) ** 2 < 2
    # a hand-derived radius of 1/32 passes the same squaring checks
    assert (F(23, 32)) ** 2 > F(1, 2) and (F(25, 32)) ** 2 < 2


def test_constancy_radius_homogeneous():
    r1 = constancy_radius_q(F(1))
    for n in range(1, 12):
        assert constancy_radius_q(pow2(-n)) == r1 * pow2(-n)


def test_constancy_radius_random(rng):
    for _ in range(150):
        t = rand_nonzero_rat(rng, bits=20)
        n = class_index(t)
        d = constancy_radius_q(t)
        assert d > 0
        assert (abs(t) - d) ** 2 > pow2(-2 * n - 1)
        assert (abs(t) + d) ** 2 < pow2(-2 * n + 1)


def test_outer_band_and_radius(rng):
    assert is_outer(F(13, 10), class_index(F(13, 10)))
    assert not is_outer(F(1), class_index(F(1)))
    for _ in range(150):
        t = rand_nonzero_rat(rng, bits=16)
        n = class_index(t)
        outer = is_outer(t, n)
        d = outer_constancy_radius_q(t)
        assert d > 0
        # the whole ball stays in the same piece
        for h in (-d * F(7, 8), d * F(7, 8), d / 3):
            u = abs(t) + h
            assert class_index(u) == n
            assert is_outer(u, n) == outer


def test_sqrt2_gap_radius():
    d = sqrt2_gap_radius(F(3, 2))
    assert (F(3, 2) - d) ** 2 > 2
    d = sqrt2_gap_radius(F(7, 5))
    assert (F(7, 5) + d) ** 2 < 2
    d = sqrt2_gap_radius(F(-10))
    assert d > 0


def _agrees_with_fraction_oracle(t):
    n = class_index(t)
    assert n == oracle_dyadic.class_index(t), t
    assert is_outer(t, n) == oracle_dyadic.is_outer(t), t
    a = abs(t)
    for m in (n - 1, n, n + 1):
        for scale in (F(1), OUTER_SCALE):
            assert cmp_to_scaled_cn(a, m, scale) == oracle_dyadic.cmp_to_scaled_cn(a, m, scale), (t, m)


def test_integer_cut_comparisons_match_fraction_oracle_wide_sample():
    # the criterion-2 sample: magnitudes 2^-200..2^200
    for t in wide_rationals(random.Random(20260810 + 2), 1000):
        _agrees_with_fraction_oracle(t)


def test_integer_cut_comparisons_match_fraction_oracle_near_powers_of_two():
    # just above and below each power of two, where the first guess from
    # bit lengths is off by one
    for k in range(-130, 131, 7):
        for j in (1, 2, 5, 40, 200):
            for sign in (1, -1):
                _agrees_with_fraction_oracle(pow2(-k) * (1 + sign * pow2(-j)))
                _agrees_with_fraction_oracle(-pow2(-k) * (1 + sign * pow2(-j)))


def test_integer_cut_comparisons_match_fraction_oracle_every_depth():
    probes = (F(1), F(5, 7), F(3, 4), F(7, 5), F(13, 10), F(2), F(1, 3))
    for n in range(-300, 301):
        for scale in (F(1), OUTER_SCALE):
            for r in probes:
                t = r * pow2(-n)
                assert cmp_to_scaled_cn(t, n, scale) == oracle_dyadic.cmp_to_scaled_cn(t, n, scale)
        _agrees_with_fraction_oracle(F(5, 7) * pow2(-n))


def test_cn_bounds_match_bisection_oracle():
    # one bisection per n passes through the bracket of every precision p
    for n in range(-40, 41):
        brackets = oracle_dyadic.bisection(n)
        lo, hi = next(brackets)
        for p in range(1, 121):
            while hi - lo > pow2(-p):
                lo, hi = next(brackets)
            assert cn_bounds(n, p) == (lo, hi), (n, p)
    assert cn_bounds(-3, 7) == oracle_dyadic.cn_bounds(-3, 7)
    with pytest.raises(DomainError):
        cn_bounds(0, 0)


def _radii_agree_with_oracle(t):
    assert below_sqrt2(t) == oracle_dyadic.below_sqrt2(t), t
    assert sqrt2_gap_radius(t) == oracle_dyadic.sqrt2_gap_radius(t), t
    if t:
        assert constancy_radius_q(t) == oracle_dyadic.constancy_radius_q(t), t
        assert outer_constancy_radius_q(t) == oracle_dyadic.outer_constancy_radius_q(t), t


def test_radii_match_oracle_wide_sample():
    for t in wide_rationals(random.Random(20260810 + 6), 400):
        _radii_agree_with_oracle(t)
    for t in (F(0), F(1), F(-1), F(3, 2), F(7, 5), F(2), F(-10)):
        _radii_agree_with_oracle(t)


def test_radii_match_oracle_just_off_sqrt2_sandwiches():
    # the cuts sit at 1/2, 3/4 and 1 times sqrt(2); points a hair on either
    # side of a sandwich end need a deeper sandwich before both cuts clear
    for p in range(1, 20, 3):
        lo, hi = oracle_dyadic.cn_bounds(-1, p)
        for cut in (F(1, 2), F(3, 4), F(1)):
            for end in (cut * lo, cut * hi):
                for k in (p + 1, 2 * p + 5):
                    for t in (end - pow2(-k), end + pow2(-k)):
                        _radii_agree_with_oracle(t)
                        _radii_agree_with_oracle(-t * pow2(-7))


def _sqrt2_convergents(count):
    """The first continued-fraction convergents p/q of sqrt(2), each within
    1/q**2 of it: a ball search near them needs a deep sandwich."""
    p, q = 1, 1
    for _ in range(count):
        yield F(p, q)
        p, q = p + 2 * q, p + q


def test_ball_search_on_ints_matches_its_fraction_loop(monkeypatch):
    # each radius from the int ball search must equal the one from the
    # Fraction loop it replaced, through all three callers; the convergents
    # sit near the cuts at 1/2, 3/4 and 1 times sqrt(2), on either side
    rng = random.Random(20260810 + 31)
    ts = [rand_nonzero_rat(rng, bits) for bits in (4, 12, 32, 64) for _ in range(2400)]
    for c in _sqrt2_convergents(60):
        for cut in (F(1), F(1, 2), F(3, 4)):
            for k in (0, 9):
                ts += [cut * c * pow2(-k), -cut * c * pow2(-k)]
    assert len(ts) >= 10**4
    radii = (sqrt2_gap_radius, constancy_radius_q, outer_constancy_radius_q)
    got = [[r(t) for r in radii] for t in ts]
    monkeypatch.setattr(dyadic, "_sqrt2_gap", oracle_dyadic.sqrt2_gap)
    for t, row in zip(ts, got):
        assert row == [r(t) for r in radii], t
