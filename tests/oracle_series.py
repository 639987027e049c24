"""Independent oracle: truncated Laurent expansions at 0 via coefficient
long division.

This path shares no code with the RatFunc arithmetic it cross-checks: it
works on coefficient streams only (no gcd, no canonical form).  A Series
holds exact coefficients for every exponent in [lo, hi) and is exactly
zero below lo, so two series can be compared on the overlap of their
windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ordfield.laurent import RatFunc
from oracle_qx import dense

TERMS = 32


@dataclass(frozen=True)
class Series:
    lo: int
    hi: int
    coeffs: dict  # exponent -> Fraction, for lo <= e < hi

    def coeff(self, e: int) -> Fraction:
        return self.coeffs.get(e, Fraction(0))


def expand(f: RatFunc, terms: int = TERMS) -> Series:
    """Exact expansion of f at 0 to `terms` coefficients by long division."""
    if not f:
        return Series(0, terms, {})
    num, den = dense(f)
    on = next(i for i, c in enumerate(num) if c)
    od = next(i for i, c in enumerate(den) if c)
    v = on - od
    num = list(num[on:])
    den = list(den[od:])
    inv0 = Fraction(1, den[0])
    out: dict[int, Fraction] = {}
    cs: list[Fraction] = []
    for k in range(terms):
        acc = num[k] if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * cs[k - j]
        c = acc * inv0
        cs.append(c)
        if c:
            out[v + k] = c
    return Series(v, v + terms, out)


def s_add(a: Series, b: Series) -> Series:
    lo = min(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    out = {}
    for e in range(lo, hi):
        c = a.coeff(e) + b.coeff(e)
        if c:
            out[e] = c
    return Series(lo, hi, out)


def s_neg(a: Series) -> Series:
    return Series(a.lo, a.hi, {e: -c for e, c in a.coeffs.items()})


def s_sub(a: Series, b: Series) -> Series:
    return s_add(a, s_neg(b))


def s_mul(a: Series, b: Series) -> Series:
    lo = a.lo + b.lo
    hi = min(a.hi + b.lo, b.hi + a.lo)
    out: dict[int, Fraction] = {}
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            e = ea + eb
            if e < hi:
                prev = out.get(e)
                out[e] = ca * cb if prev is None else prev + ca * cb
    return Series(lo, hi, {e: c for e, c in out.items() if c})


def s_inv(b: Series) -> Series:
    """Reciprocal series; b must have a nonzero coefficient in its window."""
    vs = [e for e, c in b.coeffs.items() if c]
    if not vs:
        raise ZeroDivisionError("reciprocal of a zero series window")
    bv = min(vs)
    n = b.hi - bv
    bs = [b.coeff(bv + k) for k in range(n)]
    inv0 = 1 / bs[0]
    cs: list[Fraction] = []
    for k in range(n):
        acc = Fraction(1) if k == 0 else Fraction(0)
        for j in range(1, k + 1):
            acc -= bs[j] * cs[k - j]
        cs.append(acc * inv0)
    out = {-bv + k: cs[k] for k in range(n) if cs[k]}
    return Series(-bv, -bv + n, out)


def s_div(a: Series, b: Series) -> Series:
    return s_mul(a, s_inv(b))


def series_equal(a: Series, b: Series, min_window: int = 8) -> bool:
    """Exact agreement on the overlap window, which must be informative."""
    lo = min(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    if hi - lo < min_window:
        raise AssertionError(f"window [{lo}, {hi}) too small to compare")
    return all(a.coeff(e) == b.coeff(e) for e in range(lo, hi))
