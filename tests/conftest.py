import io
import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

import ordfield
from ordfield.laurent import RatFunc, poly, rf_normalize, valuation
from ordfield.rationals import pow2

# a child process imports the same ordfield package as the tests
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        [str(Path(ordfield.__file__).resolve().parents[1])]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ),
}


def run_demo(run, *args, **kwargs) -> tuple[int, str]:
    """Run a demo, or `demos.run`, into an in-memory sink: the exit code
    and the transcript text."""
    out = io.StringIO()
    code = run(*args, out=out, **kwargs)
    return code, out.getvalue()


@pytest.fixture
def rng():
    return random.Random(20260810)


def rand_rat(rng: random.Random, bits: int = 32) -> Fraction:
    return Fraction(rng.randint(-(1 << bits), 1 << bits), rng.randint(1, 1 << bits))


def rand_nonzero_rat(rng: random.Random, bits: int = 32) -> Fraction:
    while True:
        q = rand_rat(rng, bits)
        if q:
            return q


def rand_poly(rng: random.Random, max_deg: int = 2, coeff: int = 9, nonzero: bool = False):
    while True:
        deg = rng.randint(0, max_deg)
        p = poly(Fraction(rng.randint(-coeff, coeff)) for _ in range(deg + 1))
        if p or not nonzero:
            return p


def rand_ratfunc(rng: random.Random, max_deg: int = 2, coeff: int = 9) -> RatFunc:
    num = rand_poly(rng, max_deg, coeff)
    den = rand_poly(rng, max_deg, coeff, nonzero=True)
    return rf_normalize(num, den)


def rand_nonzero_ratfunc(rng: random.Random, max_deg: int = 2, coeff: int = 9) -> RatFunc:
    while True:
        f = rand_ratfunc(rng, max_deg, coeff)
        if f:
            return f


def accept_rf(rng: random.Random) -> RatFunc:
    """The criterion-1 operand: 5 % degree-3 operands with 2^16-sized
    coefficients, the rest degree <= 2 with coefficients in [-9, 9]."""
    degs = (0, 1, 1, 2)
    if rng.random() < 0.05:
        num = rand_poly(rng, 3, 1 << 16)
        den = rand_poly(rng, 3, 1 << 16, nonzero=True)
    else:
        num = rand_poly(rng, rng.choice(degs), 9)
        den = rand_poly(rng, rng.choice(degs), 9, nonzero=True)
    return rf_normalize(num, den)


def wide_rationals(rng: random.Random, count: int) -> list[Fraction]:
    """Nonzero rationals with magnitudes spanning 2^-200..2^200."""
    out = []
    for _ in range(count):
        e = rng.randint(-200, 200)
        p = rng.randint(1, 1 << 20)
        q = rng.randint(1, 1 << 20)
        sign = rng.choice((1, -1))
        out.append(sign * Fraction(p, q) * pow2(e))
    return out


def wide_ratfuncs(rng: random.Random, count: int) -> list[RatFunc]:
    """Nonzero elements of Q(x) with valuations -20..20 and coefficient
    magnitudes <= 2^64."""
    big = 1 << 64
    out = []
    while len(out) < count:
        v = rng.randint(-20, 20)
        unit_num = [rng.randint(1, big) * rng.choice((1, -1))] + [
            rng.randint(-big, big) for _ in range(rng.randint(0, 2))
        ]
        unit_den = [rng.randint(1, big) * rng.choice((1, -1))] + [
            rng.randint(-big, big) for _ in range(rng.randint(0, 2))
        ]
        num = [Fraction(0)] * max(v, 0) + [Fraction(c) for c in unit_num]
        den = [Fraction(0)] * max(-v, 0) + [Fraction(c) for c in unit_den]
        f = rf_normalize(tuple(num), tuple(den))
        assert valuation(f) == v
        out.append(f)
    return out
