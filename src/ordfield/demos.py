"""Demo orchestration for the four failing properties, and the driver that
runs demos and claim files alike.

Each demo is a generator of steps: certificates with their schedules and
plain records.  `run` referees every step and returns an exit code; the
demo returns that code plus the full transcript.  Exit 0 means the
expected pattern was observed: hypothesis certificates verified (evidence)
and the conclusion claim refuted (exact refutation instances at every
challenged delta) — i.e. the incompleteness phenomenon was exhibited.  Any
unexpected verdict yields exit 1 with the offending record in the
transcript.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction

from .certs import ConstRule, LinearCapRule, QStepProbe, QXStepProbe, TwoSided
from .claims import (
    DEFAULT_PROBE_BUDGET,
    FalsifierCert,
    LimitClaim,
    VerifierCert,
    check_falsifier,
    check_verifier,
    default_delta_schedule,
    default_eps_schedule,
    derivative_claim,
)
from .dyadic import sqrt2_bounds, sqrt2_gap_radius
from .errors import DomainError
from .fields import Field, field_one, field_zero
from .functions import (
    Constant,
    Identity,
    IndicatorCut,
    OuterSquareStep,
    Power,
    Quotient,
    StepQ,
    StepQX,
    derivative_certificate,
    evaluate,
)
from .laurent import RF_ONE, RF_X, rf_const, x_pow
from .rationals import pow2
from .transcript import Transcript

SAMPLE_EPS_DEPTH = 16
SAMPLE_PROBE_BUDGET = 1

# The distinct rationals in (1, 2) with a denominator below 400: the pool
# the mvt demo tops its interior points up from.  A larger count could
# never be reached, so it is refused instead of sampled forever.
MAX_MVT_POINTS = 48_517


@dataclass(frozen=True)
class Check:
    """Referee one certificate: a verifier on an epsilon schedule with a
    probe budget, or a falsifier on a delta schedule."""

    cert: VerifierCert | FalsifierCert
    schedule: list
    budget: int = DEFAULT_PROBE_BUDGET


@dataclass(frozen=True)
class Record:
    """A plain transcript record; an `outcome` other than None counts
    toward the verdict."""

    kind: str
    pairs: list
    outcome: bool | None = None


def run(tr: Transcript, name: str, steps) -> int:
    """Add the records and reports of every step to tr in order, then the
    summary line; returns the exit code, 0 when every report and outcome
    passed, else 1.  Every step runs, so each failing record is in the
    transcript."""
    verdict = True
    for step in steps:
        if isinstance(step, Record):
            tr.add(step.kind, step.pairs)
            ok = step.outcome is not False
        else:
            if isinstance(step.cert, FalsifierCert):
                report = check_falsifier(step.cert, step.schedule)
            else:
                report = check_verifier(step.cert, step.schedule, step.budget)
            tr.add_report(report)
            ok = report.passed
        verdict = verdict and ok
    code = 0 if verdict else 1
    tr.summary(name, code, verdict)
    return code


def _demo(make_steps):
    """Make a demo out of a generator function that first yields the
    demo's header pairs and then its steps.  The demo takes the same
    arguments, runs the steps and returns (exit code, transcript); its
    name in the transcript is the function's name without `demo_`."""
    name = make_steps.__name__.removeprefix("demo_")

    @functools.wraps(make_steps)
    def demo(*args, **kwargs) -> tuple[int, Transcript]:
        steps = make_steps(*args, **kwargs)
        tr = Transcript()
        tr.header([("demo", name)] + next(steps))
        return run(tr, name, steps), tr

    return demo


_Q_SAMPLES = (
    Fraction(1),
    Fraction(-1),
    Fraction(3, 4),
    Fraction(-3, 4),
    Fraction(5, 14),
    Fraction(-5, 14),
    Fraction(7, 5) * pow2(-8),
    Fraction(5, 7) * pow2(-64),
)

_QX_SAMPLES = (
    RF_X,
    -RF_X,
    rf_const(Fraction(3)) * x_pow(2),
    rf_const(Fraction(5, 7)) * x_pow(-1),
    RF_ONE + RF_X,
    -(x_pow(3) / 2),
)


def _derivative_checks(fn, points, eps_schedule, budget: int = SAMPLE_PROBE_BUDGET):
    """Verify the closed-form derivative certificate of fn at each point."""
    for t in points:
        cert = derivative_certificate(fn, t)
        yield Check(
            VerifierCert(derivative_claim(fn, t, cert.value), cert.rule, cert.note),
            eps_schedule,
            budget,
        )


@_demo
def demo_dlim(
    field: Field = Field.Q,
    eps_depth: int = 128,
    delta_depth: int | None = None,
    probe_budget: int = 2,
):
    """Limit of Derivatives Property fails: lim f = 0 = f(0) and
    lim f' = 0 verify, while lim f(t)/t = 0 (the value the property would
    force) is refuted at every challenged delta."""
    if delta_depth is None:
        delta_depth = 512 if field is Field.Q else 64
    yield [
        ("field", field),
        ("eps-depth", eps_depth),
        ("delta-depth", delta_depth),
        ("probe-budget", probe_budget),
        ("sample-eps-depth", SAMPLE_EPS_DEPTH),
    ]
    eps_full = default_eps_schedule(field, eps_depth)
    eps_short = default_eps_schedule(field, SAMPLE_EPS_DEPTH)
    deltas = default_delta_schedule(field, delta_depth)
    zero = field_zero(field)

    if field is Field.Q:
        f = StepQ()
        env_rule = LinearCapRule(Fraction(1), Fraction(1, 2))
        env_note = "envelope |f(t)| < 2|t|, so delta = min(1, eps/2) works"
        samples = _Q_SAMPLES
        refute_eps, witness = Fraction(1, 2), QStepProbe(Fraction(5, 7))
    else:
        f = StepQX()
        env_rule = LinearCapRule(RF_ONE, RF_X)
        env_note = "envelope |f(t)| < |t|/x, so delta = min(1, x*eps) works"
        samples = _QX_SAMPLES
        refute_eps, witness = RF_X, QXStepProbe(RF_ONE, 1)

    # (i) continuity at 0: lim f(t) = 0 = f(0)
    yield Check(VerifierCert(LimitClaim(f, zero, zero), env_rule, env_note), eps_full, probe_budget)
    # (ii) f'(t) = 0 at sampled t != 0, and lim f'(t) = 0
    yield from _derivative_checks(f, samples, eps_short)
    yield Check(
        VerifierCert(
            LimitClaim(Constant(field, zero), zero, zero),
            ConstRule(field_one(field)),
            "f' vanishes identically off 0 by local constancy; "
            "see the sampled difference-quotient certificates",
        ),
        eps_full,
        probe_budget,
    )
    # (iii) but f'(0), i.e. lim f(t)/t, is not 0
    yield Check(FalsifierCert(derivative_claim(f, zero, zero), refute_eps, witness), deltas)


def _interior_points(count: int, seed: int) -> list[Fraction]:
    """Interior sample points of (1, 2): a few fixed landmarks, dyadic
    bisection bounds refined toward both sides of sqrt(2), topped up with
    seeded random rationals."""
    pts: set[Fraction] = {
        Fraction(5, 4),
        Fraction(7, 5),
        Fraction(3, 2),
        Fraction(7, 4),
    }
    p = 2
    while len(pts) < min(count // 2, 24):
        lo, hi = sqrt2_bounds(p)
        if 1 < lo:
            pts.add(lo)
        if hi < 2:
            pts.add(hi)
        p += 1
    rng = random.Random(seed)
    while len(pts) < count:
        den = rng.randrange(3, 400)
        num = rng.randrange(den + 1, 2 * den)
        pts.add(Fraction(num, den))
    return sorted(pts)


@_demo
def demo_mvt(
    points: int = 100,
    seed: int = 0,
    eps_depth: int = 12,
    probe_budget: int = 0,
):
    """Mean Value Theorem fails on [1, 2] for the indicator of the cut set
    {q : q < 0 or q^2 < 2}: f(2) - f(1) = -1 although every interior point
    carries a continuity certificate and an exactly-zero derivative."""
    if points < 1:
        raise DomainError(f"demo mvt needs at least 1 interior point, asked for {points}")
    if points > MAX_MVT_POINTS:
        raise DomainError(
            f"at most {MAX_MVT_POINTS} distinct interior points exist, asked for {points}"
        )
    yield [
        ("field", Field.Q),
        ("eps-depth", eps_depth),
        ("probe-budget", probe_budget),
        ("points", points),
        ("seed", seed),
    ]
    eps_schedule = default_eps_schedule(Field.Q, eps_depth)
    ind = IndicatorCut()
    a, b = Fraction(1), Fraction(2)
    fa, fb = evaluate(ind, a), evaluate(ind, b)
    yield Record("value", [("fn", "indicator_cut"), ("at", a), ("value", fa)])
    yield Record("value", [("fn", "indicator_cut"), ("at", b), ("value", fb)])
    gap = fb - fa
    yield Record(
        "mvt",
        [
            ("a", a),
            ("b", b),
            ("fa", fa),
            ("fb", fb),
            ("gap", gap),
            ("fprime-times-interval", Fraction(0)),
            ("note", "f(b) - f(a) = -1 differs from f'(c)(b - a) = 0 at every sampled c"),
        ],
        gap == -1,
    )
    for c in _interior_points(points, seed):
        radius = sqrt2_gap_radius(c)
        below = c * c < 2
        edge = c + radius if below else c - radius
        edge_sq = edge * edge
        bound_ok = edge_sq < 2 if below else edge_sq > 2
        yield Record(
            "bound",
            [
                ("point", c),
                ("radius", radius),
                ("side", "below" if below else "above"),
                ("edge", edge),
                ("edge-sq", edge_sq),
                ("cmp", "lt" if below else "gt"),
                ("rhs", Fraction(2)),
                ("verdict", bound_ok),
            ],
            bound_ok,
        )
        yield Check(
            VerifierCert(
                LimitClaim(ind, c, evaluate(ind, c)),
                ConstRule(radius),
                "constant on this side of sqrt(2)",
            ),
            eps_schedule,
            probe_budget,
        )
        yield from _derivative_checks(ind, [c], eps_schedule, probe_budget)


@_demo
def demo_lhopital(
    candidate: Fraction | None = None,
    eps_depth: int = 128,
    delta_depth: int = 512,
    probe_budget: int = 2,
):
    """Classical (punctured-neighborhood) L'Hopital fails for
    (f, g) = (StepQ, Identity): all hypotheses verify, yet lim f/g = 0 is
    refuted.  The pointwise textbook form is also checked — it holds for a
    smooth pair, as it must in any ordered field."""
    yield [
        ("field", Field.Q),
        ("eps-depth", eps_depth),
        ("delta-depth", delta_depth),
        ("probe-budget", probe_budget),
        ("sample-eps-depth", SAMPLE_EPS_DEPTH),
        ("candidate", candidate if candidate is not None else "0"),
    ]
    eps_full = default_eps_schedule(Field.Q, eps_depth)
    eps_short = default_eps_schedule(Field.Q, SAMPLE_EPS_DEPTH)
    deltas = default_delta_schedule(Field.Q, delta_depth)
    zero = Fraction(0)
    f, g = StepQ(), Identity(Field.Q)

    # hypotheses: lim f = 0, lim g = 0 at 0
    yield Check(
        VerifierCert(
            LimitClaim(f, zero, zero),
            LinearCapRule(Fraction(1), Fraction(1, 2)),
            "envelope |f(t)| < 2|t|",
        ),
        eps_full,
        probe_budget,
    )
    yield Check(
        VerifierCert(
            LimitClaim(g, zero, zero),
            LinearCapRule(Fraction(1), Fraction(1)),
            "identity map",
        ),
        eps_full,
        probe_budget,
    )
    # hypotheses: f' = 0 and g' = 1 on the punctured line (sampled), so f'/g' = 0
    yield from _derivative_checks(f, _Q_SAMPLES, eps_short)
    yield from _derivative_checks(g, _Q_SAMPLES[:2], eps_short)
    yield Check(
        VerifierCert(
            LimitClaim(Quotient(Constant(Field.Q, zero), Constant(Field.Q, Fraction(1))), zero, zero),
            ConstRule(Fraction(1)),
            "f'/g' = 0/1 identically off 0; see the sampled certificates",
        ),
        eps_full,
        probe_budget,
    )
    # conclusion refuted: lim f(t)/g(t) is not 0
    conclusion = Quotient(f, g)
    yield Check(
        FalsifierCert(
            LimitClaim(conclusion, zero, zero), Fraction(1, 2), QStepProbe(Fraction(5, 7))
        ),
        deltas,
    )
    if candidate is not None:
        yield Check(
            FalsifierCert(
                LimitClaim(conclusion, zero, candidate),
                Fraction(1, 2),
                TwoSided(QStepProbe(Fraction(5, 7)), QStepProbe(Fraction(-5, 7)), zero),
            ),
            deltas,
        )
    # the pointwise displayed form holds for smooth 0/0 pairs in any
    # ordered field; referee-check its conclusion on (t^2, t) and (t^3, t)
    d_id = derivative_certificate(g, zero)
    yield Record(
        "value",
        [("fn", "diffq(identity,0)"), ("at", "any"), ("value", d_id.value), ("note", "g'(0) = 1 is nonzero")],
    )
    for power in (2, 3):
        smooth = Power(Field.Q, power)
        yield from _derivative_checks(smooth, [zero], eps_short)
        yield Check(
            VerifierCert(
                LimitClaim(Quotient(smooth, g), zero, zero),
                LinearCapRule(Fraction(1), Fraction(1)),
                f"pointwise form conclusion for the smooth pair (t^{power}, t)",
            ),
            eps_full,
            probe_budget,
        )


@_demo
def demo_taylor(
    n: int = 2,
    candidate: Fraction | None = None,
    eps_depth: int = 128,
    delta_depth: int = 512,
    probe_budget: int = 2,
):
    """Taylor's Theorem with Peano Remainder fails at order n >= 2 for the
    outer-square step function F: every derivative of F at 0 exists and is
    0 (certified), so the degree-n Taylor polynomial vanishes, yet
    lim F(t)/t^n = 0 is refuted with eps = 1/2.  n = 1 is excluded: that
    case is a theorem of every ordered field."""
    if n < 2:
        raise DomainError(
            "the Taylor order n must be at least 2 "
            "(the n = 1 case is a theorem of every ordered field)"
        )
    yield [
        ("field", Field.Q),
        ("n", n),
        ("eps-depth", eps_depth),
        ("delta-depth", delta_depth),
        ("probe-budget", probe_budget),
        ("sample-eps-depth", SAMPLE_EPS_DEPTH),
        ("candidate", candidate if candidate is not None else "0"),
    ]
    eps_full = default_eps_schedule(Field.Q, eps_depth)
    eps_short = default_eps_schedule(Field.Q, SAMPLE_EPS_DEPTH)
    deltas = default_delta_schedule(Field.Q, delta_depth)
    zero = Fraction(0)
    F = OuterSquareStep()

    # k = 0: continuity, F(0) = 0
    yield Check(
        VerifierCert(
            LimitClaim(F, zero, zero),
            LinearCapRule(Fraction(1), Fraction(1)),
            "|F(t)| <= (8/9)t^2 < |t| for |t| <= 1",
        ),
        eps_full,
        probe_budget,
    )
    # k = 1: F'(0) = 0
    yield from _derivative_checks(F, [zero], eps_full, probe_budget)
    # k = 2..n: F^(k-1) = 0 identically, so F^(k)(0) = 0
    for k in range(2, n + 1):
        yield Check(
            VerifierCert(
                derivative_claim(Constant(Field.Q, zero), zero, zero),
                ConstRule(Fraction(1)),
                f"k={k}: F^({k - 1}) vanishes identically, difference quotient is 0",
            ),
            eps_full,
            probe_budget,
        )
    # F' = 0 at sampled t != 0 (local constancy certificates)
    samples = [
        Fraction(13, 10),
        Fraction(-13, 10),
        Fraction(1),
        Fraction(-1),
        Fraction(13, 10) * pow2(-8),
        Fraction(5, 7) * pow2(-3),
        Fraction(7, 5),
        Fraction(-7, 5) * pow2(-20),
    ]
    yield from _derivative_checks(F, samples, eps_short)
    # conclusion refuted: the Peano remainder F(t) is not o(t^n)
    conclusion = Quotient(F, Power(Field.Q, n))
    yield Check(
        FalsifierCert(
            LimitClaim(conclusion, zero, zero), Fraction(1, 2), QStepProbe(Fraction(13, 10))
        ),
        deltas,
    )
    if candidate is not None:
        # outer probe when the candidate is small, inner (value 0) when it
        # is not; either way the miss is at least 1/4
        yield Check(
            FalsifierCert(
                LimitClaim(conclusion, zero, candidate),
                Fraction(1, 4),
                TwoSided(
                    QStepProbe(Fraction(13, 10)), QStepProbe(Fraction(1)), Fraction(1, 4)
                ),
            ),
            deltas,
        )
