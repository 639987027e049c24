"""Demo orchestration for the four failing properties, and the driver that
runs demos and claim files alike.

Each demo is a generator of steps: certificates with their schedules and
plain records.  `run` referees every step in turn, writes its records to
a text sink as soon as it is refereed, and returns the exit code, which
the demo returns too.  Exit 0 means the
expected pattern was observed: hypothesis certificates verified (evidence)
and the conclusion claim refuted (exact refutation instances at every
challenged delta) — i.e. the incompleteness phenomenon was exhibited.  Any
unexpected verdict yields exit 1 with the offending record in the
transcript.

`DEMOS` names the demos in definition order.  Demo `name` is the function
`demo_<name>`, and its keyword parameters are the flags it takes.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from .certs import ConstRule, LinearCapRule, QStepProbe, QXStepProbe, TwoSided
from .claims import (
    DEFAULT_DELTA_DEPTH,
    DEFAULT_EPS_DEPTH,
    DEFAULT_PROBE_BUDGET,
    Check,
    FalsifierCert,
    LimitClaim,
    VerifierCert,
    check_falsifier,
    check_verifier,
    default_delta_schedule,
    default_eps_schedule,
    derivative_claim,
)
from .dyadic import sqrt2_bounds
from .errors import DomainError
from .fields import Field, Value, field_one, field_zero
from .functions import (
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
    render_name,
)
from .laurent import RF_ONE, RF_X, rf_const, x_pow
from .rationals import scaled
from .transcript import Transcript

SAMPLE_EPS_DEPTH = 16
SAMPLE_PROBE_BUDGET = 1
MVT_PROBE_BUDGET = 0
DEMOS: list[str] = []  # the demo names in definition order, added by _demo

# The distinct rationals in (1, 2) with a denominator below 400: the pool
# the mvt demo tops its interior points up from.  A larger count could
# never be reached, so it is refused instead of sampled forever.
MAX_MVT_POINTS = 48_517


class Record(Value):
    """A plain transcript record; an `outcome` other than None counts
    toward the verdict."""

    FIELDS = ("kind", "pairs", "outcome")
    DEFAULTS = {"outcome": None}


def run(name: str, header: list, steps, out) -> int:
    """Write to out the transcript of the header line, the records and
    reports of every step in order, and the summary line; return its exit
    code: 0 when every report and outcome passed, else 1.  Every step
    runs, so each failing record is in the transcript.  Each step's lines
    go to out as soon as it is refereed, and its report is dropped, so the
    run holds about one report at a time.  The counts of the summary are
    the ones Transcript.add_report returns as it writes each report, with
    the checks of each passing use as one block; claims are numbered by
    their text.  The verifiers of the run share one probe table, which
    builds the offsets of each (field, level) once and is dropped when
    the run returns."""
    tr = Transcript()
    table: dict = {}
    tr.header([("demo", name)] + header)
    out.write(tr.render())
    verdict = True
    checks = 0
    for step in steps:
        if isinstance(step, Record):
            tr.add(step.kind, step.pairs)
            ok = step.outcome is not False
        else:
            if isinstance(step.cert, FalsifierCert):
                report = check_falsifier(step.cert, step.schedule)
            else:
                report = check_verifier(step.cert, step.schedule, step.budget, table)
            n, ok = tr.add_report(report)
            checks += n
            del report
        out.write(tr.render())
        verdict = verdict and ok
    code = 0 if verdict else 1
    tr.summary(name, checks, code, verdict)
    out.write(tr.render())
    return code


def _demo(make_steps):
    """Make a demo out of a generator function that yields the demo's
    header pairs once its schedules are built, then its steps, and add
    its name, the function's name without `demo_`, to DEMOS.  The demo
    takes the same arguments and the keyword-only sink `out`, runs the
    steps into out and returns the exit code."""
    name = make_steps.__name__.removeprefix("demo_")
    DEMOS.append(name)

    @functools.wraps(make_steps)
    def demo(*args, out, **kwargs) -> int:
        steps = make_steps(*args, **kwargs)
        return run(name, next(steps), steps, out)

    return demo


# One row per field: the step function f that the dlim and lhopital demos
# refute on, its envelope rule and note at 0, the points where f' = 0 is
# sampled, and the eps and witness that refute lim f(t)/t = 0.
_ROW = {
    Field.Q: (
        StepQ(),
        LinearCapRule(Fraction(1), Fraction(1, 2)),
        "envelope |f(t)| < 2|t|, so delta = min(1, eps/2) works",
        (
            Fraction(1),
            Fraction(-1),
            Fraction(3, 4),
            Fraction(-3, 4),
            Fraction(5, 14),
            Fraction(-5, 14),
            scaled(Fraction(7, 5), -8),
            scaled(Fraction(5, 7), -64),
        ),
        Fraction(1, 2),
        QStepProbe(Fraction(5, 7)),
    ),
    Field.QX: (
        StepQX(),
        LinearCapRule(RF_ONE, RF_X),
        "envelope |f(t)| < |t|/x, so delta = min(1, x*eps) works",
        (
            RF_X,
            -RF_X,
            rf_const(Fraction(3)) * x_pow(2),
            rf_const(Fraction(5, 7)) * x_pow(-1),
            RF_ONE + RF_X,
            -(x_pow(3) / 2),
        ),
        RF_X,
        QXStepProbe(RF_ONE, 1),
    ),
}


def _header(field: Field, eps_depth: int, delta_depth: int, lead=(), tail=()) -> list:
    """The header pairs of a refutation demo: its own pairs `lead` go
    after the field and `tail` at the end."""
    depths = [("eps-depth", eps_depth), ("delta-depth", delta_depth)]
    budgets = [("probe-budget", DEFAULT_PROBE_BUDGET), ("sample-eps-depth", SAMPLE_EPS_DEPTH)]
    return [("field", field), *lead, *depths, *budgets, *tail]


def _schedules(field: Field, eps_depth: int, delta_depth: int) -> tuple[list, list, list]:
    """The full eps schedule, the sample eps schedule and the delta
    schedule of a refutation demo, built in that order."""
    full, short = (default_eps_schedule(field, d) for d in (eps_depth, SAMPLE_EPS_DEPTH))
    return full, short, default_delta_schedule(field, delta_depth)


def _at_zero(fn, rule, note: str, eps_schedule) -> Check:
    """The check that verifies lim fn(t) = 0 at t = 0 with rule."""
    zero = field_zero(fn.field)
    return Check(VerifierCert(LimitClaim(fn, zero, zero), rule, note), eps_schedule)


def _refute(fn, deltas, eps, witness, candidate=None, other=None):
    """Refute lim fn(t) = 0 at 0 with witness at eps; when a candidate is
    given, refute lim fn(t) = candidate too, with other = (eps, neg,
    midpoint) and the witness TwoSided(witness, neg, midpoint)."""
    zero = field_zero(fn.field)
    yield Check(FalsifierCert(LimitClaim(fn, zero, zero), eps, witness), deltas)
    if candidate is not None:
        other_eps, neg, midpoint = other
        two_sided = TwoSided(witness, neg, midpoint)
        yield Check(FalsifierCert(LimitClaim(fn, zero, candidate), other_eps, two_sided), deltas)


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
    eps_depth: int = DEFAULT_EPS_DEPTH,
    delta_depth: int | None = None,
):
    """Limit of Derivatives Property fails: lim f = 0 = f(0) and
    lim f' = 0 verify, while lim f(t)/t = 0 (the value the property would
    force) is refuted at every challenged delta."""
    if delta_depth is None:
        delta_depth = DEFAULT_DELTA_DEPTH[field]
    eps_full, eps_short, deltas = _schedules(field, eps_depth, delta_depth)
    yield _header(field, eps_depth, delta_depth)
    f, env_rule, env_note, samples, refute_eps, witness = _ROW[field]
    zero = field_zero(field)

    # (i) continuity at 0: lim f(t) = 0 = f(0)
    yield _at_zero(f, env_rule, env_note, eps_full)
    # (ii) f'(t) = 0 at sampled t != 0, and lim f'(t) = 0
    yield from _derivative_checks(f, samples, eps_short)
    yield _at_zero(
        Constant(field, zero),
        ConstRule(field_one(field)),
        "f' vanishes identically off 0 by local constancy; "
        "see the sampled difference-quotient certificates",
        eps_full,
    )
    # (iii) but f'(0), i.e. lim f(t)/t, is not 0
    yield from _refute(DiffQuotient(f, zero), deltas, refute_eps, witness)


def _interior_points(count: int, seed: int) -> list[Fraction]:
    """Exactly count interior sample points of (1, 2): a few fixed
    landmarks, dyadic sandwiches of sqrt(2) of growing precision, topped
    up with seeded random rationals; below four, the smallest landmarks."""
    pts: set[Fraction] = {
        Fraction(5, 4),
        Fraction(7, 5),
        Fraction(3, 2),
        Fraction(7, 4),
    }
    p = 2
    while len(pts) < min(count // 2, 24):
        # from p = 2 on every sandwich of sqrt(2) lies inside (1, 2)
        pts.update(sqrt2_bounds(p))
        p += 1
    rng = random.Random(seed)
    while len(pts) < count:
        den = rng.randrange(3, 400)
        num = rng.randrange(den + 1, 2 * den)
        pts.add(Fraction(num, den))
    return sorted(pts)[:count]


@_demo
def demo_mvt(
    points: int = 100,
    seed: int = 0,
    eps_depth: int = 12,
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
    eps_schedule = default_eps_schedule(Field.Q, eps_depth)
    yield [
        ("field", Field.Q),
        ("eps-depth", eps_depth),
        ("probe-budget", MVT_PROBE_BUDGET),
        ("points", points),
        ("seed", seed),
    ]
    ind = IndicatorCut()
    a, b = Fraction(1), Fraction(2)
    fa, fb = evaluate(ind, a), evaluate(ind, b)
    yield Record("value", [("fn", render_name(ind)), ("at", a), ("value", fa)])
    yield Record("value", [("fn", render_name(ind)), ("at", b), ("value", fb)])
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
        # one ball per point, read off the table; f(c) = 1 below sqrt(2)
        cert = derivative_certificate(ind, c)
        radius = cert.rule.d0
        fc = evaluate(ind, c)
        below = fc == 1
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
        for claim, note in (
            (LimitClaim(ind, c, fc), "constant on this side of sqrt(2)"),
            (derivative_claim(ind, c, cert.value), cert.note),
        ):
            yield Check(VerifierCert(claim, cert.rule, note), eps_schedule, MVT_PROBE_BUDGET)


@_demo
def demo_lhopital(
    candidate: Fraction | None = None,
    eps_depth: int = DEFAULT_EPS_DEPTH,
    delta_depth: int = DEFAULT_DELTA_DEPTH[Field.Q],
):
    """Classical (punctured-neighborhood) L'Hopital fails for
    (f, g) = (StepQ, Identity): all hypotheses verify, yet lim f/g = 0 is
    refuted.  The pointwise textbook form is also checked — it holds for a
    smooth pair, as it must in any ordered field."""
    shown = candidate if candidate is not None else "0"
    eps_full, eps_short, deltas = _schedules(Field.Q, eps_depth, delta_depth)
    yield _header(Field.Q, eps_depth, delta_depth, tail=[("candidate", shown)])
    f, env_rule, _, samples, refute_eps, witness = _ROW[Field.Q]
    g = Identity(Field.Q)
    zero = Fraction(0)
    unit_cap = LinearCapRule(Fraction(1), Fraction(1))

    # hypotheses: lim f = 0, lim g = 0 at 0
    yield _at_zero(f, env_rule, "envelope |f(t)| < 2|t|", eps_full)
    yield _at_zero(g, unit_cap, "identity map", eps_full)
    # hypotheses: f' = 0 and g' = 1 on the punctured line (sampled), so f'/g' = 0
    yield from _derivative_checks(f, samples, eps_short)
    yield from _derivative_checks(g, samples[:2], eps_short)
    yield _at_zero(
        Quotient(Constant(Field.Q, zero), Constant(Field.Q, Fraction(1))),
        ConstRule(Fraction(1)),
        "f'/g' = 0/1 identically off 0; see the sampled certificates",
        eps_full,
    )
    # conclusion refuted: lim f(t)/g(t) is not 0
    other = (refute_eps, QStepProbe(Fraction(-5, 7)), zero)
    yield from _refute(Quotient(f, g), deltas, refute_eps, witness, candidate, other)
    # the pointwise displayed form holds for smooth 0/0 pairs in any
    # ordered field; referee-check its conclusion on (t^2, t) and (t^3, t)
    d_id = derivative_certificate(g, zero)
    pairs = [("fn", render_name(DiffQuotient(g, zero))), ("at", "any"), ("value", d_id.value)]
    yield Record("value", pairs + [("note", "g'(0) = 1 is nonzero")])
    for power in (2, 3):
        smooth = Power(Field.Q, power)
        yield from _derivative_checks(smooth, [zero], eps_short)
        yield _at_zero(
            Quotient(smooth, g),
            unit_cap,
            f"pointwise form conclusion for the smooth pair (t^{power}, t)",
            eps_full,
        )


@_demo
def demo_taylor(
    n: int = 2,
    candidate: Fraction | None = None,
    eps_depth: int = DEFAULT_EPS_DEPTH,
    delta_depth: int = DEFAULT_DELTA_DEPTH[Field.Q],
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
    shown = candidate if candidate is not None else "0"
    eps_full, eps_short, deltas = _schedules(Field.Q, eps_depth, delta_depth)
    yield _header(Field.Q, eps_depth, delta_depth, [("n", n)], [("candidate", shown)])
    zero = Fraction(0)
    F = OuterSquareStep()

    # k = 0: continuity, F(0) = 0
    envelope = "|F(t)| <= (8/9)t^2 < |t| for |t| <= 1"
    yield _at_zero(F, LinearCapRule(Fraction(1), Fraction(1)), envelope, eps_full)
    # k = 1: F'(0) = 0
    yield from _derivative_checks(F, [zero], eps_full, DEFAULT_PROBE_BUDGET)
    # k = 2..n: F^(k-1) = 0 identically, so F^(k)(0) = 0
    flat = DiffQuotient(Constant(Field.Q, zero), zero)
    for k in range(2, n + 1):
        note = f"k={k}: F^({k - 1}) vanishes identically, difference quotient is 0"
        yield _at_zero(flat, ConstRule(Fraction(1)), note, eps_full)
    # F' = 0 at sampled t != 0 (local constancy certificates)
    samples = [
        Fraction(13, 10),
        Fraction(-13, 10),
        Fraction(1),
        Fraction(-1),
        scaled(Fraction(13, 10), -8),
        scaled(Fraction(5, 7), -3),
        Fraction(7, 5),
        scaled(Fraction(-7, 5), -20),
    ]
    yield from _derivative_checks(F, samples, eps_short)
    # conclusion refuted: the Peano remainder F(t) is not o(t^n); against
    # a candidate, the outer probe when it is small, the inner one (value
    # 0) when it is not: either way the miss is at least 1/4
    conclusion = Quotient(F, Power(Field.Q, n))
    outer = QStepProbe(Fraction(13, 10))
    other = (Fraction(1, 4), QStepProbe(Fraction(1)), Fraction(1, 4))
    yield from _refute(conclusion, deltas, Fraction(1, 2), outer, candidate, other)
