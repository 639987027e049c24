"""Epsilon-delta limit claims, their certificates, and the exact referee.

The epistemic asymmetry is deliberate and explicit in every report:

  * a VerifierCert (a closed-form delta-rule) is checked on probe
    schedules; passing is tagged `evidence` because bounded probing cannot
    prove a universally quantified statement;
  * a FalsifierCert (a fixed epsilon plus a closed-form witness rule) is
    checked per challenge delta; every passing record is a machine-checked
    proof that this delta fails for that epsilon, so the report is tagged
    `refutation-instances`.

Each certificate class sets KIND, its report TAG and its SCHEDULE kind;
`record_pairs` and `from_record` render and parse its `cert` record.

All checks are exact; each record carries the values needed to recompute
its verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .certs import DeltaRule, TwoSided, WitnessRule, min_dyadic_depth, parse_rule, parse_witness
from .errors import DomainError, ResourceError, digit_limit
from .fields import Field, check_elem, field_zero, from_rat, render_elem
from .functions import DiffQuotient, FieldFn, evaluate
from .laurent import rf_const, valuation, x_pow
from .literals import parse_elem
from .rationals import pow2

DEFAULT_EPS_DEPTH = 128
DEFAULT_DELTA_DEPTH = {Field.Q: 512, Field.QX: 64}
DEFAULT_PROBE_BUDGET = 2

_Q_PATTERNS = (Fraction(5, 7), Fraction(3, 4), Fraction(1), Fraction(7, 5))
_QX_PATTERNS = (Fraction(1, 2), Fraction(1), Fraction(2))


@dataclass(frozen=True)
class LimitClaim:
    """The statement lim_{t -> point} fn(t) = candidate."""

    fn: FieldFn
    point: object
    candidate: object

    def __post_init__(self):
        f = self.field
        check_elem(f, self.point)
        check_elem(f, self.candidate)

    @property
    def field(self) -> Field:
        return self.fn.field


@dataclass(frozen=True)
class VerifierCert:
    claim: LimitClaim
    rule: DeltaRule
    note: str = ""

    KIND = "verifier"
    TAG = "evidence"
    SCHEDULE = "eps"

    def record_pairs(self) -> list:
        pairs = [("rule", self.rule.render())]
        if self.note:
            pairs.append(("note", self.note))
        return pairs

    @classmethod
    def from_record(cls, claim: LimitClaim, kv: dict, need) -> VerifierCert:
        return cls(claim, parse_rule(need("rule"), claim.field), kv.get("note", ""))


@dataclass(frozen=True)
class FalsifierCert:
    claim: LimitClaim
    epsilon: object
    witness: WitnessRule

    KIND = "falsifier"
    TAG = "refutation-instances"
    SCHEDULE = "delta"

    def record_pairs(self) -> list:
        return [("eps", self.epsilon), ("witness", self.witness.render())]

    @classmethod
    def from_record(cls, claim: LimitClaim, kv: dict, need) -> FalsifierCert:
        fld = claim.field
        return cls(claim, parse_elem(fld, need("eps")), parse_witness(need("witness"), fld))


class CheckRecord(NamedTuple):
    """One exact referee check; the verdict is recomputable from the claim
    plus these values alone."""

    kind: str  # the certificate's KIND
    eps: object
    delta: object
    w: object  # probe or witness point
    fw: object  # fn(w), None when evaluation failed
    dist: object  # |fn(w) - candidate|
    sep: object  # |w - point|
    ok: bool


class Probe(NamedTuple):
    """A probe or witness point w with fn(w), |fn(w) - candidate| and
    |w - point|; fw and dist are None when w is off fn's domain."""

    w: object
    fw: object
    dist: object
    sep: object


class Row(NamedTuple):
    """A delta and its probes, as (probe index, in_ball) pairs with
    in_ball = fw is not None and 0 < sep < delta."""

    delta: object
    probes: tuple[tuple[int, bool], ...]


class Use(NamedTuple):
    """A schedule entry: its epsilon, the index of its row and one verdict
    per probe of that row."""

    eps: object
    row: int
    verdicts: tuple[bool, ...]


@dataclass(frozen=True)
class RefereeReport:
    """The checks of one certificate in the shape the referee does them:
    each distinct probe once, each distinct delta once as a row that
    decides which probes lie in its punctured ball, and one use per
    schedule entry, in schedule order.  A verifier verdict is
    in_ball and dist < eps, a falsifier verdict in_ball and dist >= eps.
    `records` spells the report out as one CheckRecord per check."""

    cert: VerifierCert | FalsifierCert
    probes: tuple[Probe, ...]
    rows: tuple[Row, ...]
    uses: tuple[Use, ...]

    @property
    def checks(self) -> int:
        return sum(len(u.verdicts) for u in self.uses)

    @property
    def passed(self) -> bool:
        return self.checks > 0 and all(all(u.verdicts) for u in self.uses)

    @property
    def records(self) -> tuple[CheckRecord, ...]:
        out = []
        kind = self.cert.KIND
        for eps, ri, verdicts in self.uses:
            delta, pairs = self.rows[ri]
            for (i, _), ok in zip(pairs, verdicts):
                out.append(CheckRecord(kind, eps, delta, *self.probes[i], ok))
        return tuple(out)


@dataclass(frozen=True)
class Check:
    """Referee one certificate: a verifier on an epsilon schedule with a
    probe budget, or a falsifier on a delta schedule."""

    cert: VerifierCert | FalsifierCert
    schedule: list
    budget: int = DEFAULT_PROBE_BUDGET


def derivative_claim(fn: FieldFn, a, d) -> LimitClaim:
    """The claim f'(a) = d, phrased as lim_{h->0} (f(a+h)-f(a))/h = d."""
    return LimitClaim(DiffQuotient(fn, a), field_zero(fn.field), d)


def probe_levels(field: Field, delta, budget: int) -> range:
    """The levels of delta's probes: Q dyadic depths n0..n0+budget, with
    n0 the minimal depth whose offsets fit in the delta-ball; Q(x)
    valuations v(delta)+1..v(delta)+max(1, budget).  budget extends the
    range; even budget 0 gives one level."""
    if field is Field.Q:
        n0 = min_dyadic_depth(delta)
        return range(n0, n0 + budget + 1)
    v = valuation(delta)
    return range(v + 1, v + max(1, budget) + 1)


def level_probes(field: Field, point, level: int) -> list:
    """The probes of one level, on both sides of point.

    Q: offsets +-r * 2**-level with r in {5/7, 3/4, 1, 7/5}; every offset
    has exactly known band.  QX: offsets +-r * x**level with unit r in
    {1/2, 1, 2}; higher valuation makes containment automatic.  No two
    levels share a probe."""
    if field is Field.Q:
        step = pow2(-level)
        offsets = [r * step for r in _Q_PATTERNS]
    else:
        step = x_pow(level)
        offsets = [rf_const(r) * step for r in _QX_PATTERNS]
    return [point + s for o in offsets for s in (o, -o)]


def check_verifier(
    cert: VerifierCert,
    eps_schedule,
    probe_budget: int = DEFAULT_PROBE_BUDGET,
) -> RefereeReport:
    """Challenge the delta-rule on every epsilon in the schedule: every
    probe in the punctured delta(eps)-ball must satisfy |f(w) - L| < eps.

    Each level's probes are built and evaluated once per report, kept by
    their int level: deltas with the same dyadic depth or valuation share
    levels.  Each distinct delta becomes one row, and its in-ball test is
    decided once per probe of the row: a ConstRule, or a LinearCapRule
    once its cap binds, gives the same delta for many epsilons.  Each
    epsilon then only compares dist < eps on its row.  A delta that is not
    positive is refused before its probes are built."""
    claim = cert.claim
    fld = claim.field
    if not eps_schedule:
        raise DomainError("epsilon schedule is empty")
    probes: list[Probe] = []
    levels: dict[int, range] = {}  # level -> indices of its probes
    rows: list[Row] = []
    row_of: dict = {}  # delta -> index of its row
    uses = []
    for eps in eps_schedule:
        if not eps > 0:
            raise DomainError("epsilon schedule must be strictly positive")
        delta = cert.rule.delta_for(eps)
        ri = row_of.get(delta)
        if ri is None:
            if not delta > 0:
                raise DomainError(f"verifier delta must be strictly positive, got {render_elem(delta)}")
            ri = row_of[delta] = len(rows)
            indices = []
            for level in probe_levels(fld, delta, probe_budget):
                idx = levels.get(level)
                if idx is None:
                    start = len(probes)
                    probes.extend(_probe(claim, w) for w in level_probes(fld, claim.point, level))
                    idx = levels[level] = range(start, len(probes))
                indices.extend(idx)
            rows.append(_row(probes, indices, delta))
        below = _below(eps)
        verdicts = tuple([ib and below(probes[i].dist) for i, ib in rows[ri].probes])
        uses.append(Use(eps, ri, verdicts))
    return RefereeReport(cert, tuple(probes), tuple(rows), tuple(uses))


def check_falsifier(cert: FalsifierCert, delta_schedule) -> RefereeReport:
    """Challenge the witness rule on every delta in the schedule: the
    produced point must sit inside the punctured ball and miss the
    candidate by at least epsilon.  Each delta is a row of one probe, its
    witness."""
    claim = cert.claim
    eps = cert.epsilon
    if not eps > 0:
        raise DomainError("falsifier epsilon must be strictly positive")
    rule = cert.witness
    if isinstance(rule, TwoSided):
        rule = rule.pick(claim.candidate)
    if not delta_schedule:
        raise DomainError("delta schedule is empty")
    below = _below(eps)
    probes: list[Probe] = []
    rows: list[Row] = []
    uses = []
    for delta in delta_schedule:
        if not delta > 0:
            raise DomainError("delta schedule must be strictly positive")
        i = len(probes)
        probes.append(_probe(claim, claim.point + rule.witness_for(delta)))
        row = _row(probes, (i,), delta)
        uses.append(Use(eps, len(rows), (row.probes[0][1] and not below(probes[i].dist),)))
        rows.append(row)
    return RefereeReport(cert, tuple(probes), tuple(rows), tuple(uses))


def _below(bound):
    """The predicate x < bound for x in bound's field.  A Fraction bound
    n/d is read once, and x < n/d is x.numerator * d < n * x.denominator
    (both denominators are positive), so no Fraction comparison runs; a
    RatFunc bound keeps its own ordering."""
    if isinstance(bound, Fraction):
        n, d = bound.numerator, bound.denominator
        return lambda x: x.numerator * d < n * x.denominator
    return bound.__gt__


def _row(probes: list[Probe], indices, delta) -> Row:
    """The row of delta over the probes at indices; sep = |w - point| is
    never negative, so 0 < sep is bool(sep)."""
    below = _below(delta)
    in_ball = []
    for i in indices:
        p = probes[i]
        in_ball.append((i, p.fw is not None and bool(p.sep) and below(p.sep)))
    return Row(delta, tuple(in_ball))


def _probe(claim: LimitClaim, w) -> Probe:
    """The probe at w; fn(w) and the distance are None when w is off fn's
    domain, which fails every check.  A zero point or candidate is falsy
    in both fields, and subtracting it would only copy w or fn(w)."""
    point, candidate = claim.point, claim.candidate
    sep = abs(w - point) if point else abs(w)
    try:
        fw = evaluate(claim.fn, w)
    except DomainError:
        return Probe(w, None, None, sep)
    return Probe(w, fw, abs(fw - candidate) if candidate else abs(fw), sep)


def _refuse_unprintable(depth: int) -> None:
    """Refuse a schedule of 2**-k for k = 0..depth before building it when
    2**depth has more digits than the interpreter's limit for int-to-text
    conversion (0: no limit), so it could never be printed."""
    limit = digit_limit()
    if limit and depth > (10**limit).bit_length() - 1:
        raise ResourceError(
            f"schedule depth {depth} too deep to print: 2^{depth} passes the {limit}-digit limit"
        )


def default_eps_schedule(field: Field, depth: int = DEFAULT_EPS_DEPTH) -> list:
    """{2**-k : k = 0..depth} as elements of the field."""
    _refuse_unprintable(depth)
    return [from_rat(field, pow2(-k)) for k in range(depth + 1)]


def default_delta_schedule(field: Field, depth: int) -> list:
    """Q: {2**-k : k = 0..depth}; QX: {x**m * 2**-k : m = 0..depth,
    k in {0, 64}}, stressing Archimedean depth and infinitesimal order."""
    if field is Field.Q:
        _refuse_unprintable(depth)
        return [pow2(-k) for k in range(depth + 1)]
    return [
        x_pow(m) * rf_const(pow2(-k))
        for m in range(depth + 1)
        for k in (0, 64)
    ]
