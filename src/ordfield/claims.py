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

from fractions import Fraction
from typing import NamedTuple

from .certs import TwoSided, min_dyadic_depth
from .errors import DomainError, ResourceError, digit_limit
from .fields import Field, Value, check_elem, field_zero, from_rat, render_elem, sign_of
from .functions import DiffQuotient, FieldFn, evaluate, parse_name, render_name
from .laurent import _rf_cmp, rf_const, rf_sign, valuation
from .literals import parse_elem
from .rationals import pow2

DEFAULT_EPS_DEPTH = 128
DEFAULT_DELTA_DEPTH = {Field.Q: 512, Field.QX: 64}
DEFAULT_PROBE_BUDGET = 2

_Q_PATTERNS = (Fraction(5, 7), Fraction(3, 4), Fraction(1), Fraction(7, 5))
_QX_PATTERNS = (Fraction(1, 2), Fraction(1), Fraction(2))


class LimitClaim(Value):
    """The statement lim_{t -> point} fn(t) = candidate."""

    FIELDS = ("fn", "point", "candidate")

    def __post_init__(self):
        f = self.field
        check_elem(f, self.point)
        check_elem(f, self.candidate)

    @property
    def field(self) -> Field:
        return self.fn.field


class VerifierCert(Value):
    FIELDS = ("claim", "rule", "note")
    DEFAULTS = {"note": ""}

    KIND = "verifier"
    TAG = "evidence"
    SCHEDULE = "eps"

    def record_pairs(self) -> list:
        pairs = [("rule", render_name(self.rule))]
        if self.note:
            pairs.append(("note", self.note))
        return pairs

    @classmethod
    def from_record(cls, claim: LimitClaim, kv: dict, need) -> VerifierCert:
        return cls(claim, parse_name(claim.field, need("rule"), "delta rule"), kv.get("note", ""))


class FalsifierCert(Value):
    FIELDS = ("claim", "epsilon", "witness")

    KIND = "falsifier"
    TAG = "refutation-instances"
    SCHEDULE = "delta"

    def record_pairs(self) -> list:
        return [("eps", self.epsilon), ("witness", render_name(self.witness))]

    @classmethod
    def from_record(cls, claim: LimitClaim, kv: dict, need) -> FalsifierCert:
        fld = claim.field
        eps = parse_elem(fld, need("eps"))
        return cls(claim, eps, parse_name(fld, need("witness"), "witness rule"))


class CheckRecord(NamedTuple):
    """One exact referee check; the verdict is recomputable from the claim
    plus these values alone."""

    kind: str  # the certificate's KIND
    eps: object
    delta: object
    w: object  # probe or witness point
    fw: object  # fn(w), None when evaluation failed
    dist: object  # |fn(w) - candidate|
    sep: object  # the distance from the point to w
    ok: bool


class Probe(NamedTuple):
    """A probe or witness point w with fn(w), |fn(w) - candidate| and its
    distance sep from the point; fw and dist are None off fn's domain."""

    w: object
    fw: object
    dist: object
    sep: object


class Row(NamedTuple):
    """A delta and the indices of its probes; whether each probe is
    in_ball (fw is not None and 0 < sep < delta) lives in the verdicts."""

    delta: object
    probes: tuple[int, ...]


class Use(NamedTuple):
    """A schedule entry: its epsilon, the index of its row and one verdict
    per probe of that row."""

    eps: object
    row: int
    verdicts: tuple[bool, ...]


class RefereeReport(Value):
    """The checks of one certificate in the shape the referee does them:
    each distinct probe once, each distinct delta once as a row of probe
    indices, and one use per schedule entry, in schedule order.  A
    verifier verdict is in_ball and dist < eps, a falsifier verdict
    in_ball and dist >= eps (in_ball: see Row).  `records` spells the
    report out as one CheckRecord per check."""

    FIELDS = ("cert", "probes", "rows", "uses")

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
            delta, indices = self.rows[ri]
            for i, ok in zip(indices, verdicts):
                out.append(CheckRecord(kind, eps, delta, *self.probes[i], ok))
        return tuple(out)


class Check(Value):
    """Referee one certificate: a verifier on an epsilon schedule with a
    probe budget, or a falsifier on a delta schedule."""

    FIELDS = ("cert", "schedule", "budget")
    DEFAULTS = {"budget": DEFAULT_PROBE_BUDGET}


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


def level_probes(field: Field, level: int) -> list:
    """The signed offsets of one level's probes from the point, on both
    sides of it; they depend only on the field and the level.

    Q: offsets +-r * 2**-level with r in {5/7, 3/4, 1, 7/5}; every offset
    has exactly known band.  QX: offsets +-r * x**level with unit r in
    {1/2, 1, 2}; higher valuation makes containment automatic.  No two
    levels share an offset."""
    if field is Field.Q:
        step = pow2(-level)
        offsets = [r * step for r in _Q_PATTERNS]
    else:
        offsets = [rf_const(r, level) for r in _QX_PATTERNS]
    return [s for o in offsets for s in (o, -o)]


def check_verifier(
    cert: VerifierCert,
    eps_schedule,
    probe_budget: int = DEFAULT_PROBE_BUDGET,
    table: dict | None = None,
) -> RefereeReport:
    """Challenge the delta-rule on every epsilon in the schedule: every
    probe in the punctured delta(eps)-ball must satisfy |f(w) - L| < eps.

    table is the run's probe table: it maps (field, level) to that level's
    offsets from the point, each with sep = |offset|, so certificates of
    one run that share a field build each level once.  A call without a
    table gets a fresh one of its own.  Each level's probes are evaluated
    once per report, kept by their int level: deltas with the same dyadic
    depth or valuation share levels.  Each distinct delta becomes one row,
    whose in-ball tests are decided in one batch: a ConstRule, or a
    LinearCapRule once its cap binds, gives the same delta for many
    epsilons.  The outcomes are kept only in the row's dist keys, None
    outside the ball, which each epsilon reads in one batch.  A delta that
    is not positive is refused before its probes are built."""
    claim = cert.claim
    fld = claim.field
    if not eps_schedule:
        raise DomainError("epsilon schedule is empty")
    if table is None:
        table = {}
    key, below = _order(claim.point)
    ends = claim.fn, claim.point or None, claim.candidate or None  # see _probe
    probes: list[Probe] = []
    ball_keys, dist_keys = [], []  # per probe: its in-ball key, its dist key
    levels: dict[int, range] = {}  # level -> indices of its probes
    rows: list[Row] = []
    row_dists: list[list] = []  # per row: the dist key of each probe in its ball, else None
    row_of: dict = {}  # key(delta) -> index of its row
    uses = []
    for eps in eps_schedule:
        if sign_of(eps) <= 0:
            raise DomainError("epsilon schedule must be strictly positive")
        delta = cert.rule.delta_for(eps)
        delta_key = key(delta)
        ri = row_of.get(delta_key)
        if ri is None:
            if sign_of(delta) <= 0:
                raise DomainError(f"verifier delta must be strictly positive, got {render_elem(delta)}")
            ri = row_of[delta_key] = len(rows)
            indices = []
            for level in probe_levels(fld, delta, probe_budget):
                idx = levels.get(level)
                if idx is None:
                    start = len(probes)
                    for offset, sep, sep_key in _level(table, key, fld, level):
                        probe, ball_key, dist_key = _probe(ends, key, offset, sep, sep_key)
                        probes.append(probe)
                        ball_keys.append(ball_key)
                        dist_keys.append(dist_key)
                    idx = levels[level] = range(start, len(probes))
                indices.extend(idx)
            in_ball = below([ball_keys[i] for i in indices], delta)
            rows.append(tuple.__new__(Row, (delta, tuple(indices))))
            row_dists.append([dist_keys[i] if ib else None for i, ib in zip(indices, in_ball)])
        uses.append(tuple.__new__(Use, (eps, ri, tuple(below(row_dists[ri], eps)))))
    return RefereeReport(cert, tuple(probes), tuple(rows), tuple(uses))


def check_falsifier(cert: FalsifierCert, delta_schedule) -> RefereeReport:
    """Challenge the witness rule on every delta in the schedule: the
    witness must lie in the punctured ball and miss the candidate by at
    least epsilon.  Each delta is a row of its witness, which fails when
    its dist key is None: outside the ball or off fn's domain."""
    claim = cert.claim
    eps = cert.epsilon
    if sign_of(eps) <= 0:
        raise DomainError("falsifier epsilon must be strictly positive")
    rule = cert.witness
    if isinstance(rule, TwoSided):
        rule = rule.pick(claim.candidate)
    if not delta_schedule:
        raise DomainError("delta schedule is empty")
    key, below = _order(eps)
    ends = claim.fn, claim.point or None, claim.candidate or None  # see _probe
    probes: list[Probe] = []
    rows: list[Row] = []
    dists = []  # per row: the dist key of its witness when in the ball, else None
    for delta in delta_schedule:
        if sign_of(delta) <= 0:
            raise DomainError("delta schedule must be strictly positive")
        offset = rule.witness_for(delta)
        probe, ball_key, dist_key = _probe(ends, key, offset, *_sep(key, offset))
        rows.append(tuple.__new__(Row, (delta, (len(probes),))))
        dists.append(dist_key if below([ball_key], delta)[0] else None)
        probes.append(probe)
    uses = [
        tuple.__new__(Use, (eps, ri, (dist is not None and not near,)))
        for ri, (dist, near) in enumerate(zip(dists, below(dists, eps)))
    ]
    return RefereeReport(cert, tuple(probes), tuple(rows), tuple(uses))


def _order(x):
    """The order of x's field as (key, below), and the one place that
    tells a Q value from a Q(x) one.  key(v) is what below reads of v: a
    Fraction's int numerator and denominator, read once, or the RatFunc
    itself.  below(keys, bound) decides k < bound for each key of a batch
    in one pass, and is False for a None key: a probe off fn's domain, or
    at the point itself.  For a Fraction bound n/d, k < n/d is
    k[0] * d < n * k[1] (both denominators are positive), so no Fraction
    comparison runs; a RatFunc key is read by sign and valuation first
    (_below_elems)."""
    if isinstance(x, Fraction):
        return _ints, _below_ints
    return _itself, _below_elems


def _ints(x: Fraction) -> tuple[int, int]:
    return x.numerator, x.denominator


def _itself(x):
    return x


def _below_ints(keys, bound: Fraction) -> list[bool]:
    n, d = bound.numerator, bound.denominator
    return [k is not None and k[0] * d < n * k[1] for k in keys]


def _below_elems(keys, bound) -> list[bool]:
    """Below a positive bound, a key that is zero or negative is below it
    and a positive one is below it when its valuation is higher; only a
    positive key of the bound's valuation takes the exact comparison."""
    if rf_sign(bound) <= 0:
        return [k is not None and k < bound for k in keys]
    v = bound.v
    return [
        k is not None
        and (not k.num or k.num[0] < 0 or k.v > v or (k.v == v and _rf_cmp(k, bound) < 0))
        for k in keys
    ]


def _sep(key, offset) -> tuple:
    """sep = |offset| and the key the in-ball test reads of it: None when
    sep is 0, the centre of the punctured ball.  A nonnegative offset is
    its own sep; only a negative one is negated."""
    s = sign_of(offset)
    sep = -offset if s < 0 else offset
    return sep, (key(sep) if s else None)


def _level(table: dict, key, field: Field, level: int) -> tuple:
    """The offsets of one level as (offset, sep, key of sep) triples, read
    from the run's table or built into it on first use.  level_probes is
    looked up in this module each time a level is built."""
    entry = table.get((field, level))
    if entry is None:
        entry = table[field, level] = tuple(
            (offset, *_sep(key, offset)) for offset in level_probes(field, level)
        )
    return entry


def _probe(ends: tuple, key, offset, sep, sep_key) -> tuple[Probe, object, object]:
    """The probe at w = point + offset with its in-ball key and dist key,
    for the claim's ends = (fn, point, candidate).  fn(w), the distance and
    both keys are None when w is off fn's domain, which fails every check.
    A zero point or candidate is None in ends, tested once per report, and
    is not added or subtracted, which would only copy the other operand.
    An fn(w) that is the candidate object itself, as a locally constant fn
    returns it, is at the zero of fn's field without a subtraction.  A
    nonnegative fn(w) - candidate is its own distance; only a negative one
    is negated."""
    fn, point, candidate = ends
    w = offset if point is None else point + offset
    try:
        fw = evaluate(fn, w)
    except DomainError:
        return tuple.__new__(Probe, (w, None, None, sep)), None, None
    if fw is candidate:
        dist = field_zero(fn.field)
    else:
        d = fw if candidate is None else fw - candidate
        dist = -d if sign_of(d) < 0 else d
    return tuple.__new__(Probe, (w, fw, dist, sep)), sep_key, key(dist)


def _refuse_depth(depth: int, kind: str) -> None:
    """Refuse a schedule depth before its schedule is built: a negative
    one, whose schedule is empty, or one past the deepest k whose 2**k
    prints within the interpreter's digit limit for int-to-text conversion
    (0: no limit), which a Q schedule could never print; a Q(x) delta
    schedule, whose size grows with the depth, is held to the same bound."""
    if depth < 0:
        raise DomainError(f"{kind} schedule is empty")
    limit = digit_limit()
    deepest = (10**limit).bit_length() - 1
    if limit and depth > deepest:
        raise ResourceError(
            f"schedule depth {depth} too deep: the {limit}-digit limit allows at most {deepest}"
        )


def default_eps_schedule(field: Field, depth: int = DEFAULT_EPS_DEPTH) -> list:
    """{2**-k : k = 0..depth} as elements of the field."""
    _refuse_depth(depth, "epsilon")
    return [from_rat(field, pow2(-k)) for k in range(depth + 1)]


def default_delta_schedule(field: Field, depth: int) -> list:
    """Q: {2**-k : k = 0..depth}; QX: {x**m * 2**-k : m = 0..depth,
    k in {0, 64}}, stressing Archimedean depth and infinitesimal order."""
    _refuse_depth(depth, "delta")
    if field is Field.Q:
        return [pow2(-k) for k in range(depth + 1)]
    units = (pow2(0), pow2(-64))
    return [rf_const(u, m) for m in range(depth + 1) for u in units]
