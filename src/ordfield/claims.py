"""Epsilon-delta limit claims, their certificates, and the exact referee.

The epistemic asymmetry is deliberate and explicit in every report:

  * a VerifierCert (a closed-form delta-rule) is checked on probe
    schedules; passing is tagged "evidence" because bounded probing cannot
    prove a universally quantified statement;
  * a FalsifierCert (a fixed epsilon plus a closed-form witness rule) is
    checked per challenge delta; every passing record is a machine-checked
    proof that this delta fails for that epsilon, so the report is tagged
    "refutation-instances".

All checks are exact; each record carries the values needed to recompute
its verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .certs import DeltaRule, TwoSided, WitnessRule, min_dyadic_depth
from .errors import DomainError
from .fields import Field, check_elem, field_zero, from_rat
from .functions import DiffQuotient, FieldFn, evaluate, fn_field
from .laurent import rf_const, valuation, x_pow
from .rationals import pow2

DEFAULT_EPS_DEPTH = 128
DEFAULT_DELTA_DEPTH_Q = 512
DEFAULT_DELTA_DEPTH_QX = 64
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
        return fn_field(self.fn)


@dataclass(frozen=True)
class VerifierCert:
    claim: LimitClaim
    rule: DeltaRule
    note: str = ""


@dataclass(frozen=True)
class FalsifierCert:
    claim: LimitClaim
    epsilon: object
    witness: WitnessRule


@dataclass(frozen=True)
class CheckRecord:
    """One exact referee check; the verdict is recomputable from the claim
    plus these values alone."""

    kind: str  # "verifier" | "falsifier"
    eps: object
    delta: object
    w: object  # probe or witness point
    fw: object  # fn(w), None when evaluation failed
    dist: object  # |fn(w) - candidate|
    sep: object  # |w - point|
    ok: bool


@dataclass(frozen=True)
class RefereeReport:
    cert: VerifierCert | FalsifierCert
    tag: str  # "evidence" | "refutation-instances"
    records: tuple[CheckRecord, ...] = dc_field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return bool(self.records) and all(r.ok for r in self.records)


def derivative_claim(fn: FieldFn, a, d) -> LimitClaim:
    """The claim f'(a) = d, phrased as lim_{h->0} (f(a+h)-f(a))/h = d."""
    return LimitClaim(DiffQuotient(fn, a), field_zero(fn_field(fn)), d)


def probe_gen(field: Field, point, delta, budget: int) -> list:
    """Deterministic probes inside the punctured delta-ball around point.

    Q: offsets +-r * 2**-n with r in {5/7, 3/4, 1, 7/5} and n walking down
    from the minimal depth that fits; every offset has exactly known band.
    QX: offsets +-r * x**(v(delta)+m) with unit r in {1/2, 1, 2}; higher
    valuation makes containment automatic.  budget extends the depth range;
    even budget 0 yields probes on both sides.
    """
    if field is Field.Q:
        n0 = min_dyadic_depth(delta)
        return [
            point + sign * r * pow2(-n)
            for n in range(n0, n0 + budget + 1)
            for r in _Q_PATTERNS
            for sign in (1, -1)
        ]
    v = valuation(delta)
    return [
        point + sign * rf_const(r) * x_pow(v + m)
        for m in range(1, max(1, budget) + 1)
        for r in _QX_PATTERNS
        for sign in (1, -1)
    ]


def check_verifier(
    cert: VerifierCert,
    eps_schedule,
    probe_budget: int = DEFAULT_PROBE_BUDGET,
) -> RefereeReport:
    """Challenge the delta-rule on every epsilon in the schedule: every
    probe in the punctured delta(eps)-ball must satisfy |f(w) - L| < eps.

    Each distinct delta's probes are generated, and each distinct probe
    evaluated, once per report: a ConstRule, or a LinearCapRule once its
    cap binds, gives the same delta for many epsilons, and deltas with
    the same dyadic depth share their probes."""
    claim = cert.claim
    fld = claim.field
    zero = field_zero(fld)
    if not eps_schedule:
        raise DomainError("epsilon schedule is empty")
    rows: dict = {}  # delta -> [(w, fw, dist, sep)] of its probes
    probed: dict = {}  # w -> (w, fw, dist, sep)
    records = []
    for eps in eps_schedule:
        if not eps > zero:
            raise DomainError("epsilon schedule must be strictly positive")
        delta = cert.rule.delta_for(eps)
        row = rows.get(delta)
        if row is None:
            row = []
            for w in probe_gen(fld, claim.point, delta, probe_budget):
                p = probed.get(w)
                if p is None:
                    p = probed[w] = _probe(claim, w)
                row.append(p)
            rows[delta] = row
        for w, fw, dist, sep in row:
            ok = fw is not None and zero < sep < delta and dist < eps
            records.append(CheckRecord("verifier", eps, delta, w, fw, dist, sep, ok))
    return RefereeReport(cert, "evidence", tuple(records))


def check_falsifier(cert: FalsifierCert, delta_schedule) -> RefereeReport:
    """Challenge the witness rule on every delta in the schedule: the
    produced point must sit inside the punctured ball and miss the
    candidate by at least epsilon."""
    claim = cert.claim
    fld = claim.field
    zero = field_zero(fld)
    eps = cert.epsilon
    if not eps > zero:
        raise DomainError("falsifier epsilon must be strictly positive")
    rule = cert.witness
    if isinstance(rule, TwoSided):
        rule = rule.pick(claim.candidate)
    if not delta_schedule:
        raise DomainError("delta schedule is empty")
    records = []
    for delta in delta_schedule:
        if not delta > zero:
            raise DomainError("delta schedule must be strictly positive")
        w, fw, dist, sep = _probe(claim, claim.point + rule.witness_for(delta))
        ok = fw is not None and zero < sep < delta and dist >= eps
        records.append(CheckRecord("falsifier", eps, delta, w, fw, dist, sep, ok))
    return RefereeReport(cert, "refutation-instances", tuple(records))


def _probe(claim: LimitClaim, w) -> tuple:
    """(w, fn(w), |fn(w) - candidate|, |w - point|); fn(w) and the
    distance are None when w is off fn's domain, which fails every check."""
    sep = abs(w - claim.point)
    try:
        fw = evaluate(claim.fn, w)
    except DomainError:
        return w, None, None, sep
    return w, fw, abs(fw - claim.candidate), sep


def default_eps_schedule(field: Field, depth: int = DEFAULT_EPS_DEPTH) -> list:
    """{2**-k : k = 0..depth} as elements of the field."""
    return [from_rat(field, pow2(-k)) for k in range(depth + 1)]


def default_delta_schedule(field: Field, depth: int | None = None) -> list:
    """Q: {2**-k : k = 0..depth}; QX: {x**m * 2**-k : m = 0..depth,
    k in {0, 64}}, stressing Archimedean depth and infinitesimal order."""
    if field is Field.Q:
        if depth is None:
            depth = DEFAULT_DELTA_DEPTH_Q
        return [pow2(-k) for k in range(depth + 1)]
    if depth is None:
        depth = DEFAULT_DELTA_DEPTH_QX
    return [
        x_pow(m) * rf_const(pow2(-k))
        for m in range(depth + 1)
        for k in (0, 64)
    ]
