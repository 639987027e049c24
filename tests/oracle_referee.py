"""Oracle for the exact referee: one evaluation per (epsilon, probe).

This is the loop `claims.check_verifier` / `check_falsifier` ran before
they built each level's probes and each row once per report.  Every
record is computed from scratch: the probes of every epsilon are
generated again, every probe is evaluated again and every verdict is
decided in full, so a fault in the library's sharing of levels, rows,
probes or verdicts shows as a record that differs from this one.  Both
checks return the plain records, in schedule order.  `probe_gen` probes
each positive offset of `claims.level_probes` on both sides of the point,
adding the offset and then its negation, where `claims._level` mirrors it.

`q_level_probes` and `q_step_witness` keep the Fraction products that
built the positive Q probe offsets and step-probe witnesses before
`rationals.scaled` built them from ints.
"""

from __future__ import annotations

from fractions import Fraction

from ordfield.certs import TwoSided, min_dyadic_depth
from ordfield import claims
from ordfield.claims import (
    DEFAULT_PROBE_BUDGET,
    CheckRecord,
    FalsifierCert,
    LimitClaim,
    VerifierCert,
)
from ordfield.errors import DomainError
from ordfield.fields import Field, field_zero
from ordfield.functions import evaluate
from ordfield.rationals import pow2


def probe_gen(field: Field, point, delta, budget: int) -> list:
    """Deterministic probes inside the punctured delta-ball around point:
    point plus and minus each offset of every level of delta, in level
    order, each probe added up here from scratch.  The levels are looked up
    in `claims` when called, so a test that patches `claims.level_probes`
    patches these probes too."""
    return [
        point + signed
        for level in claims.probe_levels(field, delta, budget)
        for offset in claims.level_probes(field, level)
        for signed in (offset, -offset)
    ]


def q_level_probes(level: int) -> list:
    """The Q offsets of one level: r * 2**-level for each pattern r, as a
    product of Fractions."""
    step = pow2(-level)
    return [r * step for r in (Fraction(5, 7), Fraction(3, 4), Fraction(1), Fraction(7, 5))]


def q_step_witness(r: Fraction, delta: Fraction) -> Fraction:
    """A Q step probe's witness r * 2**-n, n = min_dyadic_depth(delta), as
    a product of Fractions."""
    return r * pow2(-min_dyadic_depth(delta))


def check_verifier(
    cert: VerifierCert, eps_schedule, probe_budget: int = DEFAULT_PROBE_BUDGET
) -> tuple[CheckRecord, ...]:
    claim = cert.claim
    fld = claim.field
    if not eps_schedule:
        raise DomainError("epsilon schedule is empty")
    records = []
    for eps in eps_schedule:
        if not eps > field_zero(fld):
            raise DomainError("epsilon schedule must be strictly positive")
        delta = cert.rule.delta_for(eps)
        for w in probe_gen(fld, claim.point, delta, probe_budget):
            records.append(check_one("verifier", claim, eps, delta, w))
    return tuple(records)


def check_falsifier(cert: FalsifierCert, delta_schedule) -> tuple[CheckRecord, ...]:
    claim = cert.claim
    fld = claim.field
    eps = cert.epsilon
    if not eps > field_zero(fld):
        raise DomainError("falsifier epsilon must be strictly positive")
    rule = cert.witness
    if isinstance(rule, TwoSided):
        rule = rule.pick(claim.candidate)
    if not delta_schedule:
        raise DomainError("delta schedule is empty")
    records = []
    for delta in delta_schedule:
        if not delta > field_zero(fld):
            raise DomainError("delta schedule must be strictly positive")
        w = claim.point + rule.witness_for(delta)
        records.append(check_one("falsifier", claim, eps, delta, w))
    return tuple(records)


def check_one(kind: str, claim: LimitClaim, eps, delta, w) -> CheckRecord:
    zero = field_zero(claim.field)
    sep = abs(w - claim.point)
    contained = zero < sep and sep < delta
    try:
        fw = evaluate(claim.fn, w)
    except DomainError:
        return CheckRecord(kind, eps, delta, w, None, None, sep, False)
    dist = abs(fw - claim.candidate)
    if kind == "verifier":
        ok = contained and dist < eps
    else:
        ok = contained and dist >= eps
    return CheckRecord(kind, eps, delta, w, fw, dist, sep, ok)
