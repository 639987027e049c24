from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordfield.certs import (
    ConstRule,
    LinearCapRule,
    QStepProbe,
    QXStepProbe,
    TwoSided,
    min_dyadic_depth,
)
from ordfield import claims, demos
from ordfield.claims import (
    DEFAULT_DELTA_DEPTH,
    Check,
    FalsifierCert,
    LimitClaim,
    VerifierCert,
    check_falsifier,
    check_verifier,
    default_delta_schedule,
    default_eps_schedule,
    derivative_claim,
    level_probes,
    probe_levels,
)
from ordfield.errors import DomainError
from ordfield.fields import Field
from ordfield.demos import demo_dlim, demo_lhopital, demo_mvt, demo_taylor
from ordfield.functions import (
    Constant,
    DiffQuotient,
    Identity,
    Power,
    Quotient,
    StepQ,
    StepQX,
    derivative_certificate,
    evaluate,
)
from ordfield.laurent import RF_ONE, RF_X, RF_ZERO, rf_const, valuation, x_pow
from ordfield.rationals import pow2
from ordfield.transcript import parse_claim_file

import oracle_dyadic
import oracle_referee
from conftest import rand_nonzero_rat, rand_ratfunc, run_demo
from oracle_referee import probe_gen


def test_derivative_claim_examples():
    c = derivative_claim(StepQ(), F(0), F(0))
    assert c.fn == DiffQuotient(StepQ(), F(0))
    assert c.point == 0 and c.candidate == 0
    c = derivative_claim(Identity(Field.Q), F(5), F(1))
    assert evaluate(c.fn, F(1, 3)) == 1
    c = derivative_claim(Power(Field.Q, 2), F(0), F(0))
    # the quotient (t^2 - 0)/t reduces to t exactly
    t = F(5, 7) * pow2(-4)
    assert evaluate(c.fn, t) == t


def test_min_dyadic_depth():
    assert min_dyadic_depth(F(1, 10)) == 5  # 2^-5 < 1/20
    assert min_dyadic_depth(F(1)) == 2
    assert min_dyadic_depth(F(8)) == -1
    for d in (F(1), F(3, 7), F(1, 1000), F(513)):
        n = min_dyadic_depth(d)
        assert pow2(-n) < d / 2 <= pow2(-n + 1)
    for d in (F(0), F(-1), F(-3, 7)):
        with pytest.raises(DomainError, match="dyadic depth needs delta > 0"):
            min_dyadic_depth(d)


def test_min_dyadic_depth_matches_the_walk_oracle(rng):
    # the shifted-int test against the Fraction walk it replaced: random
    # deltas of up to 400 bits, and 2**k times 1, 3/2 and 1 +- 2**-20,
    # where q * 2**m and p have equal bit lengths and differ in one bit
    deltas = [abs(rand_nonzero_rat(rng, bits=rng.randint(1, 400))) for _ in range(2000)]
    for k in range(-300, 301):
        deltas += [pow2(k) * r for r in (F(1), F(3, 2), 1 + pow2(-20), 1 - pow2(-20))]
    for d in deltas:
        n = min_dyadic_depth(d)
        assert n == oracle_dyadic.min_dyadic_depth(d), d
        assert pow2(-n) < d / 2 <= pow2(-n + 1)


def _rationals():
    """Rationals of up to 80 bits a side, and dyadics past 2**-300."""
    return st.builds(F, st.integers(-(2**80), 2**80), st.integers(1, 2**80)) | st.builds(
        lambda n, k: F(n, 1 << k), st.integers(-(2**40), 2**40), st.integers(300, 340)
    )


@st.composite
def _below_pairs(draw):
    """(x, bound) with x unrelated to bound, equal to it, -bound, or
    bound +- 2**-k, next to it."""
    bound = draw(_rationals())
    mode = draw(st.sampled_from(("any", "equal", "negated", "next")))
    if mode == "any":
        return draw(_rationals()), bound
    if mode == "equal":
        return F(bound.numerator, bound.denominator), bound
    if mode == "negated":
        return -bound, bound
    return bound + draw(st.sampled_from((1, -1))) * pow2(-draw(st.integers(0, 340))), bound


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_below_pairs())
@example((F(1, 4), F(1, 4)))  # sep == delta
@example((F(-1, 2), F(1, 2)))
@example((F(0), F(0)))
@example((F(1, 2**301), F(3, 2**302)))
def test_below_matches_fraction_order(pair):
    # the referee's batched int comparison against Fraction's own < and
    # >=: the in-ball and verifier tests read below, the falsifier its
    # negation; a None key (a probe off the domain) is never below
    x, bound = pair
    key, below = claims._order(bound)
    got = below([key(x), None, key(bound)], bound)
    assert got == [x < bound, False, False]
    assert (not got[0]) == (x >= bound)



def test_probe_gen_q():
    probes = probe_gen(Field.Q, F(0), F(1, 10), 2)
    assert F(5, 7) * pow2(-5) in probes
    assert len(probes) == 24
    for w in probes:
        assert 0 < abs(w) < F(1, 10)


def test_probe_gen_qx():
    delta = x_pow(3)
    probes = probe_gen(Field.QX, RF_ZERO, delta, 1)
    assert x_pow(4) in probes
    assert -x_pow(4) in probes
    assert x_pow(4) / 2 in probes
    for w in probes:
        assert RF_ZERO < abs(w) < delta


def test_probe_gen_budget_zero_nonempty():
    for field, delta in ((Field.Q, F(1, 3)), (Field.QX, x_pow(2))):
        probes = probe_gen(field, F(0) if field is Field.Q else RF_ZERO, delta, 0)
        assert any(w > 0 for w in probes) and any(w < 0 for w in probes)


def test_probe_containment_random(rng):
    for _ in range(100):
        delta = abs(rand_nonzero_rat(rng, bits=24))
        for w in probe_gen(Field.Q, F(0), delta, 1):
            assert 0 < abs(w) < delta
    for _ in range(60):
        f = rand_ratfunc(rng)
        delta = abs(f) if f else RF_ONE
        for w in probe_gen(Field.QX, RF_ZERO, delta, 1):
            assert RF_ZERO < abs(w) < delta


def test_verifier_step_q_envelope():
    cert = VerifierCert(
        LimitClaim(StepQ(), F(0), F(0)), LinearCapRule(F(1), F(1, 2)), "envelope"
    )
    rep = check_verifier(cert, default_eps_schedule(Field.Q, 32), 2)
    assert rep.passed and rep.cert.TAG == "evidence"
    # every record is consistent: probes inside ball, values below eps
    for r in rep.records:
        assert 0 < r.sep < r.delta
        assert r.dist < r.eps


def test_verifier_step_qx_envelope():
    cert = VerifierCert(
        LimitClaim(StepQX(), RF_ZERO, RF_ZERO), LinearCapRule(RF_ONE, RF_X), "envelope"
    )
    rep = check_verifier(cert, default_eps_schedule(Field.QX, 16), 2)
    assert rep.passed


def test_verifier_constancy_at_one():
    cert = VerifierCert(
        LimitClaim(StepQ(), F(1), F(1)), ConstRule(F(1, 4)), "constant ball at 1"
    )
    rep = check_verifier(cert, default_eps_schedule(Field.Q, 24), 1)
    assert rep.passed
    assert all(r.dist == 0 for r in rep.records)


def test_verifier_reports_failure_record():
    # a wrong candidate makes probes fail; the offending record is exact
    cert = VerifierCert(
        LimitClaim(StepQ(), F(0), F(1, 3)), LinearCapRule(F(1), F(1, 2)), "bogus"
    )
    rep = check_verifier(cert, [F(1, 64)], 0)
    assert not rep.passed
    bad = [r for r in rep.records if not r.ok]
    assert bad and all(r.dist >= r.eps for r in bad)


def test_falsifier_step_q():
    cert = FalsifierCert(
        derivative_claim(StepQ(), F(0), F(0)), F(1, 2), QStepProbe(F(5, 7))
    )
    rep = check_falsifier(cert, default_delta_schedule(Field.Q, 64))
    assert rep.passed and rep.cert.TAG == "refutation-instances"
    for r in rep.records:
        assert r.dist == F(7, 5)
        assert 0 < r.sep < r.delta


def test_falsifier_step_qx_infinitesimal_eps():
    cert = FalsifierCert(
        derivative_claim(StepQX(), RF_ZERO, RF_ZERO), RF_X, QXStepProbe(RF_ONE, 1)
    )
    rep = check_falsifier(cert, default_delta_schedule(Field.QX, 16))
    assert rep.passed
    for r in rep.records:
        assert r.fw == RF_ONE
        assert valuation(r.w) == valuation(r.delta) + 1


def test_falsifier_two_sided_selector():
    claim_for = lambda L: LimitClaim(DiffQuotient(StepQ(), F(0)), F(0), L)
    witness = TwoSided(QStepProbe(F(5, 7)), QStepProbe(F(-5, 7)), F(0))
    # candidate 1 > midpoint 0: negative-side probe, ratio -7/5, miss 12/5
    rep = check_falsifier(FalsifierCert(claim_for(F(1)), F(1, 2), witness), [F(1, 8)])
    assert rep.passed
    assert rep.records[0].w < 0
    assert rep.records[0].fw == F(-7, 5)
    assert rep.records[0].dist == F(12, 5)
    # candidate 7/5 is refuted from the negative side as well
    rep = check_falsifier(FalsifierCert(claim_for(F(7, 5)), F(1, 2), witness), [F(1, 8)])
    assert rep.passed and rep.records[0].fw == F(-7, 5)
    # candidate <= 0 uses the positive side
    rep = check_falsifier(FalsifierCert(claim_for(F(0)), F(1, 2), witness), [F(1, 8)])
    assert rep.passed and rep.records[0].w > 0


def test_falsifier_soundness_reevaluation(rng):
    cert = FalsifierCert(
        derivative_claim(StepQ(), F(0), F(0)), F(1, 2), QStepProbe(F(5, 7))
    )
    deltas = [abs(rand_nonzero_rat(rng, bits=20)) for _ in range(50)]
    rep = check_falsifier(cert, deltas)
    assert rep.passed
    for r, delta in zip(rep.records, deltas):
        # independent re-evaluation of the record
        assert r.delta == delta
        assert 0 < abs(r.w - F(0)) < delta
        assert abs(evaluate(cert.claim.fn, r.w) - cert.claim.candidate) >= cert.epsilon


def test_schedules():
    eps = default_eps_schedule(Field.Q)
    assert len(eps) == 129 and eps[0] == 1 and eps[-1] == pow2(-128)
    deltas = default_delta_schedule(Field.Q, DEFAULT_DELTA_DEPTH[Field.Q])
    assert len(deltas) == 513 and deltas[-1] == pow2(-512)
    dx = default_delta_schedule(Field.QX, DEFAULT_DELTA_DEPTH[Field.QX])
    assert len(dx) == 130
    assert x_pow(64) * rf_const(pow2(-64)) in dx
    epsx = default_eps_schedule(Field.QX, 8)
    assert all(isinstance(e, type(RF_ONE)) for e in epsx)


def test_schedule_positivity_enforced():
    cert = VerifierCert(LimitClaim(StepQ(), F(0), F(0)), ConstRule(F(1)), "")
    with pytest.raises(DomainError):
        check_verifier(cert, [F(0)], 0)
    fc = FalsifierCert(LimitClaim(StepQ(), F(0), F(0)), F(1, 2), QStepProbe(F(1)))
    with pytest.raises(DomainError):
        check_falsifier(fc, [F(-1)])


def test_referee_determinism():
    cert = FalsifierCert(
        derivative_claim(StepQ(), F(0), F(0)), F(1, 2), QStepProbe(F(5, 7))
    )
    sched = default_delta_schedule(Field.Q, 32)
    assert check_falsifier(cert, sched) == check_falsifier(cert, sched)


def test_identity_derivative_everywhere(rng):
    for _ in range(20):
        a = rand_nonzero_rat(rng, bits=16)
        cert = derivative_certificate(Identity(Field.Q), a)
        rep = check_verifier(
            VerifierCert(derivative_claim(Identity(Field.Q), a, cert.value), cert.rule, ""),
            default_eps_schedule(Field.Q, 16),
            1,
        )
        assert rep.passed
    for _ in range(10):
        a = rand_ratfunc(rng)
        cert = derivative_certificate(Identity(Field.QX), a)
        rep = check_verifier(
            VerifierCert(derivative_claim(Identity(Field.QX), a, cert.value), cert.rule, ""),
            default_eps_schedule(Field.QX, 8),
            1,
        )
        assert rep.passed


def test_verifier_falsifier_exclusivity():
    # the true claim verifies and its false sibling refutes; the wrong
    # pairing fails in both directions
    true_cert = VerifierCert(
        LimitClaim(StepQ(), F(0), F(0)), LinearCapRule(F(1), F(1, 2)), ""
    )
    false_cert = FalsifierCert(
        LimitClaim(StepQ(), F(0), F(0)), F(1, 2), QStepProbe(F(5, 7))
    )
    eps = default_eps_schedule(Field.Q, 24)
    deltas = default_delta_schedule(Field.Q, 24)
    assert check_verifier(true_cert, eps, 1).passed
    # refuting the true continuity claim cannot succeed: StepQ(w) -> 0
    assert not check_falsifier(false_cert, deltas).passed


def test_concurrent_referee_runs_identical():
    # claims, certificates and schedules are immutable; checks are pure
    from concurrent.futures import ThreadPoolExecutor

    cert = FalsifierCert(
        derivative_claim(StepQ(), F(0), F(0)), F(1, 2), QStepProbe(F(5, 7))
    )
    sched = default_delta_schedule(Field.Q, 64)
    with ThreadPoolExecutor(max_workers=4) as ex:
        reports = list(ex.map(lambda _: check_falsifier(cert, sched), range(8)))
    assert all(rep == reports[0] for rep in reports)


def _assert_matches_oracle(cert, schedule, budget=None):
    if isinstance(cert, FalsifierCert):
        got = check_falsifier(cert, schedule)
        want = oracle_referee.check_falsifier(cert, schedule)
        assert got.cert.TAG == "refutation-instances"
    else:
        got = check_verifier(cert, schedule, budget)
        want = oracle_referee.check_verifier(cert, schedule, budget)
        assert got.cert.TAG == "evidence"
    assert got.passed == (bool(want) and all(r.ok for r in want))
    assert got.checks == len(got.records) == len(want)
    for i, (a, b) in enumerate(zip(got.records, want)):
        for name in ("kind", "eps", "delta", "w", "fw", "dist", "sep", "ok"):
            assert getattr(a, name) == getattr(b, name), (i, name, a, b)


def _demo_checks(demo, *args, **kwargs):
    """The Check steps of a demo, without running them: the generator
    wrapped by the demo yields the header pairs, then its steps."""
    steps = demo.__wrapped__(*args, **kwargs)
    next(steps)
    return [s for s in steps if isinstance(s, Check)]


def test_referee_matches_per_probe_oracle_on_demo_checks():
    checks = (
        _demo_checks(demo_dlim, Field.Q, eps_depth=12, delta_depth=12)
        + _demo_checks(demo_dlim, Field.QX, eps_depth=6, delta_depth=6)
        + _demo_checks(demo_mvt, points=6, eps_depth=4)
        + _demo_checks(demo_lhopital, F(1), eps_depth=12, delta_depth=12)
        + _demo_checks(demo_taylor, 3, F(1), eps_depth=12, delta_depth=12)
    )
    kinds = {type(c.cert.rule) for c in checks if isinstance(c.cert, VerifierCert)}
    assert kinds == {ConstRule, LinearCapRule}
    assert any(isinstance(c.cert, FalsifierCert) for c in checks)
    for c in checks:
        _assert_matches_oracle(c.cert, c.schedule, c.budget)


def test_referee_matches_oracle_when_the_cap_binds_partway():
    # delta = min(cap, eps): the cap binds for the first epsilons only,
    # so rows repeat and then change
    q_rule = LinearCapRule(F(1, 8), F(1))
    q_eps = default_eps_schedule(Field.Q, 10)
    # an infinitesimal schedule tail falls under a real cap in Q(x)
    qx_rule = LinearCapRule(rf_const(F(1, 4)), RF_ONE)
    qx_eps = [RF_ONE, rf_const(F(1, 2)), rf_const(F(1, 8)), RF_X, x_pow(2), RF_X]
    for fn, zero, rule, eps, budget in (
        (StepQ(), F(0), q_rule, q_eps, 2),
        (StepQX(), RF_ZERO, qx_rule, qx_eps, 1),
    ):
        deltas = [rule.delta_for(e) for e in eps]
        assert deltas[0] == deltas[1] == rule.cap and deltas[-1] != rule.cap
        _assert_matches_oracle(VerifierCert(LimitClaim(fn, zero, zero), rule, ""), eps, budget)


def test_referee_matches_oracle_off_the_domain():
    # every probe of quotient(identity,constant:0) raises DomainError, so
    # every record is a fail with fw and dist undefined: in both fields the
    # batched comparison reads the None key of such a probe as not below
    # any bound, so it is in no ball
    for field, zero, eps, delta, witness in (
        (Field.Q, F(0), F(1, 2), F(1, 2), QStepProbe(F(5, 7))),
        (Field.QX, RF_ZERO, RF_X, RF_ONE, QXStepProbe(RF_ONE, 1)),
    ):
        _, below = claims._order(eps)
        assert below([None], eps) == below([None], delta) == [False]
        claim = LimitClaim(Quotient(Identity(field), Constant(field, zero)), zero, zero)
        verifier = VerifierCert(claim, ConstRule(delta), "")
        falsifier = FalsifierCert(claim, eps, witness)
        _assert_matches_oracle(verifier, default_eps_schedule(field, 4), 1)
        _assert_matches_oracle(falsifier, default_delta_schedule(field, 2))
        for rep in (check_verifier(verifier, [eps], 0), check_falsifier(falsifier, [delta])):
            assert rep.records and not rep.passed
            assert all(r.fw is None and r.dist is None and not r.ok for r in rep.records)
            assert not any(in_ball for row in rep.rows for _, in_ball in row.probes)


def test_referee_matches_oracle_when_the_distance_equals_epsilon():
    # |f(w) - L| = eps exactly: a verifier check fails, a falsifier passes
    claim = LimitClaim(Constant(Field.Q, F(1, 2)), F(0), F(0))
    verifier = VerifierCert(claim, ConstRule(F(1)), "")
    _assert_matches_oracle(verifier, [F(1), F(1, 2), F(1, 4)], 1)
    assert not check_verifier(verifier, [F(1, 2)], 0).passed
    falsifier = FalsifierCert(claim, F(1, 2), QStepProbe(F(5, 7)))
    _assert_matches_oracle(falsifier, [F(1), F(1, 8)])
    assert check_falsifier(falsifier, [F(1)]).passed


def test_probe_gen_is_its_levels_in_order():
    for field, point, delta, budget in (
        (Field.Q, F(1, 3), F(1, 10), 2),
        (Field.Q, F(0), F(7), 0),
        (Field.QX, RF_ONE, x_pow(3), 2),
        (Field.QX, RF_ZERO, rf_const(F(1, 2)), 0),
    ):
        levels = probe_levels(field, delta, budget)
        assert len(levels) == (budget + 1 if field is Field.Q else max(1, budget))
        by_level = [[point + o for o in level_probes(field, n)] for n in levels]
        assert probe_gen(field, point, delta, budget) == [w for ws in by_level for w in ws]
        seen = [w for ws in by_level for w in ws]
        assert len(set(seen)) == len(seen)


def _count_evaluations(monkeypatch) -> list:
    calls = []

    def counted(fn, w):
        calls.append(w)
        return evaluate(fn, w)

    monkeypatch.setattr(claims, "evaluate", counted)
    return calls


def test_each_distinct_probe_is_evaluated_once_per_report(monkeypatch):
    # LinearCapRule deltas share dyadic depths (Q) or valuations (Q(x)) and
    # a ConstRule repeats one delta: either way each probe of the report is
    # evaluated once, and only the probes of the checks are in the report
    calls = _count_evaluations(monkeypatch)
    for cert, eps, budget in (
        (VerifierCert(LimitClaim(StepQ(), F(0), F(0)), LinearCapRule(F(1), F(1, 2)), ""),
         default_eps_schedule(Field.Q, 24), 2),
        (VerifierCert(LimitClaim(StepQ(), F(1), F(1)), ConstRule(F(1, 4)), ""),
         default_eps_schedule(Field.Q, 24), 1),
        (VerifierCert(LimitClaim(StepQX(), RF_ZERO, RF_ZERO), LinearCapRule(RF_ONE, RF_X), ""),
         [RF_ONE, RF_X, rf_const(F(1, 2)) * RF_X, x_pow(2), x_pow(2), RF_X], 2),
    ):
        calls.clear()
        rep = check_verifier(cert, eps, budget)
        distinct = {r.w for r in rep.records}
        assert len(calls) == len(rep.probes) == len(distinct) == len(set(calls))
        assert {p.w for p in rep.probes} == distinct
        assert len(rep.rows) == len({r.delta for r in rep.records})
        assert [u.eps for u in rep.uses] == list(eps)
        assert rep.checks == sum(len(rep.rows[u.row].probes) for u in rep.uses)


def test_records_are_spelled_out_from_uses_rows_and_probes():
    cert = VerifierCert(LimitClaim(StepQ(), F(0), F(1, 64)), LinearCapRule(F(1, 4), F(1)), "")
    rep = check_verifier(cert, default_eps_schedule(Field.Q, 10), 1)
    assert not rep.passed and any(r.ok for r in rep.records)
    records = iter(rep.records)
    for use in rep.uses:
        delta, pairs = rep.rows[use.row]
        assert len(pairs) == len(use.verdicts)
        for (i, in_ball), ok in zip(pairs, use.verdicts):
            r = next(records)
            assert (r.kind, r.eps, r.delta, r.ok) == ("verifier", use.eps, delta, ok)
            assert (r.w, r.fw, r.dist, r.sep) == rep.probes[i]
            assert in_ball and ok == (r.dist < r.eps)
    assert next(records, None) is None


def test_probes_outside_the_punctured_ball_fail(monkeypatch):
    # probe_gen keeps every probe inside its ball, so move some out: the
    # point itself (sep = 0), the far edge (sep = delta) and beyond it
    def with_outside(field, level):
        inside = level_probes(field, level)
        return inside[:2] + [F(0), 4 * pow2(-level), -8 * pow2(-level)] + inside[2:]

    monkeypatch.setattr(claims, "level_probes", with_outside)
    claim = LimitClaim(Constant(Field.Q, F(0)), F(0), F(0))
    cert = VerifierCert(claim, ConstRule(F(1, 4)), "")
    rep = check_verifier(cert, [F(1), F(1, 2)], 0)
    assert not rep.passed
    outside = [r for r in rep.records if not 0 < r.sep < r.delta]
    assert outside and not any(r.ok for r in outside)
    assert all(r.ok for r in rep.records if 0 < r.sep < r.delta)
    _assert_matches_oracle(cert, [F(1), F(1, 2)], 1)

    class Fixed:
        """A witness rule that offers the point itself or the ball's edge."""

        def __init__(self, scale):
            self.scale = scale

        def witness_for(self, delta):
            return self.scale * delta

    qx_claim = LimitClaim(Constant(Field.QX, RF_ONE), RF_ZERO, RF_ZERO)
    for scale in (0, 1, -1):
        fals = FalsifierCert(LimitClaim(Constant(Field.Q, F(1)), F(0), F(0)), F(1, 2), Fixed(scale))
        rep = check_falsifier(fals, [F(1), F(1, 8)])
        assert rep.checks == 2 and not rep.passed
        assert all(r.dist >= r.eps and not r.ok for r in rep.records)
        _assert_matches_oracle(fals, [F(1), F(1, 8)])
        # in Q(x) the point itself has sep the zero RatFunc
        fals = FalsifierCert(qx_claim, RF_X, Fixed(rf_const(F(scale))))
        rep = check_falsifier(fals, [RF_ONE, RF_X])
        assert rep.checks == 2 and not rep.passed
        assert all(r.dist >= r.eps and not r.ok for r in rep.records)
        _assert_matches_oracle(fals, [RF_ONE, RF_X])


def _count_level_builds(monkeypatch) -> list:
    keys = []

    def counted(field, level):
        keys.append((field, level))
        return level_probes(field, level)

    monkeypatch.setattr(claims, "level_probes", counted)
    return keys


def test_the_probe_table_lives_for_exactly_one_run(monkeypatch):
    # one demo lhopital builds each (field, level) once, however many
    # certificates share it, and a second run builds them all again
    keys = _count_level_builds(monkeypatch)
    first = run_demo(demo_lhopital)
    assert len(keys) == len(set(keys)) == 132
    keys.clear()
    second = run_demo(demo_lhopital)
    assert len(keys) == len(set(keys)) == 132
    assert first[0] == second[0] == 0
    assert first[1] == second[1]


class _Discard:
    def write(self, text: str) -> int:
        return len(text)


def test_the_probe_table_does_not_grow_with_the_points(monkeypatch):
    # demo mvt checks each point on its own; the table holds offsets per
    # (field, level), so 40 times the points build each level once and
    # about as many levels
    keys = _count_level_builds(monkeypatch)
    built = []
    for points in (50, 2000):
        keys.clear()
        assert demo_mvt(points=points, out=_Discard()) == 0
        assert len(keys) == len(set(keys))
        built.append(len(keys))
    assert built[0] <= built[1] <= built[0] + 3


_SHARED_KEYS_CLAIM_FILE = """\
claim id=1 field=q fn=step_q point=0 candidate=0
claim id=2 field=q fn=identity point=0 candidate=0
claim id=3 field=q fn=identity point=1/3 candidate=1/3
claim id=4 field=q fn=constant:5 point=1/3 candidate=5
claim id=5 field=qx fn=step_qx point=0 candidate=0
claim id=6 field=qx fn=identity point=0 candidate=0
cert claim=1 kind=verifier rule=linear_cap(1,1/2)
cert claim=2 kind=verifier rule=linear_cap(1,1)
cert claim=3 kind=verifier rule=linear_cap(1/8,1)
cert claim=4 kind=verifier rule=const(1/4)
cert claim=5 kind=verifier rule=linear_cap(1,x)
cert claim=6 kind=verifier rule=linear_cap(1,1)
schedule kind=eps depth=10
"""


def test_reports_sharing_probe_levels_match_each_certificate_alone(monkeypatch):
    # two Q points and the Q(x) zero, each shared by two verifiers of one
    # run: the table is keyed by field and level alone, so the levels of
    # point 1/3 are all among those of point 0 and the run builds 17
    # levels, each once; every report of the run equals its certificate
    # refereed alone, with a table of its own, and the per-probe oracle's
    # records
    seen = []

    def recorded(cert, schedule, budget, table):
        report = check_verifier(cert, schedule, budget, table)
        seen.append((cert, schedule, budget, report))
        return report

    monkeypatch.setattr(demos, "check_verifier", recorded)
    keys = _count_level_builds(monkeypatch)
    steps = parse_claim_file(_SHARED_KEYS_CLAIM_FILE)
    code, _ = run_demo(demos.run, "claim", [], steps)
    assert code == 0 and len(seen) == len(steps) == 6
    built = len(keys)
    assert built == len(set(keys)) == 17
    used = {}  # (field, point) -> the levels of its reports' rows
    for cert, _, budget, report in seen:
        claim = cert.claim
        levels = used.setdefault((claim.field, claim.point), set())
        for row in report.rows:
            levels.update(probe_levels(claim.field, row.delta, budget))
    assert set(used) == {(Field.Q, F(0)), (Field.Q, F(1, 3)), (Field.QX, RF_ZERO)}
    assert used[Field.Q, F(1, 3)] < used[Field.Q, F(0)]
    assert set(keys) == {(field, n) for (field, _), levels in used.items() for n in levels}
    keys.clear()
    for cert, schedule, budget, report in seen:
        assert report == check_verifier(cert, schedule, budget)
    assert len(keys) > built  # alone, each certificate builds its own levels
    for cert, schedule, budget, _ in seen:
        _assert_matches_oracle(cert, schedule, budget)
