import gc
import re
import weakref
from fractions import Fraction as F

import pytest

from ordfield.certs import ConstRule, LinearCapRule, QStepProbe, QXStepProbe, TwoSided
from ordfield import transcript
from ordfield.claims import (
    Check,
    CheckRecord,
    FalsifierCert,
    LimitClaim,
    Probe,
    RefereeReport,
    Row,
    Use,
    VerifierCert,
    check_falsifier,
    check_verifier,
    default_delta_schedule,
    default_eps_schedule,
)
from ordfield.demos import demo_dlim, demo_lhopital, demo_mvt, demo_taylor
from ordfield.errors import ParseError, ResourceError, digit_limit
from ordfield.fields import Field
from ordfield.functions import Quotient, Identity, StepQ, parse_name, render_name
from ordfield.laurent import RF_ONE, RF_X, RF_ZERO, rf_const, x_pow
from ordfield.literals import parse_elem
from ordfield.rationals import too_long
from ordfield.transcript import (
    Transcript,
    kv_line,
    parse_claim_file,
    parse_kv_line,
)

from conftest import run_demo


def test_kv_line_roundtrip():
    line = kv_line("check", [("claim", 1), ("eps", F(1, 2)), ("verdict", True)])
    kind, kv = parse_kv_line(line)
    assert kind == "check"
    assert kv == {"claim": "1", "eps": "1/2", "verdict": "pass"}


def test_kv_line_note_last():
    line = kv_line("cert", [("claim", 2), ("note", "has spaces here")])
    kind, kv = parse_kv_line(line)
    assert kv["note"] == "has spaces here"
    with pytest.raises(ValueError):
        kv_line("cert", [("note", "early"), ("claim", 2)])
    with pytest.raises(ValueError):
        kv_line("cert", [("w", "a space")])


def test_rule_render_parse_roundtrip():
    for rule in (ConstRule(F(1, 4)), LinearCapRule(F(1), F(1, 2))):
        assert parse_name(Field.Q, render_name(rule), "delta rule") == rule
    rule = LinearCapRule(RF_ONE, RF_X)
    assert parse_name(Field.QX, render_name(rule), "delta rule") == rule


def test_witness_render_parse_roundtrip():
    for w in (
        QStepProbe(F(5, 7)),
        TwoSided(QStepProbe(F(5, 7)), QStepProbe(F(-5, 7)), F(0)),
    ):
        assert parse_name(Field.Q, render_name(w), "witness rule") == w
    wx = QXStepProbe(RF_ONE, -1)
    assert parse_name(Field.QX, render_name(wx), "witness rule") == wx


def test_transcript_claim_ids_deduplicate():
    tr = Transcript()
    claim = LimitClaim(StepQ(), F(0), F(0))
    assert tr.claim_id(claim) == 1
    assert tr.claim_id(claim) == 1
    other = LimitClaim(StepQ(), F(1), F(1))
    assert tr.claim_id(other) == 2
    assert sum(1 for ln in tr.render().splitlines() if ln.startswith("claim ")) == 2


def test_an_equal_but_distinct_claim_keeps_its_first_id():
    # claims are numbered by their text, so an equal claim built anew is
    # the same claim: its first id, one claim line
    tr = Transcript()
    first, again = (LimitClaim(StepQ(), F(1, 3), F(1)) for _ in range(2))
    assert first is not again and first == again
    assert tr.claim_id(first) == 1
    assert tr.claim_id(again) == 1
    assert tr.render() == "claim id=1 field=q fn=step_q point=1/3 candidate=1\n"


def test_the_same_claim_in_two_fields_gets_two_ids():
    # identity at 0 reads point=0 candidate=0 in both fields; the field
    # is part of the text a claim is numbered by
    tr = Transcript()
    assert tr.claim_id(LimitClaim(Identity(Field.Q), F(0), F(0))) == 1
    assert tr.claim_id(LimitClaim(Identity(Field.QX), RF_ZERO, RF_ZERO)) == 2
    assert tr.render() == (
        "claim id=1 field=q fn=identity point=0 candidate=0\n"
        "claim id=2 field=qx fn=identity point=0 candidate=0\n"
    )


def test_a_numbered_claim_is_not_kept():
    # the transcript keeps a claim's text, not the claim: a deep run's
    # claims are collected once their reports are written
    tr = Transcript()
    claim = LimitClaim(StepQ(), F(2, 3), F(1))
    ref = weakref.ref(claim)
    assert tr.claim_id(claim) == 1
    del claim
    gc.collect()
    assert ref() is None
    assert tr.claim_id(LimitClaim(StepQ(), F(2, 3), F(1))) == 1


def test_render_hands_out_each_line_once():
    # render gives the lines added since the last render and forgets them,
    # so the pieces of a run join into its whole transcript
    tr = Transcript()
    assert tr.render() == ""
    tr.header([("demo", "t")])
    first = tr.render()
    assert first == "header tool=ordfield version=0.1.0 demo=t\n"
    assert tr.render() == ""
    tr.claim_id(LimitClaim(StepQ(), F(0), F(0)))
    tr.summary("t", 0, 0, True)
    assert tr.render() == (
        "claim id=1 field=q fn=step_q point=0 candidate=0\n"
        "summary demo=t claims=1 checks=0 exit=0 verdict=pass\n"
    )
    assert tr.render() == ""


@pytest.mark.parametrize("count", [0, 1, 2, 100])
def test_render_is_the_lines_joined_each_with_its_newline(count):
    # render joins the lines with an empty last line; the text is the
    # lines each ended by a newline, and nothing when there is no line
    tr = Transcript()
    lines = [kv_line("note", [("i", i), ("text", "a" * i)]) for i in range(count)]
    for i in range(count):
        tr.add("note", [("i", i), ("text", "a" * i)])
    text = tr.render()
    assert text == ("\n".join(lines) + "\n" if lines else "")
    assert tr.render() == ""


def test_transcript_report_lines_recompute():
    tr = Transcript()
    cert = VerifierCert(
        LimitClaim(StepQ(), F(0), F(0)), LinearCapRule(F(1), F(1, 2)), "env"
    )
    rep = check_verifier(cert, default_eps_schedule(Field.Q, 4), 0)
    tr.add_report(rep)
    checks = [ln for ln in tr.render().splitlines() if ln.startswith("check ")]
    assert len(checks) == rep.checks == len(rep.records)
    # recompute one verdict from the serialized exact values
    kind, kv = parse_kv_line(checks[0])
    eps = parse_elem(Field.Q, kv["eps"])
    delta = parse_elem(Field.Q, kv["delta"])
    w = parse_elem(Field.Q, kv["w"])
    fw = parse_elem(Field.Q, kv["fw"])
    dist = parse_elem(Field.Q, kv["dist"])
    sep = parse_elem(Field.Q, kv["sep"])
    assert dist == abs(fw - F(0)) and sep == abs(w - F(0))
    assert (kv["verdict"] == "pass") == (0 < sep < delta and dist < eps)


def test_parse_claim_file_verifier_and_falsifier():
    text = """
# comment line
claim field=q fn=quotient(step_q,identity) point=0 candidate=0
cert kind=falsifier eps=1/2 witness=qstep(5/7)
cert kind=verifier rule=linear_cap(1,1/2) note=wrong on purpose
claim field=qx fn=step_qx point=0 candidate=0
cert kind=verifier rule=linear_cap(1,x)
schedule kind=delta depth=8
schedule kind=eps values=1,1/2,1/4
"""
    steps = parse_claim_file(text)
    assert len(steps) == 3
    fals, ver, ver_qx = steps
    assert isinstance(fals.cert, FalsifierCert)
    assert fals.cert.claim.fn == Quotient(StepQ(), Identity(Field.Q))
    assert fals.cert.epsilon == F(1, 2)
    # each certificate gets the file's schedule of its kind, built in the
    # field of its own claim, with the default probe budget
    assert fals.schedule == default_delta_schedule(Field.Q, 8)
    assert isinstance(ver.cert, VerifierCert) and ver.cert.note == "wrong on purpose"
    assert ver.schedule == [F(1), F(1, 2), F(1, 4)]
    assert ver_qx.cert.claim.field is Field.QX
    assert ver_qx.schedule == [RF_ONE, rf_const(F(1, 2)), rf_const(F(1, 4))]
    assert {s.budget for s in steps} == {2}


def test_parse_claim_file_shares_one_schedule_per_kind_and_field():
    # schedule records are file-global, so the certs of one kind whose
    # claims share a field share one schedule list, built once; a cert of
    # the other kind or field holds another list
    text = """
claim id=1 field=q fn=quotient(step_q,identity) point=0 candidate=0
claim id=2 field=qx fn=quotient(step_qx,identity) point=0 candidate=0
cert claim=1 kind=falsifier eps=1/2 witness=qstep(5/7)
cert claim=1 kind=verifier rule=linear_cap(1,1/2)
cert claim=2 kind=falsifier eps=x witness=qxstep(1,+)
cert claim=2 kind=verifier rule=linear_cap(1,x)
cert claim=1 kind=falsifier eps=1/4 witness=qstep(3/4)
cert claim=1 kind=verifier rule=const(1)
cert claim=2 kind=falsifier eps=x witness=qxstep(2,-)
cert claim=2 kind=verifier rule=const(x)
schedule kind=delta depth=8
schedule kind=eps depth=3
"""
    steps = parse_claim_file(text)
    first, again = steps[:4], steps[4:]
    for a, b in zip(first, again):
        assert a.schedule is b.schedule
    assert len({id(s.schedule) for s in first}) == 4
    assert [s.schedule for s in first] == [
        default_delta_schedule(Field.Q, 8),
        default_eps_schedule(Field.Q, 3),
        default_delta_schedule(Field.QX, 8),
        default_eps_schedule(Field.QX, 3),
    ]


def test_parse_claim_file_errors():
    with pytest.raises(ParseError, match="^cert record before any claim record$"):
        parse_claim_file("cert kind=falsifier eps=1/2 witness=qstep(5/7)\n")
    with pytest.raises(ParseError, match="^schedule record before any claim record$"):
        parse_claim_file("schedule kind=eps depth=2\n")
    with pytest.raises(ParseError, match="^unknown function name 'nosuch'$"):
        parse_claim_file("claim field=q fn=nosuch point=0 candidate=0\n")
    with pytest.raises(ParseError, match="^unknown field 'zz'$"):
        parse_claim_file("claim field=zz fn=step_q point=0 candidate=0\n")
    with pytest.raises(ParseError, match="^unknown field ''$"):
        parse_claim_file("claim fn=step_q point=0 candidate=0\n")
    with pytest.raises(ParseError, match="^claim file contains no certificates$"):
        parse_claim_file("")
    claim = "claim field=q fn=step_q point=0 candidate=0\n"
    with pytest.raises(ParseError, match="^unknown cert kind 'prover'$"):
        parse_claim_file(claim + "cert kind=prover\n")
    for cert, key in [
        ("cert kind=verifier note=no rule", "rule"),
        ("cert kind=falsifier witness=qstep(5/7)", "eps"),
        ("cert kind=falsifier eps=1/2", "witness"),
    ]:
        with pytest.raises(ParseError, match=f"^missing {key}= in record '{re.escape(cert)}'$"):
            parse_claim_file(claim + cert + "\n")


_NAMED_CLAIMS = (
    "claim id=1 field=q fn=quotient(step_q,identity) point=0 candidate=0\n"
    "claim id=2 field=q fn=quotient(step_q,identity) point=0 candidate=1\n"
)


def test_parse_claim_file_binds_each_cert_to_the_claim_it_names():
    steps = parse_claim_file(
        _NAMED_CLAIMS
        + "cert claim=1 kind=falsifier eps=1/2 witness=qstep(5/7)\n"
        + "cert kind=falsifier eps=1/2 witness=qstep(5/7)\n"
        + "cert claim=2 kind=verifier rule=const(1)\n"
    )
    # a cert with no claim= takes the last claim above it
    assert [s.cert.claim.candidate for s in steps] == [0, 1, 1]


@pytest.mark.parametrize(
    "text, message",
    [
        (_NAMED_CLAIMS + "cert claim=3 kind=verifier rule=const(1)\n", "cert names unknown claim 3"),
        (_NAMED_CLAIMS.replace("id=2", "id=1"), "duplicate claim id 1"),
        ("claim id=0 field=q fn=step_q point=0 candidate=0\n", "claim id 0 is not a positive integer"),
    ],
    ids=["unknown-claim", "duplicate-id", "id-not-positive"],
)
def test_parse_claim_file_claim_id_errors(text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_claim_file(text)


@pytest.mark.parametrize(
    "demo, kwargs",
    [
        (demo_dlim, dict(field=Field.Q, eps_depth=2, delta_depth=2)),
        (demo_dlim, dict(field=Field.QX, eps_depth=2, delta_depth=2)),
        (demo_mvt, dict(points=3, seed=1, eps_depth=2)),
        (demo_lhopital, dict(candidate=F(1), eps_depth=2, delta_depth=2)),
        (demo_taylor, dict(n=3, candidate=F(1), eps_depth=2, delta_depth=2)),
    ],
    ids=["dlim-q", "dlim-qx", "mvt", "lhopital", "taylor"],
)
def test_transcript_claims_and_certs_parse_back(demo, kwargs):
    # the demo's claim and cert lines, in their own order, parse back to
    # the certificates of the demo's steps, in step order: each cert binds
    # to the claim its claim= names
    steps = demo.__wrapped__(**kwargs)
    next(steps)
    want = [s.cert for s in steps if isinstance(s, Check)]
    _, text = run_demo(demo, **kwargs)
    lines = [line for line in text.splitlines() if line.startswith(("claim ", "cert "))]
    # and with every claim line moved in front of every cert line
    claims_first = sorted(lines, key=lambda line: not line.startswith("claim "))
    for text in (lines, claims_first):
        got = [s.cert for s in parse_claim_file("\n".join(text))]
        assert len(want) > 1 and got == want


def test_falsifier_transcript_has_witness_line():
    tr = Transcript()
    cert = FalsifierCert(
        LimitClaim(Quotient(StepQ(), Identity(Field.Q)), F(0), F(0)),
        F(1, 2),
        QStepProbe(F(5, 7)),
    )
    rep = check_falsifier(cert, [F(1, 4)])
    tr.add_report(rep)
    text = tr.render()
    assert "witness=qstep(5/7)" in text
    assert "tag=refutation-instances" in text


def _check_lines(report: RefereeReport) -> list[str]:
    tr = Transcript()
    tr.add_report(report)
    return [ln for ln in tr.render().splitlines() if ln.startswith("check ")]


def _report_cases():
    """(report, its records) with pass, fail and undef checks in each field:
    in Q two epsilons share a row and two rows share a probe; in Q(x) each
    falsifier row has its own probe.  A falsifier in each field at a zero
    point and candidate holds one epsilon object in every use and probes
    whose sep is their w and whose dist is their fw, as the referee gives
    them there, undef ones included."""
    q_claim = LimitClaim(StepQ(), F(0), F(0))
    qx_claim = LimitClaim(Quotient(Identity(Field.QX), Identity(Field.QX)), RF_ZERO, RF_ONE)
    half, w = rf_const(F(1, 2)), x_pow(2) * rf_const(F(-3, 7)) / (RF_ONE + RF_X)
    q = (
        Probe(F(5, 112), F(1, 32), F(1, 32), F(5, 112)),
        Probe(F(-7, 5), F(1), F(1), F(7, 5)),
        Probe(F(0), None, None, F(0)),
    )
    qx = (
        Probe(w, RF_ONE, RF_ZERO, -w),
        Probe(-RF_X, RF_ONE + RF_X, RF_X, RF_X),
        Probe(RF_ZERO, None, None, RF_ZERO),
    )
    q_w, q_fw, q_undef = F(5, 28), F(3, 4), F(5, 56)
    q_shared = (
        Probe(q_w, q_fw, q_fw, q_w),
        Probe(-q_w, -q_fw, F(3, 4), F(5, 28)),
        Probe(q_undef, None, None, q_undef),
    )
    qx_w, qx_fw, qx_undef = x_pow(2), RF_ONE + RF_X, x_pow(3)
    qx_shared = (
        Probe(qx_w, qx_fw, qx_fw, qx_w),
        Probe(-qx_w, -qx_fw, RF_ONE + RF_X, x_pow(2)),
        Probe(qx_undef, None, None, qx_undef),
    )
    q_eps, qx_eps = F(1, 2), x_pow(1)
    v, f = "verifier", "falsifier"
    return [
        (
            RefereeReport(
                VerifierCert(q_claim, LinearCapRule(F(1), F(1, 2)), ""),
                q,
                (Row(F(1, 8), (0, 1)), Row(F(1, 2), (2, 1))),
                (
                    Use(F(1, 4), 0, (True, False)),
                    Use(F(1, 64), 0, (False, False)),
                    Use(F(1), 1, (False, False)),
                ),
            ),
            [
                CheckRecord(v, F(1, 4), F(1, 8), *q[0], True),
                CheckRecord(v, F(1, 4), F(1, 8), *q[1], False),
                CheckRecord(v, F(1, 64), F(1, 8), *q[0], False),
                CheckRecord(v, F(1, 64), F(1, 8), *q[1], False),
                CheckRecord(v, F(1), F(1, 2), *q[2], False),
                CheckRecord(v, F(1), F(1, 2), *q[1], False),
            ],
        ),
        (
            RefereeReport(
                FalsifierCert(q_claim, q_eps, QStepProbe(F(5, 7))),
                q_shared,
                (Row(F(1, 4), (0,)), Row(F(1, 4), (1,)), Row(F(1, 8), (2,))),
                (Use(q_eps, 0, (True,)), Use(q_eps, 1, (True,)), Use(q_eps, 2, (False,))),
            ),
            [
                CheckRecord(f, q_eps, F(1, 4), *q_shared[0], True),
                CheckRecord(f, q_eps, F(1, 4), *q_shared[1], True),
                CheckRecord(f, q_eps, F(1, 8), *q_shared[2], False),
            ],
        ),
        (
            RefereeReport(
                FalsifierCert(LimitClaim(Identity(Field.QX), RF_ZERO, RF_ZERO), qx_eps, QXStepProbe(RF_ONE, 1)),
                qx_shared,
                (Row(RF_X, (0,)), Row(half, (1,)), Row(RF_ONE, (2,))),
                (Use(qx_eps, 0, (False,)), Use(qx_eps, 1, (True,)), Use(qx_eps, 2, (False,))),
            ),
            [
                CheckRecord(f, qx_eps, RF_X, *qx_shared[0], False),
                CheckRecord(f, qx_eps, half, *qx_shared[1], True),
                CheckRecord(f, qx_eps, RF_ONE, *qx_shared[2], False),
            ],
        ),
        (
            RefereeReport(
                FalsifierCert(qx_claim, RF_X, QXStepProbe(RF_ONE, -1)),
                qx,
                (Row(half, (0,)), Row(half, (1,)), Row(x_pow(3), (2,))),
                (
                    Use(RF_X, 0, (False,)),
                    Use(x_pow(-1), 1, (True,)),
                    Use(RF_X, 2, (False,)),
                ),
            ),
            [
                CheckRecord(f, RF_X, half, *qx[0], False),
                CheckRecord(f, x_pow(-1), half, *qx[1], True),
                CheckRecord(f, RF_X, x_pow(3), *qx[2], False),
            ],
        ),
    ]


def _kv_check_lines(records) -> list[str]:
    """records as claim 1's check lines, by the general record renderer."""
    return [
        kv_line(
            "check",
            [
                ("claim", 1),
                ("kind", r.kind),
                ("eps", r.eps),
                ("delta", r.delta),
                ("w", r.w),
                ("fw", r.fw),
                ("dist", r.dist),
                ("sep", r.sep),
                ("verdict", r.ok),
            ],
        )
        for r in records
    ]


def test_check_lines_match_kv_line():
    # a pass, a fail and an undef record in each field, rendered by
    # add_report and by the general record renderer
    for report, records in _report_cases():
        assert report.records == tuple(records)
        want = _kv_check_lines(records)
        assert _check_lines(report) == want
    assert "fw=undef dist=undef" in want[2] and want[0].endswith("verdict=fail")


def test_a_row_that_passes_then_fails_renders_each_line():
    # the row's pieces are built for its first use, which passes and is
    # one block; a later use of the same row holds one fail and is
    # written line by line from the same pieces, and a passing use after
    # it is one block again
    claim = LimitClaim(StepQ(), F(0), F(0))
    probes = (Probe(F(1, 7), F(1, 2), F(1, 2), F(1, 7)), Probe(F(-1, 9), F(0), F(0), F(1, 9)))
    report = RefereeReport(
        VerifierCert(claim, ConstRule(F(1, 4)), ""),
        probes,
        (Row(F(1, 4), (0, 1)),),
        (Use(F(1), 0, (True, True)), Use(F(1, 2), 0, (False, True)), Use(F(1, 3), 0, (True, True))),
    )
    want = _kv_check_lines(report.records)
    assert [ln.endswith("verdict=fail") for ln in want] == [False, False, True, False, False, False]
    blocks, checks, passed = transcript._check_lines(1, report)
    assert len(blocks) == 4 and "\n".join(blocks).split("\n") == want
    assert (checks, passed) == (6, False) == (report.checks, report.passed)
    assert _check_lines(report) == want


def test_a_use_with_no_probes_writes_no_line():
    # a row with no probe in it gives its use no verdict: no check line
    # and no check, so a report of only such a use does not pass
    claim = LimitClaim(StepQ(), F(0), F(0))
    cert = VerifierCert(claim, ConstRule(F(1, 4)), "")
    probe = Probe(F(1, 7), F(1, 2), F(1, 2), F(1, 7))
    rows = (Row(F(1, 4), ()), Row(F(1, 8), (0,)))
    empty = RefereeReport(cert, (probe,), rows, (Use(F(1), 0, ()),))
    assert transcript._check_lines(1, empty) == ([], 0, False)
    tr = Transcript()
    assert tr.add_report(empty) == (0, False) == (empty.checks, empty.passed)
    assert [ln for ln in tr.render().splitlines() if ln.startswith(("check ", "report "))] == [
        "report claim=1 kind=verifier tag=evidence checks=0 verdict=fail"
    ]
    mixed = RefereeReport(cert, (probe,), rows, (Use(F(1), 0, ()), Use(F(1, 2), 1, (True,))))
    assert tr.add_report(mixed) == (1, True) == (mixed.checks, mixed.passed)
    assert _check_lines(mixed) == _kv_check_lines(mixed.records)


def test_add_report_counts_what_the_report_counts():
    # the counts the writer returns are the report's own, on hand-built
    # reports and on reports from the referee in both fields
    for report in [r for r, _ in _report_cases()] + _refereed_reports():
        assert Transcript().add_report(report) == (report.checks, report.passed)


def _refereed_reports() -> list[RefereeReport]:
    """A verifier and a falsifier report from the referee in each field."""
    return [
        check_verifier(
            VerifierCert(LimitClaim(StepQ(), F(1), F(1)), ConstRule(F(1, 4)), ""),
            default_eps_schedule(Field.Q, 8),
            1,
        ),
        check_falsifier(
            FalsifierCert(LimitClaim(StepQ(), F(0), F(1)), F(1, 2), QStepProbe(F(5, 7))),
            [F(1), F(1, 2), F(1, 2)],
        ),
        check_verifier(
            VerifierCert(LimitClaim(Identity(Field.QX), RF_ZERO, RF_ZERO), ConstRule(RF_X), ""),
            default_eps_schedule(Field.QX, 4),
            1,
        ),
        check_falsifier(
            FalsifierCert(LimitClaim(Identity(Field.QX), RF_ZERO, RF_ONE), RF_X, QXStepProbe(RF_ONE, 1)),
            default_delta_schedule(Field.QX, 3),
        ),
    ]


def _renders_of(report) -> list:
    """The values report's check records render, in render order: each
    probe's w, fw unless undef, dist unless undef or fw itself, sep unless
    w itself; then, use by use, its eps unless it is the previous use's
    object, and its row's delta unless an earlier use holds that row."""
    out = []
    for w, fw, dist, sep in report.probes:
        out += [w] + [fw] * (fw is not None) + [dist] * (dist is not None and dist is not fw)
        out += [sep] * (sep is not w)
    for i, use in enumerate(report.uses):
        if not i or use.eps is not report.uses[i - 1].eps:
            out.append(use.eps)
        if all(use.row != u.row for u in report.uses[:i]):
            out.append(report.rows[use.row].delta)
    return out


def test_each_probe_row_and_epsilon_is_rendered_once(monkeypatch):
    # a report's values go through the one renderer of its claim's field,
    # and a value object the record repeats is rendered once
    rendered = []
    for name in ("render_rat", "render_elem"):
        render = getattr(transcript, name)
        spy = lambda e, name=name, render=render: rendered.append((name, e)) or render(e)
        monkeypatch.setattr(transcript, name, spy)
    reports = [r for r, _ in _report_cases()] + _refereed_reports()
    reused = {"sep is w": 0, "dist is fw": 0, "eps repeated": 0}
    for report in reports:
        rendered.clear()
        blocks, checks, passed = transcript._check_lines(1, report)
        lines = "\n".join(blocks).split("\n")
        assert len(lines) == checks == report.checks == len(report.records)
        assert passed == report.passed
        want = _renders_of(report)
        name = "render_rat" if report.cert.claim.field is Field.Q else "render_elem"
        assert [n for n, _ in rendered] == [name] * len(want)
        assert all(e is v for (_, e), v in zip(rendered, want))
        reused["sep is w"] += sum(p.sep is p.w for p in report.probes)
        reused["dist is fw"] += sum(p.dist is p.fw for p in report.probes if p.fw is not None)
        reused["eps repeated"] += sum(a.eps is b.eps for a, b in zip(report.uses, report.uses[1:]))
    # the reports hold every kind of reuse, so these counts are not vacuous
    assert all(reused.values()), reused


def test_check_line_refuses_a_value_with_a_space(monkeypatch):
    # a rendered value with a space in it would split into two fields when
    # the line is parsed back: the epsilon's head, the row's delta and the
    # probe's tail each refuse one, through the renderer of the field
    c = lambda n: rf_const(F(1, n))
    cases = [
        (
            "render_rat",
            VerifierCert(LimitClaim(StepQ(), F(0), F(0)), ConstRule(F(1)), ""),
            (F(1, 3), F(1, 5), Probe(F(1, 7), F(1, 2), F(1, 2), F(1, 7))),
        ),
        (
            "render_elem",
            VerifierCert(LimitClaim(Identity(Field.QX), RF_ZERO, RF_ZERO), ConstRule(RF_ONE), ""),
            (c(3), c(5), Probe(c(7), c(2), c(2), c(7))),
        ),
    ]
    for name, cert, (eps, delta, probe) in cases:
        report = RefereeReport(cert, (probe,), (Row(delta, (0,)),), (Use(eps, 0, (True,)),))
        assert transcript._check_lines(1, report)[0]
        render = getattr(transcript, name)
        for spaced, piece in [
            (eps, "check claim=1 kind=verifier eps="),
            (delta, " delta="),
            (probe.w, " w="),
        ]:
            spaced_render = lambda e, spaced=spaced: "1 /3" if e == spaced else render(e)
            monkeypatch.setattr(transcript, name, spaced_render)
            with pytest.raises(ValueError, match="contains a space: '" + re.escape(piece)):
                transcript._check_lines(1, report)
        monkeypatch.undo()


@pytest.mark.parametrize("field", [Field.Q, Field.QX])
def test_check_line_past_the_digit_limit_is_refused(field):
    # a value whose text would hold an int past the interpreter's
    # int-to-text digit limit refuses the report, in either field
    limit = digit_limit()
    if not limit:
        pytest.skip("this interpreter has no int-to-text digit limit")
    big = F(10**limit, 3)  # a numerator of limit + 1 digits
    if field is Field.Q:
        cert = VerifierCert(LimitClaim(StepQ(), F(0), F(0)), ConstRule(F(1)), "")
        probe = Probe(F(1, 7), big, big, F(1, 7))
    else:
        cert = VerifierCert(LimitClaim(Identity(Field.QX), RF_ZERO, RF_ZERO), ConstRule(RF_ONE), "")
        probe = Probe(RF_X, rf_const(big), rf_const(big), RF_X)
    report = RefereeReport(cert, (probe,), (Row(probe.sep, (0,)),), (Use(probe.sep, 0, (True,)),))
    with pytest.raises(ResourceError) as refused:
        Transcript().add_report(report)
    assert str(refused.value) == str(too_long())
