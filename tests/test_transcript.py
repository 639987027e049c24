import re
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
from ordfield.errors import ParseError
from ordfield.fields import Field
from ordfield.functions import Quotient, Identity, StepQ, parse_name, render_name
from ordfield.laurent import RF_ONE, RF_X, RF_ZERO, rf_const, x_pow
from ordfield.literals import parse_elem
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
    falsifier row has its own probe."""
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
    v, f = "verifier", "falsifier"
    return [
        (
            RefereeReport(
                VerifierCert(q_claim, LinearCapRule(F(1), F(1, 2)), ""),
                q,
                (Row(F(1, 8), ((0, True), (1, False))), Row(F(1, 2), ((2, False), (1, False)))),
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
                FalsifierCert(qx_claim, RF_X, QXStepProbe(RF_ONE, -1)),
                qx,
                (Row(half, ((0, False),)), Row(half, ((1, True),)), Row(x_pow(3), ((2, False),))),
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


def test_check_lines_match_kv_line():
    # a pass, a fail and an undef record in each field, rendered by
    # add_report and by the general record renderer
    for report, records in _report_cases():
        assert report.records == tuple(records)
        want = [
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
        assert _check_lines(report) == want
    assert "fw=undef dist=undef" in want[2] and want[0].endswith("verdict=fail")


def test_each_probe_row_and_epsilon_is_rendered_once(monkeypatch):
    tails, rendered = [], []
    probe_tail, render = transcript._probe_tail, transcript.render_elem
    monkeypatch.setattr(transcript, "_probe_tail", lambda p: tails.append(p) or probe_tail(p))
    monkeypatch.setattr(transcript, "render_elem", lambda e: rendered.append(e) or render(e))
    cert = VerifierCert(LimitClaim(StepQ(), F(1), F(1)), ConstRule(F(1, 4)), "")
    for report in [r for r, _ in _report_cases()] + [
        check_verifier(cert, default_eps_schedule(Field.Q, 8), 1),
        check_falsifier(
            FalsifierCert(LimitClaim(StepQ(), F(0), F(1)), F(1, 2), QStepProbe(F(5, 7))),
            [F(1), F(1, 2), F(1, 2)],
        ),
    ]:
        tails.clear()
        rendered.clear()
        lines = transcript._check_lines(1, report)
        assert len(lines) == report.checks == len(report.records)
        assert tails == list(report.probes)
        values = sum(4 if p.fw is not None else 2 for p in report.probes)
        assert len(rendered) == values + len(report.rows) + len(report.uses)


def test_check_line_refuses_a_value_with_a_space(monkeypatch):
    # a rendered value with a space in it would split into two fields when
    # the line is parsed back: the epsilon's head, the row's delta and the
    # probe's tail each refuse one
    cert = VerifierCert(LimitClaim(StepQ(), F(0), F(0)), ConstRule(F(1)), "")
    probe = Probe(F(1, 7), F(1, 2), F(1, 2), F(1, 7))
    report = RefereeReport(cert, (probe,), (Row(F(1, 5), ((0, True),)),), (Use(F(1, 3), 0, (True,)),))
    assert transcript._check_lines(1, report)
    render = transcript.render_elem
    for spaced, piece in [
        (F(1, 3), "check claim=1 kind=verifier eps="),
        (F(1, 5), " delta="),
        (F(1, 7), " w="),
    ]:
        spaced_render = lambda e, spaced=spaced: "1 /3" if e == spaced else render(e)
        monkeypatch.setattr(transcript, "render_elem", spaced_render)
        with pytest.raises(ValueError, match="contains a space: '" + re.escape(piece)):
            transcript._check_lines(1, report)
