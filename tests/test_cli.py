import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ordfield.cli import main
from ordfield.demos import MAX_MVT_POINTS, demo_dlim, demo_lhopital, demo_mvt, demo_taylor
from ordfield.errors import OrdFieldError
from ordfield.fields import Field
from ordfield.functions import fn_name, parse_fn
from ordfield.literals import MAX_NESTING

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "ordfield" / "fixtures"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "ordfield.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_eval_qx(capsys):
    assert main(["eval", "--field", "qx", "x^2/(x - x^2)"]) == 0
    out = capsys.readouterr().out
    assert "value x/(1 - x)" in out
    assert "sign 1" in out
    assert "valuation 1" in out


def test_eval_q(capsys):
    assert main(["eval", "--field", "q", "2/-4"]) == 0
    out = capsys.readouterr().out
    assert "value -1/2" in out and "sign -1" in out
    assert "valuation" not in out


def test_eval_errors_exit_2(capsys):
    assert main(["eval", "--field", "q", "x+1"]) == 2
    assert main(["eval", "--field", "q", "1 +"]) == 2
    assert main(["eval", "--field", "qx", "1/(x-x)"]) == 2


def test_claim_fixture_files(capsys):
    for name in ("dlim_q_falsifier.claim", "dlim_qx_falsifier.claim"):
        assert main(["claim", str(FIXTURES / name)]) == 0
        out = capsys.readouterr().out
        assert "verdict=pass" in out


def test_claim_missing_file(capsys):
    assert main(["claim", "/nonexistent/path.claim"]) == 2


def test_claim_file_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "f.claim"
    path.write_bytes(b"\xff\xfe\x00bad")
    assert main(["claim", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not UTF-8" in captured.err


def _nested_quotient(depth):
    return "quotient(" * depth + "identity" + ",constant:1)" * depth


def test_claim_fn_nesting_cap(tmp_path, capsys):
    name = _nested_quotient(MAX_NESTING)
    assert fn_name(parse_fn(Field.Q, name)) == name
    for depth in (MAX_NESTING + 1, 3000):
        path = tmp_path / "deep.claim"
        path.write_text(
            f"claim field=q fn={_nested_quotient(depth)} point=1 candidate=1\n"
            "cert kind=verifier rule=const(1)\n"
        )
        t0 = time.perf_counter()
        assert main(["claim", str(path)]) == 2, depth
        assert time.perf_counter() - t0 < 1, depth
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ordfield: nested deeper than the {MAX_NESTING}-level limit\n"
    # refereed at the deepest admitted nesting: the quotient is t, so 1 at 1
    path.write_text(
        f"claim field=q fn={name} point=1 candidate=1\n"
        "cert kind=verifier rule=linear_cap(1,1)\n"
        "schedule kind=eps depth=2\n"
    )
    assert main(["claim", str(path)]) == 0
    capsys.readouterr()


def test_claim_failing_certificate(tmp_path, capsys):
    bad = tmp_path / "bad.claim"
    bad.write_text(
        "claim field=q fn=step_q point=0 candidate=1/3\n"
        "cert kind=verifier rule=linear_cap(1,1/2)\n"
        "schedule kind=eps values=1/64\n"
    )
    assert main(["claim", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "verdict=fail" in out


def test_demo_functions_exit_zero():
    code, _ = demo_dlim(Field.Q, eps_depth=16, delta_depth=16)
    assert code == 0
    code, _ = demo_dlim(Field.QX, eps_depth=8, delta_depth=8)
    assert code == 0
    code, _ = demo_mvt(points=12, eps_depth=6)
    assert code == 0
    code, _ = demo_lhopital(eps_depth=16, delta_depth=16)
    assert code == 0
    code, _ = demo_taylor(2, eps_depth=16, delta_depth=16)
    assert code == 0
    code, _ = demo_taylor(3, eps_depth=16, delta_depth=16)
    assert code == 0


def test_demo_taylor_rejects_n_below_2(capsys):
    assert main(["demo", "taylor", "--n", "1"]) == 2
    with pytest.raises(OrdFieldError):
        demo_taylor(1)


def test_claim_bad_schedule_depth_exits_2(tmp_path, capsys):
    for depth in ("abc", "-3"):
        path = tmp_path / "depth.claim"
        path.write_text(
            "claim field=q fn=diffq(step_q,0) point=0 candidate=0\n"
            "cert kind=falsifier eps=1/2 witness=qstep(5/7)\n"
            f"schedule kind=delta depth={depth}\n"
        )
        assert main(["claim", str(path)]) == 2, depth


def test_demo_negative_depth_exits_2(capsys):
    assert main(["demo", "dlim", "--eps-depth", "-1"]) == 2
    assert main(["demo", "dlim", "--eps-depth", "2", "--delta-depth", "-1"]) == 2
    assert main(["demo", "mvt", "--points", "8", "--eps-depth", "-1"]) == 2


def test_demo_mvt_points_beyond_the_pool_exit_2(capsys):
    # every interior point beyond the fixed landmarks comes from this pool
    pool = {Fraction(num, den) for den in range(3, 400) for num in range(den + 1, 2 * den)}
    assert MAX_MVT_POINTS == len(pool)
    assert main(["demo", "mvt", "--points", "50000"]) == 2


def test_demo_mvt_points_below_one_exit_2(capsys):
    for points in ("0", "-3"):
        assert main(["demo", "mvt", "--points", points]) == 2
        assert "at least 1 interior point" in capsys.readouterr().err
    with pytest.raises(OrdFieldError):
        demo_mvt(points=0)


def test_demo_refuses_flags_it_does_not_take(capsys):
    refused = [
        (["mvt", "--delta-depth", "5", "--candidate", "3", "--field", "qx"],
         ("--delta-depth", "--candidate", "--field")),
        (["dlim", "--candidate", "1"], ("--candidate",)),
        (["mvt", "--field", "q"], ("--field",)),
        (["lhopital", "--field", "q", "--n", "3"], ("--field", "--n")),
        (["taylor", "--points", "4", "--seed", "1"], ("--points", "--seed")),
    ]
    for argv, flags in refused:
        assert main(["demo", *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        for flag in flags:
            assert flag in captured.err, (argv, flag)


def test_demo_flags_each_demo_takes(capsys):
    # the argv forms the benchmark runs, plus every flag a demo takes
    for argv in (
        ["dlim", "--field", "q", "--eps-depth", "2", "--delta-depth", "2"],
        ["dlim", "--field", "qx", "--eps-depth", "2", "--delta-depth", "2"],
        ["mvt", "--points", "3", "--seed", "5", "--eps-depth", "2"],
        ["lhopital", "--candidate", "1", "--eps-depth", "2", "--delta-depth", "2"],
        ["taylor", "--n", "2", "--candidate", "1", "--eps-depth", "2", "--delta-depth", "2"],
    ):
        assert main(["demo", *argv]) == 0, argv
    capsys.readouterr()


def test_claim_schedule_values_parsed_in_each_claims_field(tmp_path, capsys):
    q_verifier = (
        "claim field=q fn=step_q point=0 candidate=0\n"
        "cert kind=verifier rule=linear_cap(1,1/2)\n"
    )
    qx_falsifier = (
        "claim field=qx fn=diffq(step_qx,0) point=0 candidate=0\n"
        "cert kind=falsifier eps=x witness=qxstep(1,+)\n"
        "schedule kind=delta depth=2\n"
    )
    # x is no element of Q, so the q claim's schedule does not parse
    bad = tmp_path / "mixed_bad.claim"
    bad.write_text(q_verifier + qx_falsifier + "schedule kind=eps values=1,x\n")
    assert main(["claim", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed in field q" in captured.err
    # values valid in both fields: each claim is refereed in its own field
    qx_verifier = (
        "claim field=qx fn=step_qx point=0 candidate=0\n"
        "cert kind=verifier rule=linear_cap(1,1/2)\n"
    )
    good = tmp_path / "mixed_good.claim"
    good.write_text(q_verifier + qx_verifier + "schedule kind=eps values=1,1/2\n")
    assert main(["claim", str(good)]) == 0
    out = capsys.readouterr().out
    assert "check claim=1 kind=verifier eps=1/2 delta=1/4 w=5/112 " in out
    assert "check claim=2 kind=verifier eps=1/2 delta=1/4 w=1/2*x " in out
    assert out.count("kind=verifier tag=evidence") == 2


def test_demo_single_delta_schedule(capsys):
    assert main(["demo", "dlim", "--field", "q", "--eps-depth", "4", "--delta-depth", "0"]) == 0
    out = capsys.readouterr().out
    falsifier_checks = [
        ln for ln in out.splitlines() if "kind=falsifier" in ln and ln.startswith("check ")
    ]
    assert len(falsifier_checks) == 1


def test_demo_candidate_refutations(capsys):
    assert main(["demo", "lhopital", "--eps-depth", "8", "--delta-depth", "8",
                 "--candidate", "1"]) == 0
    out = capsys.readouterr().out
    assert "fw=-7/5" in out and "dist=12/5" in out
    assert main(["demo", "lhopital", "--eps-depth", "8", "--delta-depth", "8",
                 "--candidate", "7/5"]) == 0
    out = capsys.readouterr().out
    assert "two_sided" in out
    assert main(["demo", "taylor", "--n", "2", "--eps-depth", "8", "--delta-depth", "8",
                 "--candidate", "100/169"]) == 0
    out = capsys.readouterr().out
    assert "fw=0" in out  # inner probe refutes candidates above 1/4


def test_demo_transcript_flag(tmp_path):
    out_path = tmp_path / "t.txt"
    assert main(["demo", "mvt", "--points", "8", "--eps-depth", "4",
                 "--transcript", str(out_path)]) == 0
    text = out_path.read_text()
    assert text.startswith("header tool=ordfield")
    assert "mvt a=1 b=2 fa=1 fb=0 gap=-1" in text


def test_demo_transcripts_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["demo", "mvt", "--points", "16", "--eps-depth", "4"]
    assert main(args + ["--transcript", str(a)]) == 0
    assert main(args + ["--transcript", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_subprocess_usage_and_version():
    code, out, err = run_cli("--version")
    assert code == 0 and "ordfield" in out
    code, out, err = run_cli("demo", "nosuch")
    assert code == 2
    code, out, err = run_cli("demo", "taylor", "--n", "1")
    assert code == 2 and "theorem" in err


def test_cli_subprocess_dlim_deterministic():
    args = ("demo", "dlim", "--field", "q", "--eps-depth", "8", "--delta-depth", "8")
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_exit_codes_are_exhaustive():
    # 0 = expected verdicts, 1 = verdict violation, 2 = usage/parse
    assert main(["demo", "dlim", "--field", "q", "--eps-depth", "2",
                 "--delta-depth", "2"]) == 0
    assert main(["eval", "--field", "q", ")("]) == 2


def test_verifier_falsifier_exclusivity_across_demos():
    # no claim in any shipped demo gets both a passing verifier and a
    # passing falsifier report
    from ordfield.transcript import parse_kv_line

    transcripts = [
        demo_dlim(Field.Q, eps_depth=16, delta_depth=16)[1],
        demo_dlim(Field.QX, eps_depth=8, delta_depth=8)[1],
        demo_mvt(points=10, eps_depth=4)[1],
        demo_lhopital(eps_depth=16, delta_depth=16)[1],
        demo_taylor(2, eps_depth=16, delta_depth=16)[1],
        demo_taylor(3, eps_depth=16, delta_depth=16)[1],
    ]
    for tr in transcripts:
        passing = {}
        for line in tr.lines:
            if not line.startswith("report "):
                continue
            _, kv = parse_kv_line(line)
            if kv["verdict"] == "pass":
                passing.setdefault(kv["claim"], set()).add(kv["kind"])
        for claim, kinds in passing.items():
            assert kinds != {"verifier", "falsifier"}, claim


def test_eval_qx_zero_has_undefined_valuation(capsys):
    assert main(["eval", "--field", "qx", "x - x"]) == 0
    out = capsys.readouterr().out
    assert "value 0" in out and "sign 0" in out and "valuation undef" in out
