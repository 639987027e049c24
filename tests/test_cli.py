import argparse
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ordfield.claims import default_delta_schedule, default_eps_schedule
from ordfield import demos
from ordfield.cli import build_parser, main
from ordfield.demos import MAX_MVT_POINTS, demo_dlim, demo_lhopital, demo_mvt, demo_taylor
from ordfield.errors import DomainError, OrdFieldError, ResourceError
from ordfield.fields import Field, render_elem
from ordfield.functions import parse_name, render_name
from ordfield.literals import MAX_NESTING

from conftest import CHILD_ENV, run_demo

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "src" / "ordfield" / "fixtures"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "ordfield.cli", *args],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
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
    assert render_name(parse_name(Field.Q, name, "function name")) == name
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
    code, _ = run_demo(demo_dlim, Field.Q, eps_depth=16, delta_depth=16)
    assert code == 0
    code, _ = run_demo(demo_dlim, Field.QX, eps_depth=8, delta_depth=8)
    assert code == 0
    code, _ = run_demo(demo_mvt, points=12, eps_depth=6)
    assert code == 0
    code, _ = run_demo(demo_lhopital, eps_depth=16, delta_depth=16)
    assert code == 0
    code, _ = run_demo(demo_taylor, 2, eps_depth=16, delta_depth=16)
    assert code == 0
    code, _ = run_demo(demo_taylor, 3, eps_depth=16, delta_depth=16)
    assert code == 0


def test_demo_taylor_rejects_n_below_2(capsys):
    assert main(["demo", "taylor", "--n", "1"]) == 2
    with pytest.raises(OrdFieldError):
        run_demo(demo_taylor, 1)


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
        run_demo(demo_mvt, points=0)


def test_demo_mvt_checks_exactly_the_points_it_names():
    # the header's points=N is the number of bound records, also below the
    # four landmarks
    for points in range(1, 6):
        code, text = run_demo(demo_mvt, points=points, eps_depth=2)
        lines = text.splitlines()
        assert code == 0 and f" points={points} " in lines[0]
        assert sum(line.startswith("bound ") for line in lines) == points


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
    # the refused flags are named in one fixed order, not in argv order
    assert main(["demo", "mvt", "--delta-depth", "5", "--candidate", "3", "--field", "qx",
                 "--n", "4"]) == 2
    assert capsys.readouterr().err == (
        "ordfield: demo mvt does not take --field, --delta-depth, --candidate, --n\n"
    )


# the flags (argparse dests) each demo takes
DEMO_FLAGS = {
    "dlim": ("field", "eps_depth", "delta_depth"),
    "mvt": ("points", "seed", "eps_depth"),
    "lhopital": ("candidate", "eps_depth", "delta_depth"),
    "taylor": ("n", "candidate", "eps_depth", "delta_depth"),
}
FLAG_ARGS = {
    "field": "q", "eps_depth": "2", "delta_depth": "2", "points": "3", "seed": "1",
    "candidate": "1", "n": "2",
}


def test_demo_registry_is_the_cli_surface(monkeypatch, capsys):
    # the demo choices, in definition order
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    name_arg = next(a for a in sub.choices["demo"]._actions if a.dest == "name")
    assert list(name_arg.choices) == ["dlim", "mvt", "lhopital", "taylor"]
    # each demo takes exactly its flags: run it with one flag at a time,
    # its steps cut short after the header
    monkeypatch.setattr(demos, "run", lambda name, header, steps, out: 0)
    for name, flags in DEMO_FLAGS.items():
        for flag, value in FLAG_ARGS.items():
            code = main(["demo", name, "--" + flag.replace("_", "-"), value])
            err = capsys.readouterr().err
            assert code == (0 if flag in flags else 2), (name, flag, err)
    monkeypatch.undo()
    # the command looks its demo up when it runs, so a traced run sees it
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import spans

    tracer = spans.Tracer()
    saved = spans.install(tracer)
    try:
        assert main(["demo", "mvt", "--points", "2", "--eps-depth", "1"]) == 0
    finally:
        spans.uninstall(saved)
    calls, self_ns = tracer.stats["demos.demo_mvt"][:2]
    assert calls == 1 and self_ns > 0
    capsys.readouterr()


def _demo_flag_help() -> dict[str, list[str]]:
    """The demos each demo flag's help names, by flag dest."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        a.dest: a.help.rsplit(" (", 1)[1].removesuffix(")").split(", ")
        for a in sub.choices["demo"]._actions
        if a.option_strings and a.dest not in ("help", "transcript")
    }


def test_demo_flag_help_names_the_demos_that_take_it(monkeypatch):
    assert _demo_flag_help() == {
        flag: [name for name, flags in DEMO_FLAGS.items() if flag in flags]
        for flag in FLAG_ARGS
    }
    # the help is read off the signatures when the parser is built
    monkeypatch.setattr(demos, "demo_mvt", lambda points=1, n=2: None)
    helps = _demo_flag_help()
    assert helps["n"] == ["mvt", "taylor"] and helps["eps_depth"] == ["dlim", "lhopital", "taylor"]


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


def test_demo_mvt_streams_under_a_memory_cap(tmp_path):
    # a 42 MB transcript in a child capped at 96 MB of address space: the
    # run holds about one report, and the spool moves to a temporary file
    resource = pytest.importorskip("resource")
    cap = 96 << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    out_path = tmp_path / "mvt.txt"
    with open(out_path, "wb") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "ordfield.cli", "demo", "mvt", "--points", "2000"],
            stdout=out,
            stderr=subprocess.PIPE,
            env=CHILD_ENV,
            preexec_fn=limit,
        )
    assert proc.returncode == 0, proc.stderr[-2000:]
    with open(out_path, "rb") as fh:
        assert sum(line.startswith(b"check ") for line in fh) == 416_000


def test_late_refusal_after_a_spill_leaves_no_transcript(tmp_path, capsys, monkeypatch):
    # taylor --n 30 spools more than SPILL_CHARS of reports before a value
    # too long to print refuses it: exit 2 writes nothing, on stdout or PATH
    import tempfile

    spills = []
    make = tempfile.TemporaryFile

    def spill(*args, **kwargs):
        spills.append(args)
        return make(*args, **kwargs)

    monkeypatch.setattr(tempfile, "TemporaryFile", spill)
    argv = ["demo", "taylor", "--n", "30"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert spills and out == ""
    assert err.startswith("ordfield: value too long to print") and err.count("\n") == 1
    path = tmp_path / "t.txt"
    assert main(argv + ["--transcript", str(path)]) == 2
    assert not path.exists()
    path.write_bytes(b"kept\n")
    assert main(argv + ["--transcript", str(path)]) == 2
    assert path.read_bytes() == b"kept\n"
    assert len(spills) == 3


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


def test_cli_subprocess_closed_stdout_exits_0_quietly():
    # the 1.3 MB transcript overruns the pipe, so the write meets the closed end
    proc = subprocess.Popen(
        [sys.executable, "-m", "ordfield.cli", "demo", "dlim", "--field", "q"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=CHILD_ENV,
    )
    assert proc.stdout.readline().startswith(b"header ")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert err == b""


@pytest.mark.parametrize("argv", [("eval", "--field", "z", "1"), ("demo", "dlim", "--field", "z")])
def test_unknown_field_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(": error: argument --field: unknown field 'z' (use q or qx)\n")


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
        run_demo(demo_dlim, Field.Q, eps_depth=16, delta_depth=16)[1],
        run_demo(demo_dlim, Field.QX, eps_depth=8, delta_depth=8)[1],
        run_demo(demo_mvt, points=10, eps_depth=4)[1],
        run_demo(demo_lhopital, eps_depth=16, delta_depth=16)[1],
        run_demo(demo_taylor, 2, eps_depth=16, delta_depth=16)[1],
        run_demo(demo_taylor, 3, eps_depth=16, delta_depth=16)[1],
    ]
    for text in transcripts:
        passing = {}
        for line in text.splitlines():
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


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--field", "q", "2^15000"),
        ("eval", "--field", "qx", "1 + 2^15000*x"),
        ("demo", "dlim", "--field", "q", "--delta-depth", "15000", "--eps-depth", "2"),
        ("demo", "taylor", "--n", "50"),
        # den[0] != 1: each coefficient is a Fraction when it is printed
        ("eval", "--field", "qx", "2^15000*x/3"),
    ],
)
def test_values_past_the_digit_limit_exit_2(argv, capsys):
    # a value with an integer too long to print refuses the run: it is not
    # a DomainError, which the referee would record as a failed check
    assert issubclass(ResourceError, OrdFieldError)
    assert not issubclass(ResourceError, DomainError)
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("ordfield: ") and err.count("\n") == 1
    assert f"{sys.get_int_max_str_digits()}-digit limit" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("demo", "dlim", "--field", "q", "--delta-depth", "15000", "--eps-depth", "2"),
        ("demo", "dlim", "--field", "q", "--eps-depth", "20000"),
        ("demo", "dlim", "--field", "qx", "--eps-depth", "20000"),
        ("demo", "mvt", "--eps-depth", "100000000"),
    ],
)
def test_unprintable_schedules_are_refused_before_any_work(argv, capsys):
    t0 = time.perf_counter()
    assert main(list(argv)) == 2
    assert time.perf_counter() - t0 < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("ordfield: schedule depth ") and err.count("\n") == 1
    assert f"{sys.get_int_max_str_digits()}-digit limit" in err


@pytest.mark.parametrize("kind", ["eps", "delta"])
def test_claim_file_unprintable_schedule_exits_2(kind, tmp_path, capsys):
    path = tmp_path / "deep.claim"
    path.write_text(
        "claim field=q fn=quotient(step_q,identity) point=0 candidate=0\n"
        "cert kind=verifier rule=const(1)\n"
        "cert kind=falsifier eps=1/2 witness=qstep(5/7)\n"
        f"schedule kind={kind} depth=999999999\n",
        encoding="utf-8",
    )
    t0 = time.perf_counter()
    assert main(["claim", str(path)]) == 2
    assert time.perf_counter() - t0 < 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert "schedule depth 999999999" in err


def test_schedule_depth_boundary_at_the_digit_limit():
    # at the default limit of 4,300 digits, 2^14284 is the deepest power
    # of two that prints
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for build in (
            lambda d: default_eps_schedule(Field.Q, d),
            lambda d: default_eps_schedule(Field.QX, d),
            lambda d: default_delta_schedule(Field.Q, d),
        ):
            deepest = build(14_284)[-1]
            assert len(render_elem(deepest)) == len("1/") + 4300
            with pytest.raises(ResourceError, match="4300-digit limit"):
                build(14_285)
        # a Q(x) delta schedule holds no such power, but is held to the same bound
        deepest = default_delta_schedule(Field.QX, 14_284)[-1]
        assert render_elem(deepest) == "1/18446744073709551616*x^14284"
        with pytest.raises(ResourceError, match="4300-digit limit"):
            default_delta_schedule(Field.QX, 14_285)
    finally:
        sys.set_int_max_str_digits(old)


_PRECEDENCE_CLAIM = (
    "claim field=q fn=step_q point=0 candidate=0\n"
    "cert kind=verifier rule=linear_cap(1,1/2)\n"
)


def _check_lines(out: str) -> list[str]:
    return [ln for ln in out.splitlines() if ln.startswith("check ")]


def test_claim_file_schedule_precedence(tmp_path, capsys):
    # schedules are file-global: a values= record beats a depth= record of
    # the same kind wherever it stands (2 epsilons x 24 probes = 48 checks;
    # depth=3 would give 4 epsilons and 96)
    values, depth = "schedule kind=eps values=1/2,1/4\n", "schedule kind=eps depth=3\n"
    path = tmp_path / "precedence.claim"
    for records in (values + depth, depth + values):
        path.write_text(_PRECEDENCE_CLAIM + records, encoding="utf-8")
        assert main(["claim", str(path)]) == 0
        checks = _check_lines(capsys.readouterr().out)
        assert len(checks) == 48, records
        assert {ln.split()[3] for ln in checks} == {"eps=1/2", "eps=1/4"}
    # of two depth= records of one kind the last wins: depth 1 is 1 and 1/2
    path.write_text(
        _PRECEDENCE_CLAIM + "schedule kind=eps depth=5\nschedule kind=eps depth=1\n",
        encoding="utf-8",
    )
    assert main(["claim", str(path)]) == 0
    checks = _check_lines(capsys.readouterr().out)
    assert len(checks) == 48
    assert {ln.split()[3] for ln in checks} == {"eps=1", "eps=1/2"}


def test_claim_file_default_schedules(tmp_path, capsys):
    # a kind with no schedule record: eps depth 128 in either field, delta
    # depth 512 in q and 64 in qx
    path = tmp_path / "defaults.claim"
    path.write_text(
        _PRECEDENCE_CLAIM
        + "claim field=q fn=diffq(step_q,0) point=0 candidate=0\n"
        "cert kind=falsifier eps=1/2 witness=qstep(5/7)\n"
        "claim field=qx fn=step_qx point=0 candidate=0\n"
        "cert kind=verifier rule=linear_cap(1,x)\n"
        "claim field=qx fn=diffq(step_qx,0) point=0 candidate=0\n"
        "cert kind=falsifier eps=x witness=qxstep(1,+)\n",
        encoding="utf-8",
    )
    assert main(["claim", str(path)]) == 0
    checks = _check_lines(capsys.readouterr().out)

    def column(claim: int, key: str) -> list[str]:
        # the key= values of one claim's checks, in order, without repeats
        vals = [
            kv.split("=", 1)[1]
            for ln in checks
            if ln.startswith(f"check claim={claim} ")
            for kv in ln.split()
            if kv.startswith(key + "=")
        ]
        return list(dict.fromkeys(vals))

    assert column(1, "eps") == [render_elem(e) for e in default_eps_schedule(Field.Q, 128)]
    assert column(2, "delta") == [render_elem(d) for d in default_delta_schedule(Field.Q, 512)]
    assert column(3, "eps") == [render_elem(e) for e in default_eps_schedule(Field.QX, 128)]
    assert column(4, "delta") == [render_elem(d) for d in default_delta_schedule(Field.QX, 64)]
    assert len(column(2, "delta")) == 513 and len(column(4, "delta")) == 130


_Q_CLAIM = "claim field=q fn=quotient(step_q,identity) point=0 candidate=0\n"
_QX_CLAIM = "claim field=qx fn=diffq(step_qx,0) point=0 candidate=0\n"
_QX_IDENTITY = "claim field=qx fn=identity point=0 candidate=0\n"
_Q_CERT = "cert kind=verifier rule=const(1)\n"
_EPS_2 = "schedule kind=eps depth=2\n"
_DELTA_2 = "schedule kind=delta depth=2\n"
_Q_DIFFQ = "claim field=q fn=diffq(step_q,0) point=0 candidate=0\n"
_NO_X_IN_Q = "variable 'x' is not allowed in field q (at position 0)"


def _too_deep(depth: int) -> str:
    limit = sys.get_int_max_str_digits()
    deepest = (10**limit).bit_length() - 1
    return f"schedule depth {depth} too deep: the {limit}-digit limit allows at most {deepest}"


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ("claim", _Q_CLAIM + "cert kind=verifier rule=nosuch(1)\n"),
            "unknown delta rule 'nosuch(1)'",
            id="unknown-delta-rule",
        ),
        pytest.param(
            ("claim", _Q_CLAIM + "cert kind=verifier rule=linear_cap(1)\n"),
            "unknown delta rule 'linear_cap(1)'",
            id="linear-cap-one-arg",
        ),
        pytest.param(
            ("claim", _Q_CLAIM + "cert kind=verifier rule=const\n"),
            "unknown delta rule 'const'",
            id="const-no-parens",
        ),
        pytest.param(
            ("claim", _QX_CLAIM + "cert kind=falsifier eps=x witness=qxstep(1,*)\n"),
            "bad probe sign '*'",
            id="qxstep-bad-sign",
        ),
        pytest.param(
            ("claim", _QX_CLAIM + "cert kind=falsifier eps=x witness=qxstep(x,+)\n"),
            "qx step probe pattern must be a positive unit",
            id="qxstep-not-a-unit",
        ),
        pytest.param(
            ("claim", _QX_CLAIM + "cert kind=falsifier eps=x witness=qxstep(-1,+)\n"),
            "qx step probe pattern must be a positive unit",
            id="qxstep-negative",
        ),
        pytest.param(
            ("claim", _Q_CLAIM + "cert kind=falsifier eps=1/2 witness=qstep(3/2)\n"),
            "step probe pattern 3/2 needs 1/2 < r^2 < 2",
            id="qstep-out-of-band",
        ),
        pytest.param(
            ("claim", _Q_CLAIM + "cert kind=falsifier eps=1/2 witness=nosuch(1)\n"),
            "unknown witness rule 'nosuch(1)'",
            id="unknown-witness-rule",
        ),
        pytest.param(
            ("claim", _Q_CLAIM + "cert kind\n"),
            "malformed record field near 'kind'",
            id="malformed-field",
        ),
        pytest.param(
            ("claim", _Q_CLAIM + _Q_CERT + "schedule kind=gamma depth=2\n"),
            "unknown schedule kind 'gamma'",
            id="unknown-schedule-kind",
        ),
        pytest.param(
            ("claim", _Q_CLAIM + _Q_CERT + "schedule kind=eps\n"),
            "schedule record needs depth= or values=",
            id="schedule-no-depth-or-values",
        ),
        pytest.param(
            ("claim", _Q_CLAIM + _Q_CERT + "lemma x=1\n"),
            "unknown record kind 'lemma'",
            id="unknown-record-kind",
        ),
        pytest.param(
            ("claim", "claim field=q fn=step_qx point=0 candidate=0\n" + _Q_CERT),
            "function name 'step_qx' lives in field qx",
            id="qx-fn-in-q-claim",
        ),
        pytest.param(
            ("claim", _Q_CLAIM + "cert kind=falsifier eps=0 witness=qstep(5/7)\n"),
            "falsifier epsilon must be strictly positive",
            id="falsifier-eps-zero",
        ),
        pytest.param(
            ("claim", _Q_CLAIM + "cert kind=falsifier eps=-1/2 witness=qstep(5/7)\n"),
            "falsifier epsilon must be strictly positive",
            id="falsifier-eps-negative",
        ),
        pytest.param(
            ("eval", "--field", "q", "0^-1"),
            "zero raised to a negative power",
            id="eval-zero-negative-power",
        ),
        # one integer grammar, -?[0-9]+, for every integer a claim file holds
        pytest.param(
            ("claim", "claim id=1_0" + _Q_CLAIM.removeprefix("claim") + _Q_CERT),
            "expected an integer, got '1_0'",
            id="claim-id-underscore",
        ),
        pytest.param(
            (
                "claim",
                "claim id=10" + _Q_CLAIM.removeprefix("claim") + "cert claim=+10 " + _Q_CERT[5:],
            ),
            "expected an integer, got '+10'",
            id="cert-claim-plus-sign",
        ),
        pytest.param(
            ("claim", _Q_CLAIM + _Q_CERT + "schedule kind=delta depth=0_3\n"),
            "expected an integer, got '0_3'",
            id="schedule-depth-underscore",
        ),
        pytest.param(
            ("claim", _Q_CLAIM + _Q_CERT + "schedule kind=delta depth=٣\n"),
            "expected an integer, got '٣'",
            id="schedule-depth-arabic-indic-digit",
        ),
        pytest.param(
            ("claim", "claim field=q fn=pow:1_0 point=0 candidate=0\n" + _Q_CERT),
            "expected an integer, got '1_0'",
            id="fn-exponent-underscore",
        ),
        pytest.param(
            ("eval", "--field", "q", "٣"),
            "expected digit, 'x', '-' or '(', got '٣' (at position 0)",
            id="eval-arabic-indic-digit",
        ),
        # refused before the work: each used to run on past a minute
        pytest.param(
            (
                "claim",
                "claim field=q fn=pow:100000000 point=0 candidate=0\n"
                + _Q_CERT
                + "schedule kind=eps depth=2\n",
            ),
            "power ^100000000 would exceed the 1048576-bit size limit",
            id="fn-power-past-the-size-limit",
        ),
        pytest.param(
            ("claim", _Q_CLAIM + "cert kind=verifier rule=const(0)\n"),
            "verifier delta must be strictly positive, got 0",
            id="verifier-delta-zero",
        ),
        # a non-positive verifier delta is refused alike in Q(x)
        pytest.param(
            ("claim", _QX_IDENTITY + "cert kind=verifier rule=const(0)\n" + _EPS_2),
            "verifier delta must be strictly positive, got 0",
            id="qx-verifier-delta-zero",
        ),
        pytest.param(
            ("claim", _QX_IDENTITY + "cert kind=verifier rule=const(-1)\n" + _EPS_2),
            "verifier delta must be strictly positive, got -1",
            id="qx-verifier-delta-negative",
        ),
        pytest.param(
            ("claim", _QX_IDENTITY + "cert kind=verifier rule=const(-1/x)\n" + _EPS_2),
            "verifier delta must be strictly positive, got -1/x",
            id="qx-verifier-delta-negative-infinite",
        ),
        pytest.param(
            ("claim", _QX_IDENTITY + "cert kind=verifier rule=linear_cap(1,-1)\n" + _EPS_2),
            "verifier delta must be strictly positive, got -1",
            id="qx-verifier-linear-cap-negative-slope",
        ),
        # cert values are read in the field of their claim
        pytest.param(
            ("claim", _Q_CLAIM + "cert kind=falsifier eps=x witness=qstep(5/7)\n"),
            _NO_X_IN_Q,
            id="q-cert-eps-x",
        ),
        pytest.param(
            ("claim", _Q_CLAIM + "cert kind=verifier rule=const(x)\n"),
            _NO_X_IN_Q,
            id="q-cert-rule-x",
        ),
        pytest.param(
            ("claim", _Q_CLAIM + "cert kind=falsifier eps=1/2 witness=qstep(x)\n"),
            _NO_X_IN_Q,
            id="q-cert-witness-x",
        ),
        # the rule's name and arity are checked before its arguments
        pytest.param(
            ("claim", _Q_CLAIM + "cert kind=verifier rule=nosuch(x)\n"),
            "unknown delta rule 'nosuch(x)'",
            id="q-unknown-rule-ahead-of-its-literal",
        ),
        # a step probe fits only its own field, also inside two_sided
        pytest.param(
            ("claim", _QX_CLAIM + "cert kind=falsifier eps=x witness=qstep(1)\n" + _DELTA_2),
            "witness rule 'qstep(1)' lives in field q",
            id="qstep-witness-in-qx-claim",
        ),
        pytest.param(
            ("claim", _Q_DIFFQ + "cert kind=falsifier eps=1/2 witness=qxstep(1,+)\n" + _DELTA_2),
            "witness rule 'qxstep(1,+)' lives in field qx",
            id="qxstep-witness-in-q-claim",
        ),
        pytest.param(
            (
                "claim",
                _Q_DIFFQ
                + "cert kind=falsifier eps=1/2 witness=two_sided(qstep(5/7),qxstep(1,+),0)\n"
                + _DELTA_2,
            ),
            "witness rule 'qxstep(1,+)' lives in field qx",
            id="two-sided-witness-with-a-qx-side-in-q-claim",
        ),
        # a two_sided side picks one level only, so it is itself no two_sided
        pytest.param(
            (
                "claim",
                _Q_CLAIM
                + "cert kind=falsifier eps=1/2"
                " witness=two_sided(two_sided(qstep(5/7),qstep(3/4),1),qstep(-5/7),0)\n",
            ),
            "witness rule two_sided takes no two_sided side",
            id="two-sided-witness-nested",
        ),
        # the function-name codec: the name and argument count first, then
        # each argument by its kind, then the function's own checks
        pytest.param(
            ("claim", "claim field=q fn=pow point=0 candidate=0\n" + _Q_CERT),
            "unknown function name 'pow'",
            id="fn-pow-without-exponent",
        ),
        pytest.param(
            ("claim", "claim field=q fn=identity:1 point=0 candidate=0\n" + _Q_CERT),
            "unknown function name 'identity:1'",
            id="fn-identity-with-an-argument",
        ),
        pytest.param(
            ("claim", "claim field=q fn=quotient(step_q) point=0 candidate=0\n" + _Q_CERT),
            "unknown function name 'quotient(step_q)'",
            id="fn-quotient-one-argument",
        ),
        # a one-argument name has the one form render_name writes, tag:arg
        pytest.param(
            ("claim", "claim field=q fn=pow(2) point=0 candidate=0\n" + _Q_CERT),
            "unknown function name 'pow(2)'",
            id="fn-pow-in-call-form",
        ),
        pytest.param(
            ("claim", "claim field=q fn=constant(3) point=0 candidate=0\n" + _Q_CERT),
            "unknown function name 'constant(3)'",
            id="fn-constant-in-call-form",
        ),
        pytest.param(
            ("claim", "claim field=q fn=pow:x point=0 candidate=0\n" + _Q_CERT),
            "expected an integer, got 'x'",
            id="fn-pow-exponent-not-an-integer",
        ),
        pytest.param(
            ("claim", "claim field=q fn=constant:x point=0 candidate=0\n" + _Q_CERT),
            _NO_X_IN_Q,
            id="fn-constant-x-in-q",
        ),
        pytest.param(
            ("claim", "claim field=q fn=diffq(step_q,x) point=0 candidate=0\n" + _Q_CERT),
            _NO_X_IN_Q,
            id="fn-diffq-point-x-in-q",
        ),
        pytest.param(
            ("claim", "claim field=q fn=pow:0 point=0 candidate=0\n" + _Q_CERT),
            "power exponent must be at least 1",
            id="fn-pow-exponent-zero",
        ),
        # an empty last argument is an argument: each name has one too many
        pytest.param(
            ("claim", _Q_CLAIM + "cert kind=falsifier eps=1/2 witness=qstep(5/7,)\n"),
            "unknown witness rule 'qstep(5/7,)'",
            id="witness-trailing-comma",
        ),
        pytest.param(
            (
                "claim",
                "claim field=q fn=quotient(step_q,identity,) point=0 candidate=0\n" + _Q_CERT,
            ),
            "unknown function name 'quotient(step_q,identity,)'",
            id="fn-trailing-comma",
        ),
        pytest.param(
            ("claim", _Q_CLAIM + "cert kind=verifier rule=linear_cap(1,1,)\n"),
            "unknown delta rule 'linear_cap(1,1,)'",
            id="rule-trailing-comma",
        ),
        # a Q(x) delta schedule is held to the Q depth bound, before it is built
        pytest.param(
            ("demo", "dlim", "--field", "qx", "--delta-depth", "1000000"),
            _too_deep(1_000_000),
            id="qx-demo-delta-depth-past-the-bound",
        ),
        pytest.param(
            (
                "claim",
                _QX_CLAIM
                + "cert kind=falsifier eps=x witness=qxstep(1,+)\n"
                + "schedule kind=delta depth=100000000\n",
            ),
            _too_deep(100_000_000),
            id="qx-claim-delta-depth-past-the-bound",
        ),
    ],
)
def test_refused_input_exits_2_with_one_line(argv, message, tmp_path, capsys):
    # a claim file is given by its text
    if argv[0] == "claim":
        path = tmp_path / "refused.claim"
        path.write_text(argv[1], encoding="utf-8")
        argv = ("claim", str(path))
    start = time.perf_counter()
    assert main(list(argv)) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"ordfield: {message}\n"


def test_claim_file_diffq_off_the_domain_at_a_fails_every_check(tmp_path, capsys):
    # f(a) raises DomainError: each probe fails (exit 1), none is refused
    path = tmp_path / "off.claim"
    path.write_text(
        "claim field=q fn=diffq(quotient(identity,identity),0) point=0 candidate=0\n"
        + _Q_CERT
        + "schedule kind=eps depth=2\n"
    )
    assert main(["claim", str(path)]) == 1
    out = capsys.readouterr().out
    checks = [line for line in out.splitlines() if line.startswith("check ")]
    assert checks and all("verdict=fail" in line for line in checks)


def test_claim_file_cert_binds_to_the_claim_it_names(tmp_path, capsys):
    # claim=1 names the claim with candidate 0, which the falsifier refutes;
    # the last claim above the cert has candidate 1
    path = tmp_path / "named.claim"
    claims = (
        "claim id=1 field=q fn=quotient(step_q,identity) point=0 candidate=0\n"
        "claim id=2 field=q fn=quotient(step_q,identity) point=0 candidate=1\n"
    )
    path.write_text(claims + "cert claim=1 kind=falsifier eps=1/2 witness=qstep(5/7)\n")
    assert main(["claim", str(path)]) == 0
    out = capsys.readouterr().out
    assert "claim id=1 field=q fn=quotient(step_q,identity) point=0 candidate=0\n" in out
    assert "candidate=1" not in out
    path.write_text(claims + "cert claim=7 kind=falsifier eps=1/2 witness=qstep(5/7)\n")
    assert main(["claim", str(path)]) == 2
    assert capsys.readouterr() == ("", "ordfield: cert names unknown claim 7\n")


def test_readme_cli_block_runs(monkeypatch, capsys):
    # each `ordfield ...` line of README's CLI block, run from the repo root
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("ordfield ")]
    assert len(lines) >= 8
    monkeypatch.chdir(REPO)
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
        capsys.readouterr()
