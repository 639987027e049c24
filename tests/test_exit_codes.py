"""Properties of the exit-code contract: a parser given any text returns
or raises an OrdFieldError, a claim file built from the name tables
exits 0, 1 or 2 with the output that code promises, and the plain argv
reader either declines an argv or reads it as the argparse parser does.

The sizes drawn are bounded for run time only: 200 characters of text,
names nested three deep, and schedule depths -1..8."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordfield import cli, demos
from ordfield.cli import _read_plain, build_parser, main
from ordfield.errors import OrdFieldError
from ordfield.fields import Field
from ordfield.functions import FAMILIES
from ordfield.literals import parse_elem
from ordfield.transcript import parse_claim_file

_SETTINGS = settings(derandomize=True, database=None, deadline=None)

# the characters of a literal, and the words a record is made of
_LITERAL_CHARS = "0123456789x+-*/^() −"
_WORDS = [
    "claim ", "cert ", "schedule ", "\n", "# ", "=", ",", " ",
    "id=", "claim=", "field=q ", "field=qx ", "fn=", "point=", "candidate=",
    "kind=verifier ", "kind=falsifier ", "kind=eps ", "kind=delta ",
    "rule=", "eps=", "witness=", "note=", "depth=", "values=",
]  # fmt: skip
_WORDS += sorted(tag for table in FAMILIES.values() for tag in table)

_text = st.lists(
    st.one_of(
        st.sampled_from(_WORDS),
        st.text(_LITERAL_CHARS, max_size=6),
        st.text(max_size=3),
    ),
    max_size=40,
).map(lambda parts: "".join(parts)[:200])


@_SETTINGS
@given(_text)
def test_parsers_return_or_refuse_any_text(text):
    for parse in (
        lambda: parse_elem(Field.Q, text),
        lambda: parse_elem(Field.QX, text),
        lambda: parse_claim_file(text),
    ):
        try:
            parse()
        except OrdFieldError:
            pass


# the arguments a name may take: a literal from a small pool, without x
# in Q, an integer of -2..5, a sign, or a nested name of the family its
# kind names.  Hypothesis favours the first entries of a pool, so 0 and -1,
# which most rules refuse, come last and more drawn files reach the referee
_LITERALS = ("1", "1/2", "5/7", "x", "1+x", "1/x", "0", "-1")
_POOL = {Field.Q: tuple(s for s in _LITERALS if "x" not in s), Field.QX: _LITERALS}
_KIND_FAMILY = {"fn": "function name", "witness": "witness rule"}


def _names(field: Field, family: str, depth: int = 3):
    """Names of the members of family that live in field, as render_name
    writes them, with every argument drawn by its kind; a nested name is
    one level shallower."""

    def named(cls):
        args = []
        for kind in cls.ARGS:
            if kind in _KIND_FAMILY:
                if depth == 0:
                    return st.nothing()
                args.append(_names(field, _KIND_FAMILY[kind], depth - 1))
            elif kind == "int":
                args.append(st.integers(-2, 5).map(str))
            elif kind == "sign":
                args.append(st.sampled_from("+-"))
            else:
                args.append(st.sampled_from(_POOL[field]))
        if not args:
            return st.just(cls.TAG)
        if len(args) == 1 and getattr(cls, "COLON", False):
            return args[0].map(lambda a: f"{cls.TAG}:{a}")
        return st.tuples(*args).map(lambda a: f"{cls.TAG}({','.join(a)})")

    members = FAMILIES[family].values()
    return st.one_of([named(cls) for cls in members if getattr(cls, "field", field) is field])


def _block(field: Field):
    """A claim record of field and one or two certs of that claim."""
    literal = st.sampled_from(_POOL[field])
    claim = st.builds(
        f"claim field={field.value} fn={{}} point={{}} candidate={{}}\n".format,
        _names(field, "function name"),
        literal,
        literal,
    )
    cert = st.one_of(
        st.builds("cert kind=verifier rule={}\n".format, _names(field, "delta rule")),
        st.builds(
            "cert kind=falsifier eps={} witness={}\n".format,
            literal,
            _names(field, "witness rule"),
        ),
    )
    return st.builds(lambda c, certs: c + "".join(certs), claim, st.lists(cert, min_size=1, max_size=2))


_schedules = st.builds(
    "schedule kind=eps depth={}\nschedule kind=delta depth={}\n".format,
    st.integers(-1, 8),
    st.integers(-1, 8),
)
_claim_file = st.builds(
    lambda blocks, schedules: "".join(blocks) + schedules,
    st.lists(st.one_of([_block(field) for field in Field]), min_size=1, max_size=2),
    _schedules,
)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(_SETTINGS, max_examples=100)
@given(_claim_file)
def test_claim_files_keep_the_exit_code_contract(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "drawn.claim"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run(["claim", str(path)])
    assert code in (0, 1, 2)
    if code == 1:
        reports = [ln for ln in out.splitlines() if not ln.startswith("summary ")]
        assert any(ln.endswith(" verdict=fail") for ln in reports)
    if code == 2:
        assert out == ""
        assert err.startswith("ordfield: ") and err.count("\n") == 1


# argv words: the commands and demos, each demo flag, its 3-letter prefix
# and a --flag=value form with a value or empty, the options every parser
# knows, and values: some that int reads though they are not plain digits,
# and some that start with '-' or with a space before a '-'
_DEMO_FLAGS = ["field", "eps-depth", "delta-depth", "points", "seed", "candidate", "n", "transcript"]
_VALUES = ["3", "0", "qx", "q", "1/2", " 3", "3_0", "+3", "\u0663", "-3/2", " -1"]
_ARGV_WORDS = [
    "demo", "eval", "claim", *demos.DEMOS,
    *(f"--{flag}" for flag in _DEMO_FLAGS),
    *(f"--{flag[:3]}" for flag in _DEMO_FLAGS),
    *(f"--{flag}={value}" for flag in _DEMO_FLAGS for value in ("3", "qx", "-1/2", "")),
    "-h", "--help", "--version", "--",
    *(str(i) for i in range(-2, 9)), "x", *_VALUES,
]  # fmt: skip


def _outcome(parse) -> tuple:
    """What parse() returns, or the exit code, stdout and stderr of the
    SystemExit it raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return ("parsed", parse())
        except SystemExit as exc:
            return ("exit", exc.code, out.getvalue(), err.getvalue())


_words = st.lists(st.sampled_from(_ARGV_WORDS), max_size=8)
_pairs = st.lists(
    st.tuples(
        st.sampled_from([f"--{flag}" for flag in _DEMO_FLAGS] + [f"--{flag[:3]}" for flag in _DEMO_FLAGS]),
        st.sampled_from(_VALUES),
    ),
    max_size=4,
).map(lambda pairs: [word for pair in pairs for word in pair])
# any words, or a command followed by any words, or a demo followed by
# flags each with a value, which parse more often, or those flags before
# the demo, or with their first flag repeated
_argv = st.one_of(
    _words,
    st.tuples(st.sampled_from(["demo", "eval", "claim"]), _words).map(lambda t: [t[0], *t[1]]),
    st.tuples(st.sampled_from(demos.DEMOS), _pairs).map(lambda t: ["demo", t[0], *t[1]]),
    st.tuples(st.sampled_from(demos.DEMOS), _pairs).map(lambda t: ["demo", *t[1], t[0]]),
    st.tuples(st.sampled_from(demos.DEMOS), _pairs).map(lambda t: ["demo", t[0], *t[1], *t[1][:2]]),
)


@settings(_SETTINGS, max_examples=500)
@given(_argv)
def test_the_plain_reader_declines_or_parses_as_the_full_parser(argv):
    plain = _read_plain(argv)
    if plain is not None:
        parsed = _outcome(lambda: build_parser().parse_args(argv))
        assert parsed[0] == "parsed", (argv, parsed)
        assert list(vars(plain).items()) == list(vars(parsed[1]).items())


def test_the_plain_reader_leaves_all_but_a_plain_argv_to_argparse():
    # each of these argparse reads, refuses or reads its own way; the
    # reader owns none of them, so every help, usage and error byte stays
    # argparse's
    for argv in (
        "", "-h", "demo -h", "demo dlim --help", "--version", "demo dlim --version",
        "demo -- dlim", "demo dlim --", "demo dlim --fi q", "demo dlim --bogus 1",
        "demo dlim --n 2 --n 3", "demo dlim --n=2 --n 3", "demo lhopital --candidate -3",
        "demo lhopital --candidate -3/2", "demo dlim --transcript", "demo", "demo dlim mvt",
        "demo foo", "eval 1", "eval --field q", "eval --field z 1", "demo dlim --eps-depth x",
        "claim", "claim a b", "bogus",
    ):  # fmt: skip
        assert _read_plain(argv.split()) is None, argv


def test_each_commands_help_is_the_full_parsers():
    # the reader declines help, so main prints the one parser's
    for argv in (["demo", "-h"], ["eval", "-h"], ["claim", "-h"], ["-h"]):
        printed = _outcome(lambda: main(argv))
        assert printed == _outcome(lambda: build_parser().parse_args(argv))
        assert printed[:2] == ("exit", 0)
        if argv[0] == "-h":
            assert "{demo,eval,claim}" in printed[2]
        else:
            assert printed[2].startswith(f"usage: ordfield {argv[0]} [-h]")


_ROOT = Path(__file__).resolve().parents[1]
_GOLDEN = json.loads((_ROOT / "bench" / "golden.json").read_text(encoding="utf-8"))
_BENCH_ARGVS = [run["argv"].split() for run in _GOLDEN.values()]
_BENCH_ARGVS += [["demo", "mvt", "--points", "50", "--seed", str(seed)] for seed in range(1, 11)]


@pytest.mark.parametrize("argv", _BENCH_ARGVS, ids=" ".join)
def test_the_benchmark_argvs_are_read_without_argparse(argv, monkeypatch):
    # a table change that sent these back to argparse would cost each
    # invocation the parser's construction again
    def refuse():
        raise AssertionError(f"argparse built for {argv}")

    monkeypatch.setattr(cli, "build_parser", refuse)
    monkeypatch.setattr(demos, "run", lambda name, header, steps, out: 0)
    monkeypatch.chdir(_ROOT)
    assert main(argv) == 0
