"""Command-line front end.

    ordfield demo {dlim|mvt|lhopital|taylor} [flags]
    ordfield eval --field {q|qx} EXPR
    ordfield claim FILE

Exit codes: 0 = all verdicts as expected, 1 = a verdict violation,
2 = usage or parse error.  Transcripts go to stdout unless --transcript
PATH is given; identical invocations produce byte-identical transcripts.
A run that exits 2 writes no transcript: records wait in a spool until
the run returns, its first SPILL_CHARS characters in memory and the rest
in a temporary file.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import demos
from .errors import DomainError, OrdFieldError, ParseError
from .fields import Field, render_elem, sign_of
from .laurent import RatFunc, valuation
from .literals import parse_elem
from .transcript import VERSION, parse_claim_file

USAGE_ERROR = 2
# a spool keeps this many characters in memory; the rest go to a temporary file
SPILL_CHARS = 1 << 20

# the arguments of `demo` that are not demo flags
_NOT_DEMO_FLAGS = ("command", "name", "transcript")


def _field_arg(s: str) -> Field:
    try:
        return Field(s)
    except ValueError:
        import argparse

        raise argparse.ArgumentTypeError(f"unknown field {s!r} (use q or qx)") from None


# Each command with its help and its arguments in the order the parser adds
# them: a positional by its dest, a flag by its option string, each with the
# callable that converts its text and the rest of its add_argument keywords.
# The plain reader and build_parser both read this table.
_TRANSCRIPT = ("--transcript", str, {"help": "write the transcript to PATH"})
_COMMANDS = {
    "demo": ("run a counterexample demonstration", (
        ("name", str, {"choices": demos.DEMOS}),
        ("--field", _field_arg, {"help": "q or qx"}),
        ("--eps-depth", int, {"help": "verifier schedule depth"}),
        ("--delta-depth", int, {"help": "falsifier schedule depth"}),
        ("--points", int, {"help": "interior sample count"}),
        ("--seed", int, {"help": "seed for randomized interior sampling"}),
        ("--candidate", str, {"help": "claimed limit value to refute; a negative one as --candidate=-3/2"}),
        ("--n", int, {"help": "Taylor order n >= 2"}),
        _TRANSCRIPT,
    )),
    "eval": ("evaluate a field-element literal", (
        ("--field", _field_arg, {"required": True}),
        ("expr", str, {}),
    )),
    "claim": ("referee a serialized claim file", (
        ("file", str, {}),
        _TRANSCRIPT,
    )),
}  # fmt: skip


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def build_parser():
    """The argparse parser of every command, which owns every usage, help
    and error byte and exit code 2 for a bad argv.  main builds it only
    when _read_plain declines argv.  A flag given twice is refused, as a
    claim-file record that repeats a key is, not read as its last value."""
    import argparse

    class StoreOnce(argparse.Action):
        def __call__(self, parser, namespace, values, option_string=None):
            if getattr(namespace, self.dest, None) is not None:
                raise argparse.ArgumentError(self, "given more than once")
            setattr(namespace, self.dest, values)

    ap = argparse.ArgumentParser(prog="ordfield", description=__doc__)
    ap.add_argument("--version", action="version", version=f"ordfield {VERSION}")
    sub = ap.add_subparsers(dest="command", required=True)
    # a demo takes the flags named in its signature; a flag left out takes
    # the demo's own default.  Each flag's help names the demos that take it.
    takes = {name: _lookup_demo(name)[1] for name in demos.DEMOS}
    for command, (text, args) in _COMMANDS.items():
        parser = sub.add_parser(command, help=text)
        for name, convert, kwargs in args:
            dest = _dest(name)
            if command == "demo" and dest not in _NOT_DEMO_FLAGS:
                names = ", ".join(demo for demo in demos.DEMOS if dest in takes[demo])
                kwargs = {**kwargs, "help": f"{kwargs['help']} ({names})"}
            if name[0] == "-":
                kwargs = {**kwargs, "action": StoreOnce}
            parser.add_argument(name, type=convert, **kwargs)
    return ap


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The attributes build_parser().parse_args(argv) gives, read without
    argparse when argv is plainly well-formed: a command, then each of its
    positionals and at most once each of its flags, in full, as
    `--flag VALUE` or `--flag=VALUE`.  None for anything else (help,
    --version, --, an abbreviated, unknown or repeated flag, any other
    token that starts with '-', a missing or extra positional, a missing
    required flag, a value its converter or choices refuse), which
    argparse then parses as it always did."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    args = _COMMANDS[argv[0]][1]
    flags = {name for name, _, _ in args if name[0] == "-"}
    given: dict[str, str] = {}
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        option, eq, text = token.partition("=")
        if option not in flags or option in given:
            return None
        if not eq:
            text = next(tokens, None)
            if text is None or text.startswith("-"):
                return None
        given[option] = text
    if len(positionals) != len(args) - len(flags):
        return None
    texts = iter(positionals)
    attrs = {"command": argv[0]}
    for name, convert, kwargs in args:
        text = given.get(name) if name in flags else next(texts)
        if text is None:
            if kwargs.get("required"):
                return None
            value = None
        else:
            try:
                value = convert(text)
            except Exception:  # argparse reports it, or raises it, as before
                return None
            if "choices" in kwargs and value not in kwargs["choices"]:
                return None
        attrs[_dest(name)] = value
    return SimpleNamespace(**attrs)


def _lookup_demo(name: str):
    """The demo `name` and the flags it takes, the parameter names of the
    function it wraps.  It is looked up when called, so a rebound
    demo_<name> is the one run."""
    demo = fn = getattr(demos, f"demo_{name}")
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    code = fn.__code__
    return demo, code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]


class _Spool:
    """A text sink that keeps what it is given until `copy_to`.  The head,
    the chunks that fit in SPILL_CHARS together, stays in memory; the
    first chunk that does not fit, and every chunk after it, go to an
    anonymous temporary file, so a transcript past SPILL_CHARS passes
    through the disk only beyond its head."""

    def __init__(self):
        self.chunks: list[str] = []
        self.size = 0
        self.file = None

    def write(self, text: str) -> None:
        if self.file is None:
            if self.size + len(text) <= SPILL_CHARS:
                self.chunks.append(text)
                self.size += len(text)
                return
            import tempfile

            self.file = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
        self.file.write(text)

    def copy_to(self, dst) -> None:
        dst.writelines(self.chunks)
        if self.file is not None:
            import shutil

            self.file.seek(0)
            shutil.copyfileobj(self.file, dst)

    def close(self) -> None:
        if self.file is not None:
            self.file.close()


def _run_demo(args, out) -> int:
    demo, takes = _lookup_demo(args.name)
    given = {k: v for k, v in vars(args).items() if k not in _NOT_DEMO_FLAGS and v is not None}
    refused = [k for k in given if k not in takes]
    if refused:
        flags = ", ".join("--" + k.replace("_", "-") for k in refused)
        raise DomainError(f"demo {args.name} does not take {flags}")
    if "candidate" in given:
        try:
            given["candidate"] = parse_elem(Field.Q, given["candidate"])
        except OrdFieldError as exc:
            raise ParseError(f"--candidate: {exc}") from None
    return demo(**given, out=out)


def _run_eval(args) -> int:
    value = parse_elem(args.field, args.expr)
    print(f"value {render_elem(value, compact=False)}")
    print(f"sign {sign_of(value)}")
    if isinstance(value, RatFunc):
        print(f"valuation {valuation(value) if value else 'undef'}")
    return 0


def _run_claim(args, out) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"claim file {args.file} is not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None
    return demos.run("claim-file", [], parse_claim_file(text), out)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain(argv) or build_parser().parse_args(argv)
    code = 0  # eval's: it prints as it goes, so a closed pipe meets it before any code
    try:
        if args.command == "eval":
            return _run_eval(args)
        run_command = _run_demo if args.command == "demo" else _run_claim
        spool = _Spool()
        try:
            code = run_command(args, spool)
            if args.transcript is None:
                spool.copy_to(sys.stdout)
            else:
                with open(args.transcript, "w", encoding="utf-8") as fh:
                    spool.copy_to(fh)
        finally:
            spool.close()
        return code
    except OrdFieldError as exc:
        print(f"ordfield: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # downstream pipe closed early (e.g. | head); exit quietly with the
        # run's code, computed before the spool wrote a byte
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return code
    except OSError as exc:
        print(f"ordfield: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
