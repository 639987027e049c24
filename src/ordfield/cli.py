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

import argparse
import os
import sys

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
        raise argparse.ArgumentTypeError(f"unknown field {s!r} (use q or qx)") from None


def _demo_args(demo: argparse.ArgumentParser) -> None:
    demo.add_argument("name", choices=demos.DEMOS)
    # a demo takes the flags named in its signature; a flag left out takes
    # the demo's own default.  Each flag's help names the demos that take it.
    takes = {name: _lookup_demo(name)[1] for name in demos.DEMOS}

    def flag(dest: str, text: str, **kwargs) -> None:
        names = ", ".join(name for name in demos.DEMOS if dest in takes[name])
        demo.add_argument("--" + dest.replace("_", "-"), help=f"{text} ({names})", **kwargs)

    flag("field", "q or qx", type=_field_arg)
    flag("eps_depth", "verifier schedule depth", type=int)
    flag("delta_depth", "falsifier schedule depth", type=int)
    flag("points", "interior sample count", type=int)
    flag("seed", "seed for randomized interior sampling", type=int)
    flag("candidate", "claimed limit value to refute; a negative one as --candidate=-3/2")
    flag("n", "Taylor order n >= 2", type=int)
    demo.add_argument("--transcript", default=None, help="write the transcript to PATH")


def _eval_args(ev: argparse.ArgumentParser) -> None:
    ev.add_argument("--field", type=_field_arg, required=True)
    ev.add_argument("expr")


def _claim_args(cl: argparse.ArgumentParser) -> None:
    cl.add_argument("file")
    cl.add_argument("--transcript", default=None, help="write the transcript to PATH")


# each command with its help and the function that adds its arguments
_COMMANDS = {
    "demo": ("run a counterexample demonstration", _demo_args),
    "eval": ("evaluate a field-element literal", _eval_args),
    "claim": ("referee a serialized claim file", _claim_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command's name and help, with the arguments of
    `command` alone when it names one (main passes argv[0]), else of all
    three.  argparse reads only the subparser it dispatches to, so usage,
    help, errors and exit codes are the full parser's."""
    ap = argparse.ArgumentParser(prog="ordfield", description=__doc__)
    ap.add_argument("--version", action="version", version=f"ordfield {VERSION}")
    sub = ap.add_subparsers(dest="command", required=True)
    full = command not in _COMMANDS
    for name, (text, add_args) in _COMMANDS.items():
        parser = sub.add_parser(name, help=text)
        if full or name == command:
            add_args(parser)
    return ap


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
        given["candidate"] = parse_elem(Field.Q, given["candidate"])
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
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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
