"""Command-line front end.

    ordfield demo {dlim|mvt|lhopital|taylor} [flags]
    ordfield eval --field {q|qx} EXPR
    ordfield claim FILE

Exit codes: 0 = all verdicts as expected, 1 = a verdict violation,
2 = usage or parse error.  Transcripts go to stdout unless --transcript
PATH is given; identical invocations produce byte-identical transcripts.
"""

from __future__ import annotations

import argparse
import os
import sys

from .claims import FalsifierCert, default_delta_schedule, default_eps_schedule
from .demos import Check, demo_dlim, demo_lhopital, demo_mvt, demo_taylor, run
from .errors import OrdFieldError
from .fields import Field, render_elem, sign_of
from .laurent import RatFunc, valuation
from .literals import parse_elem
from .transcript import ClaimFile, Transcript, VERSION, parse_claim_file

USAGE_ERROR = 2


def _field_arg(s: str) -> Field:
    try:
        return Field(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown field {s!r} (use q or qx)") from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ordfield", description=__doc__)
    ap.add_argument("--version", action="version", version=f"ordfield {VERSION}")
    sub = ap.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a counterexample demonstration")
    demo.add_argument("name", choices=["dlim", "mvt", "lhopital", "taylor"])
    demo.add_argument("--field", type=_field_arg, default=Field.Q, help="q or qx (dlim only)")
    demo.add_argument("--eps-depth", type=int, default=None, help="verifier schedule depth")
    demo.add_argument("--delta-depth", type=int, default=None, help="falsifier schedule depth")
    demo.add_argument("--points", type=int, default=100, help="interior sample count (mvt)")
    demo.add_argument("--seed", type=int, default=0, help="seed for randomized interior sampling")
    demo.add_argument("--candidate", default=None, help="claimed limit value to refute")
    demo.add_argument("--n", type=int, default=2, help="Taylor order (>= 2)")
    demo.add_argument("--transcript", default=None, help="write the transcript to PATH")

    ev = sub.add_parser("eval", help="evaluate a field-element literal")
    ev.add_argument("--field", type=_field_arg, required=True)
    ev.add_argument("expr")

    cl = sub.add_parser("claim", help="referee a serialized claim file")
    cl.add_argument("file")
    cl.add_argument("--transcript", default=None, help="write the transcript to PATH")
    return ap


def _emit(transcript: Transcript, path: str | None) -> None:
    text = transcript.render()
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _run_demo(args) -> int:
    kwargs = {}
    if args.eps_depth is not None:
        kwargs["eps_depth"] = args.eps_depth
    if args.delta_depth is not None and args.name != "mvt":
        kwargs["delta_depth"] = args.delta_depth
    candidate = None
    if args.candidate is not None:
        candidate = parse_elem(Field.Q, args.candidate)
    if args.name == "dlim":
        code, tr = demo_dlim(field=args.field, **kwargs)
    elif args.name == "mvt":
        code, tr = demo_mvt(points=args.points, seed=args.seed, **kwargs)
    elif args.name == "lhopital":
        code, tr = demo_lhopital(candidate=candidate, **kwargs)
    else:
        code, tr = demo_taylor(args.n, candidate=candidate, **kwargs)
    _emit(tr, args.transcript)
    return code


def _run_eval(args) -> int:
    value = parse_elem(args.field, args.expr)
    print(f"value {render_elem(value, compact=False)}")
    print(f"sign {sign_of(value)}")
    if isinstance(value, RatFunc):
        print(f"valuation {valuation(value) if value else 'undef'}")
    return 0


def _claim_schedule(contents: ClaimFile, cert) -> list:
    fld = cert.claim.field
    if isinstance(cert, FalsifierCert):
        return contents.delta_values or default_delta_schedule(fld, contents.delta_depth)
    return contents.eps_values or default_eps_schedule(fld, contents.eps_depth)


def _run_claim(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        contents = parse_claim_file(fh.read())
    tr = Transcript()
    tr.header([("demo", "claim-file")])
    steps = [Check(cert, _claim_schedule(contents, cert)) for cert in contents.certs]
    code = run(tr, "claim-file", steps)
    _emit(tr, args.transcript)
    return code


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "demo":
            return _run_demo(args)
        if args.command == "eval":
            return _run_eval(args)
        return _run_claim(args)
    except OrdFieldError as exc:
        print(f"ordfield: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # downstream pipe closed early (e.g. | head); exit quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"ordfield: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
