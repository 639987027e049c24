"""Line-delimited transcript records and the claim-file format.

One exact check per line, every number in exact textual form, no
timestamps anywhere: identical invocations produce byte-identical
transcripts, and every verdict can be recomputed from its own line plus
the claim line it references.  Claim files fed to `ordfield claim` use
the same record syntax plus `schedule` records; `parse_claim_file` turns
one into the `Check` steps that `demos.run` referees, schedules built.

Record kinds:

    header  tool/version/demo and the schedule parameters
    claim   id, field, fn, point, candidate
    cert    claim, kind (verifier|falsifier), rule/eps+witness, note
    check   one referee check (eps, delta, w, fw, dist, sep, verdict)
    report  per-certificate outcome and epistemic tag
    value   a plain exact evaluation (used by demos)
    bound   an exact squaring justification for a radius
    mvt     the mean-value gap record
    summary final verdict and exit status
"""

from __future__ import annotations

import functools

from .claims import (
    DEFAULT_DELTA_DEPTH,
    DEFAULT_EPS_DEPTH,
    Check,
    FalsifierCert,
    LimitClaim,
    Probe,
    RefereeReport,
    VerifierCert,
    default_delta_schedule,
    default_eps_schedule,
)
from .errors import ParseError
from .fields import Field, render_elem
from .functions import parse_name, render_name
from .literals import parse_elem, parse_int
from .rationals import render_rat

TOOL = "ordfield"
VERSION = "0.1.0"
_CERT_KINDS = {cert.KIND: cert for cert in (VerifierCert, FalsifierCert)}
# the keys each claim-file record reads; a record with any other key is refused
_CLAIM_KEYS = ("id", "field", "fn", "point", "candidate")
_SCHEDULE_KEYS = ("kind", "depth", "values")
_CERT_KEYS = {kind: ("claim", "kind", *cert.RECORD_KEYS) for kind, cert in _CERT_KINDS.items()}


def _fmt(v) -> str:
    if v is None:
        return "undef"
    if isinstance(v, bool):
        return "pass" if v else "fail"
    if isinstance(v, (int, str)):
        return str(v)
    if isinstance(v, Field):
        return v.value
    return render_elem(v)


def kv_line(kind: str, pairs: list[tuple[str, object]]) -> str:
    """Render one record; a `note` value may contain spaces and must come
    last."""
    parts = [kind]
    for i, (k, v) in enumerate(pairs):
        s = _fmt(v)
        if k == "note":
            if i != len(pairs) - 1:
                raise ValueError("note must be the last field")
        elif " " in s:
            raise ValueError(f"record value for {k} contains a space: {s!r}")
        parts.append(f"{k}={s}")
    return " ".join(parts)


def parse_kv_line(line: str) -> tuple[str, dict[str, str]]:
    """A record's kind and its key=value pairs; a key may appear once."""
    body = line.strip()
    kind, _, rest = body.partition(" ")
    out: dict[str, str] = {}
    while rest:
        key, eq, tail = rest.partition("=")
        if not eq or " " in key:
            raise ParseError(f"malformed record field near {rest!r}")
        if key in out:
            raise ParseError(f"repeated key {key}= in record {body!r}")
        if key == "note":
            out[key] = tail
            break
        val, _, rest = tail.partition(" ")
        out[key] = val
    return kind, out


class Transcript:
    """Numbers claims across a run and holds the record lines added since
    the last `render`, which hands them out and forgets them.  A claim is
    numbered by the text of its record after `id=`, so a repeated claim
    keeps its first id and the map holds no claim object."""

    def __init__(self):
        self._lines: list[str] = []
        self._claim_ids: dict[str, int] = {}

    def add(self, kind: str, pairs: list[tuple[str, object]]) -> None:
        self._lines.append(kv_line(kind, pairs))

    def header(self, pairs: list[tuple[str, object]]) -> None:
        self.add("header", [("tool", TOOL), ("version", VERSION)] + pairs)

    def claim_id(self, claim: LimitClaim) -> int:
        pairs = [
            ("field", claim.field),
            ("fn", render_name(claim.fn)),
            ("point", claim.point),
            ("candidate", claim.candidate),
        ]
        text = kv_line("claim", pairs).partition(" ")[2]
        cid = self._claim_ids.get(text)
        if cid is None:
            cid = self._claim_ids[text] = len(self._claim_ids) + 1
            self._lines.append(f"claim id={cid} {text}")
        return cid

    def add_report(self, report: RefereeReport) -> tuple[int, bool]:
        """Add report's cert, check and report records; return its number
        of checks and whether it passed, counted as its lines are built."""
        cert = report.cert
        cid = self.claim_id(cert.claim)
        head = [("claim", cid), ("kind", cert.KIND)]
        self.add("cert", head + cert.record_pairs())
        blocks, checks, passed = _check_lines(cid, report)
        self._lines.extend(blocks)
        self.add("report", head + [("tag", cert.TAG), ("checks", checks), ("verdict", passed)])
        return checks, passed

    def summary(self, demo: str, checks: int, exit_code: int, verdict: bool) -> None:
        self.add(
            "summary",
            [
                ("demo", demo),
                ("claims", len(self._claim_ids)),
                ("checks", checks),
                ("exit", exit_code),
                ("verdict", verdict),
            ],
        )

    def render(self) -> str:
        """The lines added since the last render, each ending in a newline.
        An empty last line makes the join end in that newline, so the text
        is built once, with no copy to append it."""
        lines, self._lines = self._lines, []
        lines.append("")
        return "\n".join(lines)


_VERDICT = (" verdict=fail", " verdict=pass")


def _check_lines(cid: int, report: RefereeReport) -> tuple[list[str], int, bool]:
    """The `check` records of report, one per (use, probe of its row), as
    blocks of lines with no final newline; the number of checks; and
    whether report passed (a check, and no verdict fails).  The lines are
    the bytes kv_line("check", ...) gives for the fields claim, kind, eps,
    delta, w, fw, dist, sep, verdict, each value rendered by the claim
    field's one renderer (render_rat in Q, render_elem in Q(x)): a probe's
    tail once, a row's delta and `delta + tail` pieces once, when a use
    first needs the row, and an eps once per run of uses that hold that
    same object, so once per falsifier.  A use whose verdicts all pass is
    one block, a use with a fail one block per line."""
    render = render_rat if report.cert.claim.field is Field.Q else render_elem
    tails = [_probe_tail(p, render) for p in report.probes]
    pieces: list = [None] * len(report.rows)
    blocks = []
    checks = 0
    failed = False
    start = f"check claim={cid} kind={report.cert.KIND} eps="
    # no eps is None (the referee refuses one that is not positive), so
    # the first use renders its own
    last = head = None
    for eps, ri, verdicts in report.uses:
        if not verdicts:
            continue
        checks += len(verdicts)
        if eps is not last:
            last, head = eps, _guard(start + render(eps), 3)
        row = pieces[ri]
        if row is None:
            delta, indices = report.rows[ri]
            delta_s = _guard(" delta=" + render(delta), 1)
            row = pieces[ri] = [delta_s + tails[i] for i in indices]
        if all(verdicts):
            blocks.append(head + (" verdict=pass\n" + head).join(row) + " verdict=pass")
        else:
            failed = True
            blocks.extend([head + piece + _VERDICT[ok] for piece, ok in zip(row, verdicts)])
    return blocks, checks, checks > 0 and not failed


def _probe_tail(p: Probe, render) -> str:
    """p's w-fw-dist-sep tail, each value rendered by render.  dist takes
    fw's text when it is fw itself, undef included, and sep w's when it is
    w itself: the referee keeps a nonnegative difference as it is."""
    w, fw, dist, sep = p
    w_s = render(w)
    fw_s = "undef" if fw is None else render(fw)
    dist_s = fw_s if dist is fw else "undef" if dist is None else render(dist)
    sep_s = w_s if sep is w else render(sep)
    return _guard(f" w={w_s} fw={fw_s} dist={dist_s} sep={sep_s}", 4)


def _guard(piece: str, spaces: int) -> str:
    """piece, which must hold exactly one space per field it carries: a
    value with a space in it would split into two fields when the line is
    parsed back."""
    if piece.count(" ") != spaces:
        raise ValueError(f"check record value contains a space: {piece!r}")
    return piece


def parse_claim_file(text: str) -> list[Check]:
    """The certificates of a claim file as Check steps, in file order, each
    on the file's schedule of its SCHEDULE kind (eps for a verifier, delta
    for a falsifier) built in the field of its own claim.  A cert's
    `claim=` names the claim record above it with that `id=`; a cert with
    no `claim=` takes the last claim record above it.  A record that
    repeats a key, or holds a key its kind does not read, is refused.
    Schedule records are file-global: `values=` beats `depth=` of the same
    kind wherever it stands, in the same record too, of two records of one
    form the last wins, and a kind with neither takes the default depth.
    Each (kind, field) schedule is built once, in the order of its first
    cert, and its certs share it."""
    certs: list[VerifierCert | FalsifierCert] = []
    depths: dict[str, int] = {}
    values: dict[str, str] = {}  # kept as text, parsed in each claim's field
    claims: dict[int, LimitClaim] = {}  # by id=
    current: LimitClaim | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, kv = parse_kv_line(line)
        if kind == "claim":
            _known(kv, _CLAIM_KEYS, line)
            fld = _field_of(kv.get("field", ""))
            fn = parse_name(fld, _need(kv, "fn", line), "function name")
            current = LimitClaim(
                fn,
                parse_elem(fld, _need(kv, "point", line)),
                parse_elem(fld, _need(kv, "candidate", line)),
            )
            if "id" in kv:
                cid = _claim_id(kv["id"])
                if cid in claims:
                    raise ParseError(f"duplicate claim id {cid}")
                claims[cid] = current
        elif kind == "cert":
            claim = current
            if "claim" in kv:
                cid = _claim_id(kv["claim"])
                if cid not in claims:
                    raise ParseError(f"cert names unknown claim {cid}")
                claim = claims[cid]
            elif claim is None:
                raise ParseError("cert record before any claim record")
            ckind = _need(kv, "kind", line)
            if ckind not in _CERT_KINDS:
                raise ParseError(f"unknown cert kind {ckind!r}")
            _known(kv, _CERT_KEYS[ckind], line)
            need = functools.partial(_need, kv, line=line)
            certs.append(_CERT_KINDS[ckind].from_record(claim, kv, need))
        elif kind == "schedule":
            if current is None:
                raise ParseError("schedule record before any claim record")
            _known(kv, _SCHEDULE_KEYS, line)
            skind = _need(kv, "kind", line)
            if skind not in ("eps", "delta"):
                raise ParseError(f"unknown schedule kind {skind!r}")
            if "values" in kv:
                values[skind] = kv["values"]
            elif "depth" in kv:
                depths[skind] = parse_int(kv["depth"])
            else:
                raise ParseError("schedule record needs depth= or values=")
        else:
            raise ParseError(f"unknown record kind {kind!r}")
    if not certs:
        raise ParseError("claim file contains no certificates")
    keys = dict.fromkeys((cert.SCHEDULE, cert.claim.field) for cert in certs)
    schedules = {key: _schedule(*key, depths, values) for key in keys}
    return [Check(cert, schedules[cert.SCHEDULE, cert.claim.field]) for cert in certs]


def _schedule(skind: str, fld: Field, depths: dict[str, int], values: dict[str, str]) -> list:
    """The file's schedule of kind skind, in field fld."""
    if skind in values:
        return [parse_elem(fld, v) for v in values[skind].split(",")]
    if skind == "eps":
        return default_eps_schedule(fld, depths.get("eps", DEFAULT_EPS_DEPTH))
    return default_delta_schedule(fld, depths.get("delta", DEFAULT_DELTA_DEPTH[fld]))


def _field_of(name: str) -> Field:
    try:
        return Field(name)
    except ValueError:
        raise ParseError(f"unknown field {name!r}") from None


def _claim_id(text: str) -> int:
    cid = parse_int(text)
    if cid < 1:
        raise ParseError(f"claim id {cid} is not a positive integer")
    return cid


def _known(kv: dict[str, str], keys: tuple[str, ...], line: str) -> None:
    for key in kv:
        if key not in keys:
            raise ParseError(f"unknown key {key}= in record {line!r}")


def _need(kv: dict[str, str], key: str, line: str) -> str:
    if key not in kv:
        raise ParseError(f"missing {key}= in record {line!r}")
    return kv[key]
