"""The benchmark's workloads: inputs made from a seed, one timed pass, and
the check of every output.

Each workload reaches ordfield only through module attributes looked up
at call time (`mods.cli.main`, `mods.fields.sign_of`), so a traced run
sees every call through its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "src" / "ordfield" / "fixtures"
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))

DEFAULT_SEED = 0
AXIOM_TRIPLES = 10_000  # per field, as in acceptance criterion 1
AXIOM_CHUNK = 200  # triples timed between two calibrations
MVT_POINTS = 50


@dataclass
class PassResult:
    """One pass.  `ops` were done; `attempted` and `failed` are counted as
    the benchmark reports them.  `raw_s` is the measured time, `time_s`
    the same scaled by the meter, and `latencies_s` the scaled latency of
    each triple (axioms) or invocation."""

    ops: int = 0
    attempted: int = 0
    failed: int = 0
    raw_s: float = 0.0
    time_s: float = 0.0
    latencies_s: array = field(default_factory=lambda: array("d"))
    problems: list[str] = field(default_factory=list)


# --- demo and claim invocations --------------------------------------------


@dataclass(frozen=True)
class Invocation:
    """One `ordfield` command run in-process through `cli.main`.

    `golden` names the entry of golden.json whose digest the transcript
    must match; without it only the exit code, the absence of
    `verdict=fail` and the summary check count are checked.
    """

    argv: tuple[str, ...]
    checks: int
    golden: str | None


def _golden(name: str, argv: tuple[str, ...]) -> Invocation:
    return Invocation(argv, GOLDEN[name]["checks"], name)


def _band_q(seed: int, size: int | None) -> list[Invocation]:
    return [
        _golden("dlim-q", ("demo", "dlim", "--field", "q")),
        _golden("lhopital", ("demo", "lhopital")),
        _golden("taylor-2", ("demo", "taylor", "--n", "2")),
    ]


def _qx_referee(seed: int, size: int | None) -> list[Invocation]:
    return [
        _golden("dlim-qx", ("demo", "dlim", "--field", "qx")),
        _golden("claim-q", ("claim", str(FIXTURES / "dlim_q_falsifier.claim"))),
        _golden("claim-qx", ("claim", str(FIXTURES / "dlim_qx_falsifier.claim"))),
    ]


def _mvt(seed: int, size: int | None) -> list[Invocation]:
    points = MVT_POINTS if size is None else size
    argv = ("demo", "mvt", "--points", str(points), "--seed", str(seed))
    checks = GOLDEN["mvt"]["checks_per_point"] * points
    default = seed == DEFAULT_SEED and points == MVT_POINTS
    return [Invocation(argv, checks, "mvt" if default else None)]


def _summary_line(text: str) -> str:
    end = len(text) - 1 if text.endswith("\n") else len(text)
    return text[text.rfind("\n", 0, end) + 1 : end]


def _check_transcript(inv: Invocation, code: int, text: str) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if "verdict=fail" in text:
        problems.append("a record says verdict=fail")
    if inv.golden is not None:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != GOLDEN[inv.golden]["sha256"]:
            problems.append(f"transcript digest {digest[:12]} is not the golden one")
    summary = _summary_line(text)
    if not summary.startswith("summary ") or f" checks={inv.checks} " not in summary:
        problems.append(f"summary does not report checks={inv.checks}")
    counted = text.count("\ncheck ")
    if counted != inv.checks:
        problems.append(f"{counted} check records, expected {inv.checks}")
    return problems


def _run_invocations(mods, invocations: list[Invocation], meter, tracer) -> PassResult:
    res = PassResult()
    for inv in invocations:
        buf = io.StringIO()
        root = tracer.root("bench.invocation") if tracer else contextlib.nullcontext()
        problems: list[str] = []
        t0 = time.perf_counter()
        try:
            with root, contextlib.redirect_stdout(buf):
                code = mods.cli.main(list(inv.argv))
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
        except Exception as exc:  # a crash fails every check of this invocation
            code, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        raw = time.perf_counter() - t0
        scaled = raw * meter.factor()
        res.raw_s += raw
        res.time_s += scaled
        res.latencies_s.append(scaled)
        text = buf.getvalue()
        del buf
        if not problems:
            problems = _check_transcript(inv, code, text)
        res.ops += text.count("\ncheck ")
        res.attempted += inv.checks
        if problems:
            res.failed += inv.checks
            res.problems.append(f"{' '.join(inv.argv)}: {'; '.join(problems)}")
    return res


# --- ordered-field axioms ----------------------------------------------------


class AxiomViolation(Exception):
    pass


def _holds(cond: bool, what: str) -> None:
    if not cond:
        raise AxiomViolation(what)


def check_triple(sign_of, a, b, c, zero, one) -> None:
    """Field and order axioms on one (a, b, c) triple; the same axioms as
    the acceptance suite checks, with `sign_of` from ordfield.fields."""
    ab = a + b
    bc = b + c
    _holds(ab + c == a + bc, "associativity of +")
    _holds(ab == b + a, "commutativity of +")
    pab = a * b
    pbc = b * c
    pac = a * c
    _holds(pab * c == a * pbc, "associativity of *")
    _holds(pab == b * a, "commutativity of *")
    _holds(a * bc == pab + pac, "distributivity")
    _holds(a + zero == a, "additive identity")
    _holds(a * one == a, "multiplicative identity")
    _holds(a + (-a) == zero, "additive inverse")
    _holds(a - b == a + (-b), "subtraction")
    if a != zero:
        _holds(a * (one / a) == one, "multiplicative inverse")
    sd = sign_of(b - a)
    _holds((a < b) == (sd > 0), "order agrees with sign (<)")
    _holds((a == b) == (sd == 0), "order agrees with sign (==)")
    _holds((b < a) == (sd < 0), "order agrees with sign (>)")
    _holds(sign_of((b + c) - (a + c)) == sd, "translation invariance")
    sc = sign_of(c)
    if sd != 0 and sc != 0:
        _holds(sign_of(pbc - pac) == (sd if sc > 0 else -sd), "scaling by sign")
    _holds(abs(pab) == abs(a) * abs(b), "|ab| = |a||b|")
    _holds(abs(ab) <= abs(a) + abs(b), "triangle inequality")


def _rand_poly(laurent, rng: random.Random, max_deg: int, coeff: int, nonzero: bool = False):
    while True:
        deg = rng.randint(0, max_deg)
        p = laurent.poly(Fraction(rng.randint(-coeff, coeff)) for _ in range(deg + 1))
        if p or not nonzero:
            return p


def _accept_rf(laurent, rng: random.Random):
    """The criterion-1 distribution: 5 % degree-3 operands with 2^16-sized
    coefficients, the rest degree <= 2 with coefficients in [-9, 9]."""
    degs = (0, 1, 1, 2)
    if rng.random() < 0.05:
        num = _rand_poly(laurent, rng, 3, 1 << 16)
        den = _rand_poly(laurent, rng, 3, 1 << 16, nonzero=True)
    else:
        num = _rand_poly(laurent, rng, rng.choice(degs), 9)
        den = _rand_poly(laurent, rng, rng.choice(degs), 9, nonzero=True)
    return laurent.rf_normalize(num, den)


def _axiom_inputs(mods, seed: int, size: int | None):
    n = AXIOM_TRIPLES if size is None else size
    rng = random.Random(2 * seed)
    big = 1 << 32

    def rat():
        return Fraction(rng.randint(-big, big), rng.randint(1, big))

    q = [(rat(), rat(), rat()) for _ in range(n)]
    rng = random.Random(2 * seed + 1)
    lr = mods.laurent
    qx = [(_accept_rf(lr, rng), _accept_rf(lr, rng), _accept_rf(lr, rng)) for _ in range(n)]
    return [
        (q, Fraction(0), Fraction(1)),
        (qx, lr.RF_ZERO, lr.RF_ONE),
    ]


def _run_axioms(mods, halves, meter, tracer) -> PassResult:
    res = PassResult()
    clock = time.perf_counter
    fields = mods.fields
    for triples, zero, one in halves:
        for start in range(0, len(triples), AXIOM_CHUNK):
            raw = []
            for a, b, c in triples[start : start + AXIOM_CHUNK]:
                root = tracer.root("bench.triple") if tracer else contextlib.nullcontext()
                t0 = clock()
                try:
                    with root:
                        check_triple(fields.sign_of, a, b, c, zero, one)
                except Exception as exc:  # a violated axiom or a crash fails the triple
                    res.failed += 1
                    if len(res.problems) < 5:
                        res.problems.append(f"triple failed: {type(exc).__name__}: {exc}")
                raw.append(clock() - t0)
            f = meter.factor()
            res.raw_s += sum(raw)
            res.time_s += sum(raw) * f
            res.latencies_s.extend(t * f for t in raw)
            res.ops += len(raw)
            res.attempted += len(raw)
    return res


# --- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    op: str  # what one latency sample is
    make: object  # (mods, seed, size) -> inputs
    run: object  # (mods, inputs, meter, tracer) -> PassResult


def _demo_workload(name: str, plan) -> Workload:
    return Workload(name, "invocation", lambda mods, seed, size: plan(seed, size), _run_invocations)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("axioms", "triple", _axiom_inputs, _run_axioms),
        _demo_workload("band-q", _band_q),
        _demo_workload("mvt", _mvt),
        _demo_workload("qx-referee", _qx_referee),
    )
}


def namespace(package) -> SimpleNamespace:
    """The ordfield modules a workload calls into."""
    return SimpleNamespace(
        **{m: importlib.import_module(f"{package}.{m}") for m in ("cli", "fields", "laurent")}
    )
