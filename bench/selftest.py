"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks, in about fifteen seconds:
  * self-time arithmetic of the tracer on a synthetic nested span tree;
  * that installing the tracing wrappers rebinds every name of a traced
    function (including `from .x import f` copies) and that uninstalling
    restores every original binding;
  * that every workload, at its smallest size, is correct and emits
    exactly the metrics BENCHMARK.json names, with their units, in both
    modes;
  * that a wrong golden digest is counted as failed checks.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALLEST = {"axioms": 20, "mvt": 4, "band-q": None, "qx-referee": None}


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def test_self_time() -> None:
    # A [0, 100] contains B [10, 30] and C [40, 70]; C contains D [45, 50].
    ticks = iter([0, 10, 30, 40, 45, 50, 70, 100])
    tr = spans.Tracer(clock=lambda: next(ticks))
    with tr.root("A"):
        tr.begin("B")
        tr.end()
        tr.begin("C")
        tr.begin("D")
        tr.end()
        tr.end()
    selfs = {name: st[1] for name, st in tr.stats.items()}
    totals = {name: st[2] for name, st in tr.stats.items()}
    check(selfs == {"A": 50, "B": 20, "C": 25, "D": 5}, f"self times {selfs}")
    check(totals == {"A": 100, "B": 20, "C": 30, "D": 5}, f"durations {totals}")
    by_name = {s[3]: s for s in tr.spans}
    check(by_name["A"][2] == 0, "root span has no parent")
    check(by_name["B"][2] == by_name["A"][1] == by_name["C"][2], "B and C are children of A")
    check(by_name["D"][2] == by_name["C"][1], "D is a child of C")
    check(len({s[0] for s in tr.spans}) == 1, "spans of one root share its trace id")

    # Bookkeeping excluded with `exclude` is not charged to the open span.
    ticks = iter([0, 10, 14, 20])
    tr = spans.Tracer(clock=lambda: next(ticks))
    tr.begin("A")
    t = tr.clock()
    tr.exclude(t)
    tr.end()
    check(tr.stats["A"][1:3] == [16, 20], f"excluded time {tr.stats['A']}")

    # A span left by an exception counts as an error and still closes.
    tr = spans.Tracer()
    w = spans.make_wrapper(tr, "x.boom", lambda: 1 / 0)
    try:
        w()
    except ZeroDivisionError:
        pass
    check(tr.stats["x.boom"][0] == 1 and tr.stats["x.boom"][3] == 1, "error span counted")
    check(not tr.stack, "span stack empty after an exception")


def test_restore() -> None:
    run.fresh_import()
    import ordfield
    from ordfield import claims, demos, functions, transcript

    before = spans.bindings()
    orig_eval = functions.evaluate
    orig_render = transcript.Transcript.render
    tr = spans.Tracer()
    saved = spans.install(tr)
    try:
        for owner, attr in (
            (functions, "evaluate"),
            (claims, "evaluate"),
            (ordfield, "evaluate"),
            (demos, "check_verifier"),
        ):
            check(hasattr(getattr(owner, attr), "__bench_traced__"), f"{owner.__name__}.{attr} wrapped")
        check(transcript.Transcript.render is not orig_render, "Transcript.render wrapped")
        check(spans.bindings() != before, "install changed bindings")
    finally:
        spans.uninstall(saved)
    check(spans.bindings() == before, "every binding restored")
    check(functions.evaluate is orig_eval and claims.evaluate is orig_eval, "evaluate restored")
    check(transcript.Transcript.render is orig_render, "Transcript.render restored")
    calls = tr.stats.get("functions.evaluate", [0])[0]
    functions.evaluate(functions.Identity(), ordfield.pow2(1))
    check(tr.stats.get("functions.evaluate", [0])[0] == calls, "no spans after uninstall")


def _check_metrics(result: dict, spec: list[dict], what: str) -> None:
    names = [m["name"] for m in spec]
    check(list(result["metrics"]) == names, f"{what}: metric names {list(result['metrics'])}")
    for m in spec:
        got = result["metrics"][m["name"]]
        check(got["unit"] == m["unit"], f"{what}: unit of {m['name']}")
        v = got["value"]
        check(isinstance(v, (int, float)) and math.isfinite(v) and v >= 0, f"{what}: value of {m['name']}")


def test_workloads() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check(sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS), "workload names")
    for name, size in SMALLEST.items():
        for trace, spec in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            result, meta, _ = run.measure(name, 1, 0, trace, size)
            what = f"{name} trace={int(trace)}"
            check(result["correct"] and result["failed"] == 0, f"{what}: {meta['problems']}")
            check(result["attempted"] >= 1, f"{what}: attempted")
            _check_metrics(result, spec, what)
            for v in (m["value"] for m in result["metrics"].values() if not trace):
                check(v > 0, f"{what}: end-to-end metrics are never 0")
        print(f"selftest: {name} ok")
    # The mvt default seed and size is the one with a golden digest.
    result, meta, _ = run.measure("mvt", workloads.DEFAULT_SEED, 0, False)
    check(result["correct"], f"mvt golden run: {meta['problems']}")


def test_golden_mismatch_counts() -> None:
    entry = workloads.GOLDEN["claim-q"]
    good = entry["sha256"]
    entry["sha256"] = "0" * 64
    try:
        result, meta, _ = run.measure("qx-referee", 1, 0, False)
    finally:
        entry["sha256"] = good
    check(not result["correct"], "a digest mismatch makes the run incorrect")
    check(result["failed"] == entry["checks"], f"failed={result['failed']}")
    check(any("golden" in p for p in meta["problems"]), "the mismatch is reported")


def main() -> int:
    test_self_time()
    print("selftest: self-time arithmetic ok")
    test_restore()
    print("selftest: wrapper restore ok")
    test_golden_mismatch_counts()
    print("selftest: golden mismatch counted ok")
    test_workloads()
    print("selftest: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
