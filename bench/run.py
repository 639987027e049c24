"""ordfield benchmark: one workload, in-process, in this process.

    python3 bench/run.py --workload {axioms|band-q|mvt|qx-referee} \
        --seed N --seconds S --trace {0|1}

Set-up (importing ordfield from ./src and making the workload's inputs
from the seed) is done SETUPS times and its median reported as setup_s.
Then whole passes over the inputs run, untimed checks of every output
after each, until S seconds have passed.

--trace 0 prints the end-to-end metrics.  --trace 1 runs untraced passes
for S/2 seconds, then one more set-up and pass with every public ordfield
function wrapped (see spans.py), and prints the per-layer metrics of that
set-up and pass; the raw spans go to bench/out/.

The next-to-last stdout line is a JSON stamp (Python version, nproc, git
SHA, seed, sample counts); the last line is the result object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "ordfield"
SETUPS = 5

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from meter import Meter  # noqa: E402
from workloads import WORKLOADS, namespace  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _fn_metrics(fn: str, stats: tuple[str, ...]) -> list[str]:
    return [f"{fn}.{s}" for s in stats]


PER_LAYER = (
    [m for f in ("rf_add", "rf_sub", "rf_mul", "rf_div") for m in _fn_metrics(f"laurent.{f}", ("calls", "self_s"))]
    + ["laurent.rf_normalize.self_s", "laurent.rf_sign.calls", "laurent.max_coeff_bits"]
    + _fn_metrics("dyadic.class_index", ("calls", "self_s"))
    + ["dyadic.is_outer.self_s", "dyadic.cn_bounds.calls", "dyadic.sqrt2_gap_radius.self_s"]
    + _fn_metrics("functions.evaluate", ("calls", "self_s", "errors"))
    + ["functions.derivative_certificate.self_s"]
    + ["claims.check_verifier.self_s", "claims.check_falsifier.self_s"]
    + _fn_metrics("claims.probe_gen", ("calls", "self_s"))
    + ["claims.checks", "claims.referee_evals", "claims.distinct_eval_ratio"]
    + ["certs.min_dyadic_depth.self_s"]
    + _fn_metrics("transcript.kv_line", ("calls", "self_s"))
    + ["transcript.add_report.self_s", "transcript.render.self_s", "transcript.bytes"]
    + _fn_metrics("fields.render_elem", ("calls", "self_s"))
    + ["transcript.parse_claim_file.self_s"]
    + _fn_metrics("literals.parse_elem", ("calls", "self_s"))
    + [f"demos.{d}.self_s" for d in ("demo_dlim", "demo_mvt", "demo_lhopital", "demo_taylor")]
    + ["cli.main.self_s", "rationals.pow2.calls"]
    + [f"{layer}.all.self_s" for layer in spans.LAYERS]
    + ["bench.unwrapped.self_s", "trace.overhead_ratio"]
)

_COUNT_SUFFIXES = (".calls", ".errors", ".checks", ".referee_evals")


def layer_unit(name: str) -> str:
    if name.endswith(_COUNT_SUFFIXES):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith(".bytes"):
        return "bytes"
    raise ValueError(f"no unit for {name}")


def git_sha(root: Path) -> str:
    """HEAD's commit id read from .git without running git; "unknown"
    outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def stamp(workload: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "workload": workload,
        "seed": seed,
    }


def fresh_import():
    """Import ordfield from scratch: drop every cached ordfield module so
    each set-up pays the import again."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module(PACKAGE)
    return namespace(PACKAGE)


def tail(samples: list[float]) -> float:
    """The nearest-rank 99th percentile, or, with fewer than 1,000
    samples, the highest percentile that leaves ten samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, min(math.ceil(0.99 * len(ordered)), len(ordered) - 10))
    return ordered[rank - 1]


def layer_metrics(tracer: spans.Tracer, scale: float, overhead: float) -> dict[str, float]:
    """Per-layer values of one traced set-up and pass; `scale` turns the
    tracer's nanoseconds into the meter's seconds."""
    stats = tracer.stats
    to_s = scale / 1e9
    totals = {layer: 0 for layer in spans.LAYERS}
    for name, st in stats.items():
        layer = name.split(".", 1)[0]
        if layer in totals:
            totals[layer] += st[1]
    unwrapped = sum(st[1] for name, st in stats.items() if name.startswith("bench."))
    evals = tracer.counters["claims.referee_evals"]
    special = dict(tracer.counters)
    special["claims.distinct_eval_ratio"] = len(tracer.distinct_evals) / evals if evals else 0.0
    special["trace.overhead_ratio"] = overhead
    special["bench.unwrapped.self_s"] = unwrapped * to_s
    for layer, ns in totals.items():
        special[f"{layer}.all.self_s"] = ns * to_s
    out = {}
    for name in PER_LAYER:
        if name in special:
            out[name] = special[name]
            continue
        fn, stat = name.rsplit(".", 1)
        st = stats.get(fn, (0, 0, 0, 0))
        out[name] = {"calls": st[0], "self_s": st[1] * to_s, "errors": st[3]}[stat]
    return out


def measure(workload_name: str, seed: int, seconds: float, trace: bool, size: int | None = None):
    """Set up, run the timed passes (and the traced one when `trace`), and
    return `(result, meta, tracer)`."""
    workload = WORKLOADS[workload_name]
    meter = Meter()
    setup_times = []
    mods = inputs = None
    for _ in range(SETUPS):
        mods = inputs = None
        gc.collect()
        t0 = time.perf_counter()
        mods = fresh_import()
        inputs = workload.make(mods, seed, size)
        setup_times.append((time.perf_counter() - t0) * meter.factor())

    budget = seconds / 2 if trace else seconds
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run(mods, inputs, meter, None))
        if time.perf_counter() - start >= budget:
            break
    # Read before the latencies are merged, so the benchmark's own lists do
    # not count.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer = None
    if trace:
        tracer = spans.Tracer()
        before = spans.bindings(PACKAGE)
        saved = spans.install(tracer, PACKAGE)
        try:
            # Inputs are made again under the tracer so that layers working
            # in set-up (rf_normalize on axioms) show in the per-layer data.
            with tracer.root("bench.setup"):
                inputs = workload.make(mods, seed, size)
            traced = workload.run(mods, inputs, meter, tracer)
        finally:
            spans.uninstall(saved)
        if spans.bindings(PACKAGE) != before:
            raise RuntimeError("the traced run left ordfield bindings changed")

    times = [p.time_s for p in passes]
    latencies = [t for p in passes for t in p.latencies_s]
    done = passes + ([traced] if trace else [])
    attempted = sum(p.attempted for p in done)
    failed = sum(p.failed for p in done)
    problems = [msg for p in done for msg in p.problems]

    if trace:
        scale = traced.time_s / traced.raw_s
        metrics = layer_metrics(tracer, scale, traced.time_s / statistics.median(times))
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(times),
            "ops_per_s": sum(p.ops for p in passes) / sum(times),
            "tail_ms": tail(latencies) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    meta = {
        "stamp": stamp(workload_name, seed),
        "passes": len(passes),
        "latency_samples": len(latencies),
        "latency_op": workload.op,
        "setups": SETUPS,
        "raw_wall_s": statistics.median(p.raw_s for p in passes),
        "median_cal_s": meter.median_cal_s(),
        "problems": problems[:20],
    }
    return result, meta, tracer


def write_spans(tracer: spans.Tracer, meta: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "stamp": meta["stamp"],
        "stats": {k: dict(zip(("calls", "self_ns", "total_ns", "errors"), v)) for k, v in sorted(tracer.stats.items())},
        "span_fields": ["trace_id", "span_id", "parent_id", "name", "start_ns", "end_ns"],
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"bench: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, meta, tracer = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for msg in meta["problems"]:
        print(f"bench: {msg}", file=sys.stderr)
    if tracer is not None:
        write_spans(tracer, meta, HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json")
    print(json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
