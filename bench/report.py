"""Run the benchmark on several workloads and seeds, one process per run,
and print every metric by name and unit with its median, quartiles and
spread (quartile distance over median).

    python3 bench/report.py                       # all workloads, seed 0
    python3 bench/report.py --seeds 1-10 --seconds 20
    python3 bench/report.py --trace 1 --workloads mvt,band-q
    python3 bench/report.py --seeds 1-10 --json bench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

RUN_TIMEOUT_S = 600


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {
        "meta": json.loads(lines[-2]),
        "result": json.loads(lines[-1]),
        "process_s": elapsed,
    }


def spread(values: list[float]) -> tuple[float, float, float, float | None]:
    """(median, q1, q3, (q3 - q1) / median) as the acceptance rule takes them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, ((q3 - q1) / med) if med else None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="0", help="e.g. 1-10 or 3,5,7")
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", default=None, help="also write every run's output to PATH")
    args = ap.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            out = run_one(w, seed, seconds, args.trace)
            runs[w].append(out)
            res = out["result"]
            print(
                f"# {w} seed={seed} correct={res['correct']} attempted={res['attempted']} "
                f"failed={res['failed']} passes={out['meta']['passes']} process_s={out['process_s']:.1f}",
                file=sys.stderr,
            )

    print(f"{'workload':<11} {'metric':<40} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>7}")
    for w in workloads:
        names = runs[w][0]["result"]["metrics"]
        for name, first in names.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs[w]]
            med, q1, q3, sp = spread(values)
            sp_s = "-" if sp is None else f"{sp:.3f}"
            print(f"{w:<11} {name:<40} {first['unit']:<6} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {sp_s:>7}")
    if args.json:
        doc = {"seconds": seconds, "trace": args.trace, "seeds": seeds, "runs": runs}
        Path(args.json).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
