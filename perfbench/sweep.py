"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workload W ...] [--trace 1]
        [--out perfbench/baseline.json]

For each workload and metric prints the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread, (Q3 - Q1) / median.
With --out, writes the runs and the summary as JSON: `baseline.json` (ten
seeds, --trace 0) and `baseline_layers.json` (two seeds, --trace 1) were made
this way at the seed commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    report = {"python": platform.python_version(), "machine": platform.machine(),
              "cpus": os.cpu_count(), "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    for workload in args.workload or names:
        runs = []
        for seed in args.seeds:
            t0 = time.monotonic()
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["elapsed_s"] = time.monotonic() - t0
            runs.append(result)
            print(f"{workload} seed {seed}: {time.monotonic() - t0:.1f} s, "
                  f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr)
        summary = {}
        for name in runs[0]["metrics"]:
            summary[name] = summarise([r["metrics"][name]["value"] for r in runs])
            s = summary[name]
            print(f"{workload:6} {name:40} median {s['median']:12.4f}  "
                  f"q1 {s['q1']:12.4f}  q3 {s['q3']:12.4f}  spread {s['spread']:.3f}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
