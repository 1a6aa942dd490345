"""Benchmark entry point.

    python3 perfbench/run.py --workload {game,solve,chain,cli} --seed N \\
        --seconds T --trace {0,1}

Run from the root of a checkout: the library is imported from `src/`.  Each
workload runs in fresh worker processes (`worker.py`), one at a time, each
under an address-space cap, with cold caches and no warm-up.

`--trace 0` prints the end-to-end metrics named in BENCHMARK.json: the
worker's closed-loop throughput and latency, its peak RSS (for cli, that of
the CLI processes), the share of queries that passed, and the set-up time as
the median of three fresh processes (the measured one and two that only set
up).  Times are at reference machine speed (see `speed.py`); the raw
figures go to stderr.

`--trace 1` prints the per-layer metrics.  An untraced worker runs for T/2
seconds; a traced worker then replays exactly the same queries with every
public library function wrapped (`tracer.py`).  Its answers must equal the
untraced ones, and the gap between the two runs' end-to-end numbers is
reported as the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Failure details go to stderr.  `correct` is false when
any query fails, or when traced and untraced answers differ.  The known
chain defect (a forced vertex, tau(v) = deg(v) + 1) is kept out of the
timed pass and reported by the traced chain run as
`chain.forced_disagreements` over a fixed untimed probe.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("game", "solve", "chain", "cli")


def spawn(args, extra: list[str], timeout: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           *extra, "--spawned"]
    ref_before = speed.reference_s()
    cmd.append(repr(time.monotonic()))
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker exceeded {timeout:.0f} s: {' '.join(cmd[2:6])}")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    # set-up at reference speed, from the reference runs just before the
    # process started and just after its set-up
    result["setup_raw_s"] = result["setup_s"]
    result["setup_s"] *= speed.NOMINAL_S * 2 / (ref_before + result["ref_s"])
    return result


def end_to_end(args) -> tuple[dict, dict]:
    main = spawn(args, ["--seconds", str(args.seconds)], timeout=110)
    setups = [main]
    for _ in range(2):
        setups.append(spawn(args, ["--seconds", "0", "--setup-only"], timeout=25))
    print(f"raw: loop {main['raw_wall_s']:.3f} s of queries, set-up "
          + " ".join(f"{s['setup_raw_s']:.3f}" for s in setups)
          + f" s, reference loop {main['ref_ms']:.3f} ms", file=sys.stderr)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "queries_per_s": main["queries_per_s"],
        "query_p50_ms": main["query_p50_ms"],
        "query_p90_ms": main["query_p90_ms"],
        "peak_rss_mb": main["peak_rss_mb"],
        "ok_ratio": (main["attempted"] - main["failed"]) / main["attempted"],
    }
    return main, values


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(args) -> tuple[dict, dict]:
    plain = spawn(args, ["--seconds", str(args.seconds / 2)], timeout=70)
    traced = spawn(args, ["--seconds", "0", "--traced", "--count", str(plain["attempted"])],
                   timeout=80)
    if traced["digests"] != plain["digests"]:
        print("traced answers differ from untraced answers", file=sys.stderr)
        traced["correct"] = False
    traced["correct"] = traced["correct"] and plain["correct"]
    layers = traced["layers"]
    calls, ms, self_ms, counts = layers["calls"], layers["ms"], layers["self_ms"], layers["counts"]
    classify_firings = counts.get("chipfire.classify_firings", 0)
    phases = layers["cli_phases"]
    values = {
        "chipfire.firings": classify_firings + counts.get("chipfire.recurrent_firings", 0),
        "chipfire.us_per_firing": (ms["chipfire.classify_halting"] * 1e3 / classify_firings
                                   if classify_firings else 0.0),
        "oracles.disagreements": counts.get("oracles.disagreements", 0),
        "machine.ref_ms": traced["ref_ms"],
        "cli.interpreter_ms": _median([p["interpreter_ms"] for p in phases]),
        "cli.import_ms": _median([p["import_ms"] for p in phases]),
        "cli.main.ms": _median([p["main_ms"] for p in phases]),
        "trace.overhead_pct": (traced["wall_s"] / plain["wall_s"] - 1) * 100,
        "trace.overhead.query_p50_ms": traced["query_p50_ms"] - plain["query_p50_ms"],
        "trace.overhead.query_p90_ms": traced["query_p90_ms"] - plain["query_p90_ms"],
        "trace.overhead.queries_per_s": plain["queries_per_s"] - traced["queries_per_s"],
    }
    probe = traced.get("forced_probe")
    if probe is not None:
        values["chain.forced_disagreements"] = probe["disagreements"]
        print(f"known defect: the chain disagrees on {probe['disagreements']} of "
              f"{probe['instances']} forced-vertex instances", file=sys.stderr)
    for layer, value in calls.items():
        values[f"{layer}.calls"] = value
    for layer, value in ms.items():
        values[f"{layer}.ms"] = value
    for layer, value in self_ms.items():
        values[f"{layer}.self_ms"] = value
    return traced, values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "chipfiring" / "__init__.py").is_file():
        print(f"no library source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result, values = (per_layer if args.trace else end_to_end)(args)
    for line in result["failures"]:
        print(f"failed {line}", file=sys.stderr)
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
