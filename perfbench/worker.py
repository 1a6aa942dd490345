"""One benchmark process: set up a workload, run its timed loop, check it.

    python3 perfbench/worker.py --workload W --seed S --seconds T --spawned M
        [--setup-only] [--traced --count N]

`--spawned` is the parent's `time.monotonic()` just before it started this
process (the clock is system-wide), so set-up time runs from process start.
The process caps its own address space first, so a search that blows up
raises a counted `MemoryError` instead of exhausting the machine.

The loop is closed with one client: each query is issued when the previous
one has returned.  It repeats the run's pass, whole passes only, and stops
at the pass boundary nearest to `T` seconds, so every run measures the same
mix; with `--count` it issues exactly N queries.  Only the first issue of each query is checked,
after the loop.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ADDRESS_SPACE_CAP = 1 << 30


def timed_loop(queries, seconds: float, count: int | None, tracer):
    """Issue queries in a closed loop.

    Returns raw and reference-speed latencies, first-pass outcomes, errors
    of later issues by position, the loop's wall time at reference speed and
    the reference durations sampled.  The reference loop runs between
    queries at least every 0.25 s; each query is scaled by the mean of the
    samples taken just before and just after it.  Reference runs and paused
    tracer work are excluded from every time.
    """
    paused = (lambda: tracer.paused_s) if tracer is not None else (lambda: 0.0)
    n = len(queries)
    raw = []
    first = []
    later_errors = {}
    refs = [speed.reference_s()]
    ref_at = [0]  # queries completed when each reference sample was taken
    excluded = 0.0
    k = 0
    p_start = paused()
    start = last_ref = time.perf_counter()
    while True:
        if count is not None:
            if k >= count:
                break
        elif k % n == 0 and k:
            # stop at the pass boundary nearest to the deadline
            elapsed = time.perf_counter() - start - excluded
            if elapsed + elapsed / (2 * (k // n)) >= seconds:
                break
        q = queries[k % n]
        p0 = paused()
        t0 = time.perf_counter()
        try:
            result, error = q.call(), None
        except Exception as exc:  # counted as a failure
            # drop the traceback, which would keep the query's frames alive
            result, error = None, exc.with_traceback(None)
        t1 = time.perf_counter()
        raw.append(t1 - t0 - (paused() - p0))
        if k < n:
            first.append((result, error))
        elif error is not None:
            later_errors[k] = error
        k += 1
        if t1 - last_ref >= 0.25:
            refs.append(speed.reference_s())
            ref_at.append(k)
            last_ref = time.perf_counter()
            excluded += last_ref - t1
    end = time.perf_counter()
    refs.append(speed.reference_s())
    ref_at.append(k)
    wall = end - start - excluded - (paused() - p_start)
    scaled = []
    for i in range(len(refs) - 1):
        factor = speed.NOMINAL_S * 2 / (refs[i] + refs[i + 1])
        scaled.extend(x * factor for x in raw[ref_at[i]:ref_at[i + 1]])
    # the loop's own overhead between queries is scaled like the queries
    wall *= sum(scaled) / sum(raw)
    return raw, scaled, first, later_errors, wall, refs


def forced_probe() -> dict:
    """Run the chain on the fixed forced-vertex instances, untimed.

    The bundle gadget is known to disagree when some tau(v) = deg(v) + 1;
    the count of disagreeing instances makes that defect visible, and a fix
    shows as a drop to 0.
    """
    import queries as qmod
    import workloads

    disagreements = 0
    for i in range(workloads.FORCED_PROBE):
        item = workloads.make_item("chain", "forced", i)
        (q,) = qmod.prepare("chain", "forced", i, item)
        try:
            reason = qmod.check(q, qmod.answer(q.op, q.call()))
        except (qmod.ChipFiringError, MemoryError) as exc:
            reason = f"raised {type(exc).__name__}"
        disagreements += reason is not None
    return {"instances": workloads.FORCED_PROBE, "disagreements": disagreements}


def run(args) -> dict:
    import queries as qmod
    import workloads

    pool = workloads.load_pool()
    order = workloads.select(args.workload, args.seed, pool)
    workdir = ROOT / ".perfbench" / f"w{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spans = workdir / "spans" if args.traced and args.workload == "cli" else None
    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if spans is not None:
            spans.mkdir(parents=True)
        pass_ = []
        for kind, index in order:
            item = workloads.make_item(args.workload, kind, index)
            pass_.extend(qmod.prepare(args.workload, kind, index, item, workdir, env, spans))
        setup_s = time.monotonic() - args.spawned
        if args.setup_only:
            return {"setup_s": setup_s, "ref_s": speed.reference_s()}
        ref_after_setup = speed.reference_s()
        raw, latencies, first, later_errors, wall, refs = timed_loop(
            pass_, args.seconds, args.count, tracer)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()

        recorded = pool[args.workload]
        failures = []
        failed_first = []
        digests = []
        for q, (result, error) in zip(pass_, first):
            kind, index, j = q.key.split("/")
            reason = None
            if error is not None:
                reason = f"raised {type(error).__name__}: {error}"
                digests.append(None)
            else:
                ans = qmod.answer(q.op, result)
                digests.append(qmod.digest(ans))
                expected = recorded[kind][index].get("digests")
                if expected is not None and expected[int(j)] != digests[-1]:
                    reason = "answer differs from the recorded digest"
                else:
                    reason = qmod.check(q, ans)
            failed_first.append(reason is not None)
            if reason is not None:
                failures.append(f"{q.key}: {reason}")
        # a later issue fails when the query's checked first issue failed, or
        # when it raised
        failed = sum(failed_first)
        for k in range(len(first), len(latencies)):
            q = pass_[k % len(pass_)]
            error = later_errors.get(k)
            if error is not None and not failed_first[k % len(pass_)]:
                failures.append(f"{q.key}: a later issue raised {type(error).__name__}")
            failed += failed_first[k % len(pass_)] or error is not None
        out = {
            "setup_s": setup_s,
            "ref_s": ref_after_setup,
            "attempted": len(latencies),
            "failed": failed,
            "correct": not failures,
            "wall_s": wall,
            "queries_per_s": len(latencies) / wall,
            "query_p50_ms": statistics.median(latencies) * 1e3,
            "query_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[-1] * 1e3,
            "peak_rss_mb": peak_rss_mb,
            "digests": digests,
            "failures": failures[:20],
            "raw_wall_s": sum(raw),
            "ref_ms": statistics.median(refs) * 1e3,
        }
        if tracer is not None:
            from tracer import merge

            stats = tracer.stats()
            phases = []
            if spans is not None:
                for path in sorted(spans.glob("*.json")):
                    child = json.loads(path.read_text())
                    phases.append(child.pop("phases"))
                    merge(stats, child)
            stats["cli_phases"] = phases
            out["layers"] = stats
            if args.workload == "chain":
                out["forced_probe"] = forced_probe()
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--count", type=int, default=None)
    args = parser.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
