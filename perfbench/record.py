"""Record the item pools: per-item and per-query cost, and answer digests
once verified.

    python3 perfbench/record.py [--workload W ...]

Sets up and runs every item of every pool of the named workloads (all by
default) once, each from a cold `lru_cache`, and updates `pool.json`.  The
costs, the item's with its set-up and each query's alone, are used only to
stratify each run's draw.  For game, solve and cli every answer must pass
`queries.check` with the thorough oracle checks before its digest is
written; a failing answer aborts the recording.  Chain answers are not
pinned: the chain is checked against its own oracles on every run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import queries as qmod  # noqa: E402
import workloads  # noqa: E402
from chipfiring import ChipFiringError  # noqa: E402
from chipfiring.distance import effective_divisors  # noqa: E402


def record(workload: str) -> dict:
    out = {}
    workdir = ROOT / ".perfbench" / f"record{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        for kind, (size, _draw) in workloads.POOLS[workload].items():
            entries = {}
            for i in range(size):
                item = workloads.make_item(workload, kind, i)
                effective_divisors.cache_clear()
                t0 = time.perf_counter()
                qs = qmod.prepare(workload, kind, i, item, workdir, env)
                results = []
                query_ms = []
                for q in qs:
                    t1 = time.perf_counter()
                    try:
                        results.append(q.call())
                    except ChipFiringError:
                        if workload != "chain":
                            raise
                    query_ms.append(round((time.perf_counter() - t1) * 1e3, 2))
                cost_ms = (time.perf_counter() - t0) * 1e3
                entry = {"cost_ms": round(cost_ms, 2), "query_ms": query_ms}
                if workload != "chain":
                    digests = []
                    for q, result in zip(qs, results):
                        ans = qmod.answer(q.op, result)
                        reason = qmod.check(q, ans, thorough=True)
                        if reason is not None:
                            raise SystemExit(f"{workload} {q.key}: {reason}")
                        digests.append(qmod.digest(ans))
                    entry["digests"] = digests
                entries[str(i)] = entry
            out[kind] = entries
            print(f"{workload}/{kind}: {size} items", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def dump(pool: dict) -> str:
    """pool.json text: one line per item, so re-recording diffs by item."""
    blocks = []
    for workload in sorted(pool):
        kinds = []
        for kind in sorted(pool[workload]):
            items = pool[workload][kind]
            lines = ",\n".join(f'   "{i}": {json.dumps(items[i], sort_keys=True)}'
                               for i in sorted(items, key=int))
            kinds.append(f'  "{kind}": {{\n{lines}\n  }}')
        blocks.append(f' "{workload}": {{\n' + ",\n".join(kinds) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args()
    fresh = {w: record(w) for w in args.workload or workloads.WORKLOADS}
    pool = workloads.load_pool() if workloads.POOL_FILE.exists() else {}
    pool.update(fresh)
    workloads.POOL_FILE.write_text(dump(pool))
    return 0


if __name__ == "__main__":
    sys.exit(main())
