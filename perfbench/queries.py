"""Turning pool items into timed queries, canonical answers and checks.

`prepare` parses an item's inputs and returns one zero-argument callable per
query; it is the set-up work.  `answer` turns a query's return value into a
JSON-able canonical form, `digest` hashes it, and `check` verifies it from
definitions, the oracles in `chipfiring.oracles`, or witness replay.  None
of this runs inside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

from chipfiring import (
    ChipFiringError,
    classify_halting,
    dist_nonhalt,
    dist_rec,
    distance,
    fire_sequence,
    is_recurrent,
    is_winnable,
    min_target_set,
    multigraph,
    oracles,
    rank,
    rank_definitional,
    recurrent_permutation,
    reductions,
    ts_subset_enumeration,
    tss,
)
from chipfiring.distance import effective_divisors
from chipfiring.oracles import default_winnability_bound, winnable_within_bound

# answers at most this large are re-derived by the exponential oracles
SMALL = 2

CLI_TRACED = Path(__file__).resolve().parent / "cli_traced.py"


class Query:
    """One query of a pass: its pool key, inputs and the call to time."""

    __slots__ = ("key", "op", "graph", "arg", "call")

    def __init__(self, key, op, graph, arg, call):
        self.key = key
        self.op = op
        self.graph = graph
        self.arg = arg
        self.call = call


def _chain(g, tau):
    # module attributes, looked up per call, so a tracer's rebinding is seen
    reports = oracles.verify_reduction_chain(g, tau)
    inst = reductions.reduce_tss_to_rec(g, tau)
    best = tss.min_target_set(g, tau)
    lifted = reductions.lift_target_set(inst, best)
    witness = distance.dist_rec(inst.gprime, inst.x).witness
    extracted = reductions.extract_target_set(inst, witness)
    return reports, best, lifted, witness, extracted


LIBRARY_OPS = {
    "classify": classify_halting,
    "recurrent": is_recurrent,
    "winnable": is_winnable,
    "rank": rank,
    "dist_rec": dist_rec,
    "dist_nonhalt": dist_nonhalt,
    "tss": min_target_set,
}


def _library_call(op, g, arg):
    arg = tuple(arg)
    if op == "chain":
        return lambda: _chain(g, arg)
    # look the function up at call time so a tracer's rebinding is seen
    fn = LIBRARY_OPS[op]
    module = sys.modules[fn.__module__]
    name = fn.__name__
    return lambda: getattr(module, name)(g, arg)


def _cli_call(argv, workdir: Path, env: dict, spans: Path | None, tag: str):
    def call():
        if spans is None:
            cmd = [sys.executable, "-m", "chipfiring.cli", *argv]
        else:
            cmd = [sys.executable, str(CLI_TRACED), repr(time.monotonic()),
                   str(spans / f"{tag}.json"), *argv]
        done = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True)
        return done.returncode, done.stdout

    return call


def prepare(workload: str, kind: str, index: int, item: dict, workdir: Path | None = None,
            env: dict | None = None, spans: Path | None = None) -> list[Query]:
    """Parse and build every input of an item; return its queries.

    cli items write their input files under `workdir` and run with `env`;
    with `spans`, each CLI process is traced and writes its spans there.
    """
    base = f"{kind}/{index}"
    if workload == "cli":
        itemdir = workdir / f"{kind}-{index}"
        itemdir.mkdir(parents=True, exist_ok=True)
        for name, text in item["files"].items():
            (itemdir / name).write_text(text)
        multigraph.parse_graph(item["files"]["g.txt"])  # the instance must parse
        call = _cli_call(item["argv"], itemdir, env, spans, f"{kind}-{index}")
        return [Query(f"{base}/0", "cli", None, item["argv"], call)]
    graphs = [multigraph.parse_graph(text) for text in item["graphs"]]
    return [
        Query(f"{base}/{j}", op, graphs[gi], tuple(arg), _library_call(op, graphs[gi], arg))
        for j, (op, gi, arg) in enumerate(item["queries"])
    ]


# --------------------------------------------------------------- answers ---

def answer(op: str, result):
    """Canonical JSON-able form of a query's return value."""
    if op == "classify":
        if result.is_halting:
            return {"kind": result.kind, "stable": list(result.stable)}
        w = result.witness
        return {"kind": result.kind, "order": list(w.firing_order),
                "counts": list(w.fire_counts), "final": list(w.final)}
    if op == "recurrent":
        ok, trace = result
        return {"recurrent": ok, "order": list(trace.firing_order) if ok else None}
    if op in ("winnable", "rank"):
        return result
    if op in ("dist_rec", "dist_nonhalt"):
        return result.to_json()
    if op == "tss":
        return {"size": result.size, "members": list(result.members)}
    if op == "chain":
        reports, best, lifted, witness, extracted = result
        return {
            "reports": [[r.quantity, r.pipeline, r.oracle, r.agree] for r in reports],
            "members": list(best.members),
            "lifted": list(lifted),
            "witness": list(witness),
            "extracted": list(extracted.members),
        }
    code, stdout = result
    return {"code": code, "stdout": stdout}


def digest(ans) -> str:
    text = json.dumps(ans, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------- checks ---

def _activates_all(g, tau, seed) -> bool:
    """Threshold activation by rounds, written independently of `tss`."""
    active = set(seed) | {v for v in range(g.n) if tau[v] == 0}
    grew = True
    while grew:
        grew = False
        for v in range(g.n):
            if v not in active and sum(1 for u, _m in g.nbrs[v] if u in active) >= tau[v]:
                active.add(v)
                grew = True
    return len(active) == g.n


def _replays(g, f, order, final) -> bool:
    try:
        return fire_sequence(g, f, order, require_legal=True) == tuple(final)
    except ChipFiringError:
        return False


def _nonhalting(g, h) -> bool:
    # h is non-halting exactly when deg - 1 - h is not winnable
    comp = tuple(d - 1 - x for d, x in zip(g.degrees, h))
    return not winnable_within_bound(g, comp, default_winnability_bound(g, comp))


def check(q: Query, ans, thorough: bool = False) -> str | None:
    """None when the answer is verified, otherwise the reason it is wrong.

    `thorough` adds oracle checks too slow for every run; the pool recorder
    uses it before recording a digest.
    """
    g, f, op = q.graph, q.arg, q.op
    if op == "classify":
        if ans["kind"] == "halting":
            s = ans["stable"]
            if any(x >= d for x, d in zip(s, g.degrees)):
                return "stable divisor has an active vertex"
            if sum(s) != sum(f):
                return "stable divisor changed the degree"
            return None
        counts = [0] * g.n
        for v in ans["order"]:
            counts[v] += 1
        if counts != ans["counts"] or min(counts) < 1:
            return "witness counts do not cover every vertex"
        if not _replays(g, f, ans["order"], ans["final"]):
            return "non-halting witness does not replay legally"
        return None
    if op == "recurrent":
        if ans["recurrent"] and (sorted(ans["order"]) != list(range(g.n))
                                 or not _replays(g, f, ans["order"], f)):
            return "recurrence witness does not replay"
        return None
    if op == "winnable":
        if sum(f) >= g.edge_count - g.n + 1 and not ans:
            return "degree >= genus is winnable by Riemann-Roch"
        if thorough and ans != winnable_within_bound(g, f, default_winnability_bound(g, f)):
            return "winnable_within_bound disagrees"
        return None
    if op == "rank":
        if not -1 <= ans <= max(-1, sum(f)):
            return "rank out of range"
        if (ans <= SMALL or thorough) and rank_definitional(g, f) != ans:
            return "rank_definitional disagrees"
        return None
    if op in ("dist_rec", "dist_nonhalt"):
        value, w = ans["value"], ans["witness"]
        if min(w) < 0 or sum(w) != value:
            return "witness is not effective of the stated degree"
        reached = tuple(a + b for a, b in zip(f, w))
        if op == "dist_rec":
            if not recurrent_permutation(g, reached):
                return "f + witness is not recurrent"
            if value <= SMALL or thorough:
                for k in range(value):
                    for cand in effective_divisors(k, g.n):
                        if recurrent_permutation(g, tuple(a + b for a, b in zip(f, cand))):
                            return "a smaller top-up is recurrent"
            return None
        if not _nonhalting(g, reached):
            return "f + witness halts"
        if value <= SMALL or thorough:
            comp = tuple(d - 1 - x for d, x in zip(g.degrees, f))
            if rank_definitional(g, comp) + 1 != value:
                return "rank_definitional of the complement disagrees"
        return None
    if op == "tss":
        if ts_subset_enumeration(g, f) != ans["size"] or len(ans["members"]) != ans["size"]:
            return "ts_subset_enumeration disagrees"
        if not _activates_all(g, f, ans["members"]):
            return "members do not activate the graph"
        return None
    if op == "chain":
        bad = [r[0] for r in ans["reports"] if not r[3]]
        if bad:
            return "chain disagrees: " + ", ".join(bad)
        if len(ans["extracted"]) != len(ans["members"]) or not _activates_all(g, f, ans["extracted"]):
            return "round trip did not return a minimum target set"
        return None
    code, stdout = ans["code"], ans["stdout"]
    if code != 0:
        return f"exit code {code}"
    try:
        lines = [json.loads(line) for line in stdout.splitlines()]
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if not lines or any(obj.get("agree") is False for obj in lines):
        return "an oracle disagrees"
    return None


def forced(q: Query) -> bool:
    """Whether a chain instance has a vertex with tau(v) = deg(v) + 1."""
    return any(t > d for t, d in zip(q.arg, q.graph.degrees))
