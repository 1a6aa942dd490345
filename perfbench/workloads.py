"""Seeded instance pools for the four benchmark workloads.

Every input is made here, from `random.Random`, and reaches the library as
text through `parse_graph`; nothing comes from `chipfiring.families`.

Each workload draws from fixed pools of items.  Item `i` of pool `(workload,
kind)` is generated from the string seed `"<workload>/<kind>/<i>"`, so the
pools are the same on every machine and every commit.  `pool.json` records,
for every item, the costs measured when the pool was recorded, of the item
and of each query (used only to stratify the draw) and, for game, solve and
cli, a digest of every answer (checked on every run).  A run with seed `s`
splits each pool into cost strata and draws one item per stratum, keeping
only draws whose recorded cost, query median and 90th percentile are close
to those of a typical pass (see `select`), so every run issues the same mix
of cheap and expensive queries and the same amount of work; the seed picks
which items, and their order.  A run repeats its pass, whole passes only.

The workloads, and why each was chosen:

* game  -- long legal games on sparse random multigraphs.  The game engine
  and graph construction do nearly all the work; distance, tss and the
  reductions do none.
* solve -- the exact solvers (rank, dist_rec, dist_nonhalt, min_target_set)
  on small graphs with a cold `lru_cache`.  The exponential enumeration does
  the work; the game engine only plays boards of at most 8 vertices, so an
  engine structure that wins at n = 1000 but costs per call shows up here.
* chain -- the gadget chain, min TSS -> dist-rec -> dist-nonhalt, with a
  witness round trip through the bundle gadget.  Uses the distance layer on
  20-40 vertex gadget graphs with heavy multiplicities and small answers,
  and is the only workload for `reductions` and `oracles`.  Thresholds stay
  in [0, deg], where the chain is correct; the known forced-vertex defect
  is measured on a fixed probe instead (see `_chain_item`).
* cli   -- one `python -m chipfiring.cli ... --format json` process per
  query over small instances, covering every subcommand.  Interpreter start,
  import and argparse dominate; it pins the stdout bytes of the CLI.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from random import Random

POOL_FILE = Path(__file__).resolve().parent / "pool.json"

# (workload, kind) -> (pool size, items drawn per run).  On the hardware the
# baseline was recorded on, a solve or cli pass takes about 12 s, so a 24 s
# run measures two whole passes; chain's pass takes about 5 s, so a run
# measures four or five; game's takes about 22 s, one pass, since its 90th
# percentile lies among 32 long games and fewer would make it jumpy.
POOLS = {
    "game": {"mid": (208, 32), "big": (24, 4)},
    "solve": {"rank": (320, 112), "dist_rec": (320, 112), "dist_nonhalt": (320, 112), "tss": (320, 112)},
    "chain": {"n3": (1500, 1080), "n4": (4000, 2800), "n5": (4000, 2800)},
    "cli": {"cli": (600, 100)},
}

WORKLOADS = tuple(POOLS)


# ---------------------------------------------------------------- graphs ---

def graph_text(n: int, edges) -> str:
    """The library's text format; repeated pairs are merged."""
    mult: dict[tuple[int, int], int] = {}
    for u, v, m in edges:
        key = (min(u, v), max(u, v))
        mult[key] = mult.get(key, 0) + m
    lines = [str(n)] + [f"{u} {v} {m}" for (u, v), m in sorted(mult.items())]
    return "\n".join(lines) + "\n"


def degrees(n: int, edges) -> list[int]:
    out = [0] * n
    for u, v, m in edges:
        out[u] += m
        out[v] += m
    return out


def sparse_multigraph(rng: Random, n: int, extra: int, max_mult: int = 3):
    """A random spanning tree plus `extra` random bundles, multiplicities
    1..max_mult; connected by construction."""
    edges = [(rng.randrange(v), v, rng.randint(1, max_mult)) for v in range(1, n)]
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.randint(1, max_mult)))
    return edges


def connected_simple_graph(rng: Random, n: int, p: float = 0.5):
    """A labelled G(n, p) graph, redrawn until connected."""
    while True:
        edges = [(u, v, 1) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for u, v, _m in edges:
                for a, b in ((u, v), (v, u)):
                    if a == x and b not in seen:
                        seen.add(b)
                        stack.append(b)
        if len(seen) == n:
            return edges


def simple_tree_plus(rng: Random, n: int, extra: int):
    """A random simple connected graph: spanning tree plus `extra` distinct
    non-tree edges."""
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    tree = set(pairs)
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    pairs |= set(rng.sample(candidates, min(extra, len(candidates))))
    return [(u, v, 1) for u, v in sorted(pairs)]


def composition(rng: Random, total: int, n: int) -> list[int]:
    """`total` chips dropped one at a time on uniformly random vertices."""
    out = [0] * n
    for _ in range(total):
        out[rng.randrange(n)] += 1
    return out


# ----------------------------------------------------------------- items ---
#
# An item is {"graphs": [text, ...], "queries": [[op, graph index, arg], ...]}
# for the library workloads, and {"files": {name: text}, "argv": [...]} for
# cli.  Divisors and thresholds are lists of ints.

def _game_mid(rng: Random) -> dict:
    # A sparse multigraph on 200-400 vertices carries the long games; a small
    # one on 20-40 vertices carries winnability, whose game length grows
    # linearly with the chip magnitude.
    n = rng.randint(200, 400)
    edges = sparse_multigraph(rng, n, n // 2)
    d = degrees(n, edges)
    # deg - 1 with k vertices one chip short and k + 1 one chip over: degree
    # above 2|E| - n, so the game never halts, and it takes 10^4-10^5 firings
    # before every vertex has fired.
    k = rng.randint(3, 8)
    picks = rng.sample(range(n), 2 * k + 1)
    long_f = [x - 1 for x in d]
    for v in picks[:k]:
        long_f[v] -= 1
    for v in picks[k:]:
        long_f[v] += 1
    quick = []
    for _ in range(2):
        f = [max(0, x - 1 - rng.randint(1, 3)) for x in d]
        for v in rng.sample(range(n), 3):
            f[v] += 2 * d[v]
        quick.append(f)
    burn = [x - 1 for x in d]
    burn[rng.randrange(n)] += 1  # maximal stable plus one chip: recurrent
    mixed = [x - 1 for x in d]
    for v in rng.sample(range(n), rng.randint(1, 4)):
        mixed[v] -= 1
    mixed[rng.randrange(n)] += 1
    sn = rng.randint(20, 40)
    sedges = sparse_multigraph(rng, sn, sn // 2)
    genus = sum(m for _u, _v, m in sedges) - sn + 1
    a, b = rng.sample(range(sn), 2)
    chips = rng.randint(2000, 4000)
    lose = [0] * sn
    lose[a], lose[b] = chips, -chips
    win = list(lose)
    win[a] += genus  # degree = genus: winnable by Riemann-Roch
    return {
        "graphs": [graph_text(n, edges), graph_text(sn, sedges)],
        "queries": [
            ["classify", 0, long_f],
            ["classify", 0, quick[0]],
            ["classify", 0, quick[1]],
            ["recurrent", 0, burn],
            ["recurrent", 0, mixed],
            ["winnable", 1, lose],
            ["winnable", 1, win],
        ],
    }


def _game_big(rng: Random) -> dict:
    # Large graphs with short halting games: construction and the per-firing
    # scan dominate.
    n = rng.randint(1000, 2000)
    edges = sparse_multigraph(rng, n, n // 2)
    d = degrees(n, edges)
    queries = []
    for _ in range(2):
        f = [max(0, x - 1 - rng.randint(1, 3)) for x in d]
        for v in rng.sample(range(n), 3):
            f[v] += 2 * d[v]
        queries.append(["classify", 0, f])
    return {"graphs": [graph_text(n, edges)], "queries": queries}


def _solve_item(rng: Random, kind: str) -> dict:
    if kind == "tss":
        n = rng.randint(10, 16)
        edges = simple_tree_plus(rng, n, rng.randint(n // 2, n))
        tau = [max(0, x - rng.randint(0, 1)) for x in degrees(n, edges)]
        return {"graphs": [graph_text(n, edges)], "queries": [["tss", 0, tau]]}
    n = rng.randint(5, 8)
    edges = sparse_multigraph(rng, n, rng.randint(1, 4))
    d = degrees(n, edges)
    # the search bound upper_bound_to_recurrent of the searched divisor h is
    # the chip deficit below the degree vector; draw it in [16, 24]
    h = [x - y for x, y in zip(d, composition(rng, rng.randint(16, 24), n))]
    if kind == "rank":
        f = [x - 1 - y for x, y in zip(d, h)]  # rank searches from deg - 1 - f = h
    else:
        f = h
    return {"graphs": [graph_text(n, edges)], "queries": [[kind, 0, f]]}


def _chain_item(rng: Random, kind: str) -> dict:
    # tau(v) = deg(v) + 1 makes v a forced vertex: validate_thresholds
    # accepts it, and the bundle gadget is known to disagree on it.  The
    # timed pass draws tau from [0, deg], where every operation must pass;
    # the forced instances are the fixed probe below, run untimed in the
    # traced run and reported as chain.forced_disagreements, so the defect
    # stays visible without counting as failed operations.  On 5 vertices a
    # forced search is unbounded (K6 with tau = deg already exhausts 8 GB
    # through the CLI's own guard), and on 4 vertices three or four forced
    # vertices cost 0.05-19 s and up to 3.1 GB each (K4 with tau = deg + 1
    # everywhere), so the probe forces one vertex on 3-4 vertex graphs.
    if kind == "forced":
        n = rng.randint(3, 4)
    else:
        n = {"n3": 3, "n4": 4, "n5": 5}[kind]
    edges = connected_simple_graph(rng, n)
    d = degrees(n, edges)
    tau = [rng.randint(0, x) for x in d]
    if kind == "forced":
        v = rng.randrange(n)
        tau[v] = d[v] + 1
    return {"graphs": [graph_text(n, edges)], "queries": [["chain", 0, tau]]}


# chain instances with one forced vertex, kind "forced" of make_item
FORCED_PROBE = 24


CLI_COMMANDS = (
    "rank", "winnable", "halting", "recurrent", "dist-rec", "dist-nonhalt",
    "tss", "trace", "reduce", "subdivide", "verify-chain",
)


def _divisor_text(f) -> str:
    return " ".join(str(x) for x in f) + "\n"


def _cli_item(rng: Random, i: int) -> dict:
    command = CLI_COMMANDS[i % len(CLI_COMMANDS)]
    flags = ["--format", "json"]
    if command in ("tss", "verify-chain") or (command == "reduce" and i % 3 != 1):
        n = rng.randint(3, 4) if command != "tss" else rng.randint(4, 8)
        edges = connected_simple_graph(rng, n)
        second = [rng.randint(0, x) for x in degrees(n, edges)]
    else:
        n = rng.randint(3, 6)
        edges = sparse_multigraph(rng, n, rng.randint(0, 2), max_mult=2)
        second = [rng.randint(-2, x + 1) for x in degrees(n, edges)]
    files = {"g.txt": graph_text(n, edges), "x.txt": _divisor_text(second)}
    if command == "reduce":
        kind = ("tss-to-rec", "rec-to-nonhalt", "tss-to-nonhalt")[i % 3]
        argv = ["reduce", kind, "g.txt", "x.txt"]
    else:
        argv = [command, "g.txt", "x.txt"]
    if command in ("rank", "recurrent", "dist-rec", "tss"):
        flags.append("--oracle")
    if command in ("halting", "recurrent", "dist-rec", "dist-nonhalt"):
        flags.append("--witness")
    return {"files": files, "argv": argv + flags}


def make_item(workload: str, kind: str, i: int) -> dict:
    rng = Random(f"{workload}/{kind}/{i}")
    if workload == "game":
        return _game_mid(rng) if kind == "mid" else _game_big(rng)
    if workload == "solve":
        return _solve_item(rng, kind)
    if workload == "chain":
        return _chain_item(rng, kind)
    return _cli_item(rng, i)


# ------------------------------------------------------------- selection ---

def load_pool() -> dict:
    return json.loads(POOL_FILE.read_text())


def _draw(rng: Random, cost: list[float], bounds: list[int]) -> list[int]:
    """One position per stratum of the cost-ranked pool; a draw whose total
    cost is more than 1% off its expectation is drawn again (the closest of
    200 draws is kept otherwise)."""
    target = sum(sum(cost[a:b]) / (b - a) for a, b in zip(bounds, bounds[1:]))
    best = None
    for _attempt in range(200):
        slots = [rng.randrange(a, b) for a, b in zip(bounds, bounds[1:])]
        miss = abs(sum(cost[r] for r in slots) - target)
        if best is None or miss < best[0]:
            best = (miss, slots)
        if miss <= 0.01 * target:
            break
    return best[1]


def _latency_quantiles(items: dict, order) -> tuple[float, float]:
    """Median and 90th percentile of the recorded query costs of a pass."""
    ms = [x for kind, i in order for x in items[kind][str(i)]["query_ms"]]
    q = statistics.quantiles(ms, n=10, method="inclusive")
    return q[4], q[-1]


def select(workload: str, seed: int, pool: dict) -> list[tuple[str, int]]:
    """The (kind, index) items of one run's pass, in issue order.

    Each kind's pool is sorted by recorded cost and cut into as many strata
    as items are drawn; one item comes from each stratum (`_draw`), and the
    costliest item is a stratum of its own, so every pass holds the same
    amount of work.  The latency percentiles fall where query classes
    overlap (game's p90 lies between the long games and winnability), so a
    pass whose recorded query median or 90th percentile is more than 2% off
    that of the typical pass, the middle item of every stratum, is drawn
    again too (the closest of 50 is kept otherwise).
    """
    rng = Random(seed)
    items = pool[workload]
    strata = {}
    for kind, (size, draw) in POOLS[workload].items():
        ranked = sorted(range(size), key=lambda i: (items[kind][str(i)]["cost_ms"], i))
        # the costliest item is a stratum of its own, drawn every run: pools
        # have one outlier several times costlier than the next
        bounds = [(s * (size - 1)) // (draw - 1) for s in range(draw)] + [size]
        strata[kind] = (ranked, bounds, [items[kind][str(i)]["cost_ms"] for i in ranked])
    typical = [(kind, ranked[(a + b) // 2])
               for kind, (ranked, bounds, _cost) in strata.items()
               for a, b in zip(bounds, bounds[1:])]
    want = _latency_quantiles(items, typical)
    best = None
    for _attempt in range(50):
        order = []
        for kind, (ranked, bounds, cost) in strata.items():
            order.extend((kind, ranked[r]) for r in _draw(rng, cost, bounds))
        got = _latency_quantiles(items, order)
        miss = max(abs(g / w - 1) for g, w in zip(got, want))
        if best is None or miss < best[0]:
            best = (miss, order)
        if miss <= 0.02:
            break
    order = best[1]
    rng.shuffle(order)
    return order
