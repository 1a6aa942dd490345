"""Independent brute-force oracles that certify the main pipeline.

Everything here re-derives its answer from definitions, deliberately sharing
no game-engine, closure or top-up enumeration code with the other modules:
the greedy engine is checked against permutation search, the target-set
solver against an independent subset scan and, on trees of any size, a
dynamic program, and the rank pipeline against the raw definition with
winnability decided by a bounded search over firing-count vectors.  Each
oracle call builds what it reads, a dense multiplicity matrix or adjacency
lists, from the public `Multigraph.edges()`, never reading the adjacency
lists the pipeline runs on.

The bounded winnability search asks whether some integer vector z with
entries in [0, bound] makes f minus the net chip flow of firing each vertex
z(v) times effective.  Uniformly shifting z changes nothing (firing everyone
once is the identity), so searching vectors with some zero entry loses no
generality, and any larger solution can be shifted down into the box unless
it exceeds the bound everywhere.  The search is complete only within the
box, which is why callers cross-check against the game-based path instead of
trusting a "not winnable within bound" verdict blindly.  Two strategies are
provided: a literal product enumeration, and an equivalent descent to the
componentwise-maximal candidate (feasible vectors are closed under
componentwise max, so the box holds a solution exactly when the descent
lands on one).  Both decide the same predicate; the descent is the default
and the enumeration pins it down in tests.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, combinations_with_replacement, product
from json import dumps
from operator import eq, gt
from typing import NamedTuple

from .distance import dist_nonhalt, dist_rec
from .errors import GraphStructureError, SizeGuardError
from .multigraph import Multigraph, graph_to_text
from .reductions import reduce_tss_to_nonhalt
from .tss import min_target_set, validate_thresholds

PERMUTATION_GUARD = 9
SUBSET_GUARD = 20
EXHAUSTIVE_GUARD = 200_000


class OracleReport(NamedTuple):
    """One cross-checked quantity; `agree` is the verdict, never swallowed."""

    quantity: str
    pipeline: int
    oracle: int
    agree: bool
    fingerprint: str

    def json_line(self) -> str:
        return dumps(
            {
                "quantity": self.quantity,
                "pipeline": self.pipeline,
                "oracle": self.oracle,
                "agree": self.agree,
                "instance": self.fingerprint,
            },
            sort_keys=True,
        )


def instance_fingerprint(g: Multigraph, values) -> str:
    import hashlib  # not at module level: loading OpenSSL slows every CLI start

    payload = graph_to_text(g) + "|" + " ".join(str(x) for x in values)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _dense(g: Multigraph) -> list[list[int]]:
    mult = [[0] * g.n for _ in range(g.n)]
    for u, v, m in g.edges():
        mult[u][v] = mult[v][u] = m
    return mult


def _top_ups(k: int, n: int):
    """Every effective divisor of degree k on n vertices, one at a time,
    chips on the lowest vertex ids first (descending lexicographic order):
    each multiset of k vertices, in the order itertools gives, counted
    into a vector."""
    for spots in combinations_with_replacement(range(n), k):
        top = [0] * n
        for v in spots:
            top[v] += 1
        yield tuple(top)


def recurrent_permutation(g: Multigraph, f) -> bool:
    """Whether some permutation of the vertices is a legal firing sequence
    from f, by depth-first search over all orders (illegal prefixes are
    abandoned, which discards no legal permutation)."""
    g.require_connected()
    if g.n > PERMUTATION_GUARD:
        raise SizeGuardError(f"permutation search is limited to {PERMUTATION_GUARD} vertices")
    n = g.n
    degs = g.degrees
    mult = _dense(g)
    chips = list(f)
    used = bytearray(n)

    def search(depth: int) -> bool:
        if depth == n:
            return True
        for v in range(n):
            if used[v] or chips[v] < degs[v]:
                continue
            used[v] = 1
            row = mult[v]
            chips[v] -= degs[v]
            for u in range(n):
                chips[u] += row[u]
            if search(depth + 1):
                return True
            for u in range(n):
                chips[u] -= row[u]
            chips[v] += degs[v]
            used[v] = 0
        return False

    return search(0)


def ts_subset_enumeration(g: Multigraph, tau) -> int:
    """Exact minimum target set size by scanning subsets in increasing size,
    with a from-scratch round-based activation recount."""
    tau = validate_thresholds(g, tau)
    if g.n > SUBSET_GUARD:
        raise SizeGuardError(f"subset enumeration is limited to {SUBSET_GUARD} vertices")
    n = g.n
    mult = _dense(g)
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            active = set(subset) | {v for v in range(n) if tau[v] == 0}
            changed = True
            while changed:
                changed = False
                for v in range(n):
                    if v in active:
                        continue
                    hot = sum(1 for u in active if mult[v][u])
                    if hot >= tau[v]:
                        active.add(v)
                        changed = True
            if len(active) == n:
                return size
    raise AssertionError("unreachable: the full vertex set activates everything")


def ts_tree_dp(g: Multigraph, tau) -> int:
    """Exact minimum target set size on a tree, in linear time up to the
    sort of each vertex's children (Chen 2009), by a dynamic program on
    the tree rooted at vertex 0.

    a[v] is the fewest seeds in v's subtree when v activates before its
    parent, b[v] the same when the parent is active first, so b[v] <= a[v].
    Seeding v costs 1 + sum b[c] over its children c.  Otherwise a child
    counts toward tau(v) only if it activates first, at cost a[c] instead
    of b[c], so a[v] is sum b[c] plus the tau(v) smallest a[c] - b[c], and
    b[v] the same with max(0, tau(v) - 1) of them, either impossible when v
    has fewer children.  Each takes the cheaper option; the answer is
    a[0].  A forced vertex has fewer children than its threshold, so it
    is seeded."""
    tau = validate_thresholds(g, tau)
    g.require_connected()
    n = g.n
    edges = g.edges()
    if len(edges) != n - 1:
        raise GraphStructureError("the tree program needs a tree")
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v, _m in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    order = [0]
    for v in order:  # breadth first: each vertex after its parent
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    a, b = [0] * n, [0] * n
    for v in reversed(order):
        kids = [u for u in adj[v] if u != parent[v]]
        base = sum(b[c] for c in kids)
        gaps = sorted(a[c] - b[c] for c in kids)
        seeded = base + 1
        k = tau[v]
        a[v] = min(seeded, base + sum(gaps[:k])) if k <= len(gaps) else seeded
        k = max(0, k - 1)
        b[v] = min(seeded, base + sum(gaps[:k])) if k <= len(gaps) else seeded
    return a[0]


def default_winnability_bound(g: Multigraph, f) -> int:
    deficit = sum(max(0, d - x) for d, x in zip(g.degrees, f))
    positive = sum(x for x in f if x > 0)
    return 2 * (deficit + positive + 1)


def winnable_within_bound(g: Multigraph, f, bound: int) -> bool:
    """Whether some firing-count vector z in [0, bound]^n leaves f effective.

    Descends from the all-bound vector: whenever a vertex would be left
    negative, its count is lowered to the largest value its neighbors still
    support.  Feasible vectors are closed under componentwise max, so this
    lands on the componentwise-maximal feasible vector if any exists, and a
    count forced below zero proves the box empty.
    """
    f = tuple(f)
    if sum(f) < 0:
        return False  # firing preserves degree; nothing effective is reachable
    if all(x >= 0 for x in f):
        return True
    n = g.n
    degs = g.degrees
    mult = _dense(g)
    z = [bound] * n
    pending = deque(range(n))
    queued = bytearray([1] * n)
    while pending:
        v = pending.popleft()
        queued[v] = 0
        if degs[v] == 0:
            if f[v] < 0:
                return False
            continue
        row = mult[v]
        incoming = f[v]
        for u in range(n):
            if row[u]:
                incoming += row[u] * z[u]
        allowed = incoming // degs[v]
        if allowed < z[v]:
            if allowed < 0:
                return False
            z[v] = allowed
            for u in range(n):
                if row[u] and not queued[u]:
                    queued[u] = 1
                    pending.append(u)
    return True


def winnable_exhaustive(g: Multigraph, f, bound: int) -> bool:
    """Literal enumeration of firing-count vectors with one coordinate pinned
    to zero; reference implementation for the descent above."""
    f = tuple(f)
    n = g.n
    if (bound + 1) ** n > EXHAUSTIVE_GUARD:
        raise SizeGuardError("exhaustive winnability enumeration would be too large")
    degs = g.degrees
    mult = _dense(g)
    for z in product(range(bound + 1), repeat=n):
        if min(z) != 0:
            continue  # a uniform shift of z induces the same net flow
        ok = True
        for v in range(n):
            flow = degs[v] * z[v]
            row = mult[v]
            for u in range(n):
                if row[u]:
                    flow -= row[u] * z[u]
            if f[v] - flow < 0:
                ok = False
                break
        if ok:
            return True
    return False


def is_least_recurrent_top_up(g: Multigraph, f, y) -> bool:
    """Whether f + y is recurrent and no effective top-up of lower degree
    makes f recurrent.  Only degree deg y - 1 is scanned: an order firing
    every vertex exactly once stays legal with more chips, so adding chips
    to a recurrent top-up of lower degree would give one of that degree."""
    def recurrent(z):
        return recurrent_permutation(g, tuple(a + b for a, b in zip(f, z)))

    return recurrent(y) and not (sum(y) and any(map(recurrent, _top_ups(sum(y) - 1, g.n))))


def rank_definitional(g: Multigraph, f) -> int:
    """Rank straight from the definition: one less than the least degree of
    an effective g with f - g not winnable, independent of the game engine."""
    g.require_connected()
    f = tuple(f)
    if sum(f) < 0:
        return -1
    bound = default_winnability_bound(g, f)
    for k in range(sum(f) + 2):
        for cand in _top_ups(k, g.n):
            reduced = tuple(a - b for a, b in zip(f, cand))
            if not winnable_within_bound(g, reduced, bound):
                return k - 1
    raise AssertionError("unreachable: removing deg(f)+1 chips leaves a negative degree")


def _run_chain(g: Multigraph, tau) -> tuple:
    """The chain's reports and what they were read from, as the tuple
    (reports, least target set, bundle instance, apex instance, dist_rec
    result on the bundle gadget, dist_nonhalt result on the apex gadget)."""
    tau = validate_thresholds(g, tau)
    fp = instance_fingerprint(g, tau)
    least = min_target_set(g, tau)
    ts_oracle = ts_subset_enumeration(g, tau)
    apex_inst, bundle_inst = reduce_tss_to_nonhalt(g, tau)
    rec = dist_rec(bundle_inst.gprime, bundle_inst.x)
    nonhalt = dist_nonhalt(apex_inst.gpp, apex_inst.fpp)
    ts, forced = least.size, len(bundle_inst.forced)
    rows = [
        ("target-set-size/subset-oracle", ts, ts_oracle, eq),
        ("target-set-size/dist-rec", ts, rec.value + forced, eq),
        ("dist-rec/dist-nonhalt", rec.value, nonhalt.value, eq),
        ("target-set-size/dist-nonhalt", ts, nonhalt.value + forced, eq),
        ("bundle-margin (N vs dist-rec + 1)", bundle_inst.N, rec.value + 1, gt),
        ("apex-margin (M vs dist-nonhalt)", apex_inst.M, nonhalt.value, gt),
    ]
    reports = [OracleReport(quantity, pipeline, oracle, holds(pipeline, oracle), fp)
               for quantity, pipeline, oracle, holds in rows]
    return reports, least, bundle_inst, apex_inst, rec, nonhalt


def verify_reduction_chain(g: Multigraph, tau) -> list[OracleReport]:
    """Run every leg of the target-set-to-chip-distance chain on one instance
    and report each equality and safety margin; disagreements are returned,
    never swallowed.  The target-set size must equal each distance plus the
    number of forced vertices (tau = deg + 1), which the gadget seeds itself."""
    return _run_chain(g, tau)[0]
