"""Divisors and the chip-firing game engine.

A divisor assigns an integer chip count to every vertex; negative counts are
permitted everywhere, only the legality of a firing depends on the active
test (a vertex is active when it holds at least its degree in chips).

Halting classification simulates a legal game and stops on one of two
conditions: no vertex is active (the game halts, and the stable result is
unique regardless of the firing order), or every vertex has fired at least
once (the game never halts).  The two stop conditions are exhaustive on a
connected graph: in an endless game some vertex fires infinitely often, and
a vertex that never fired would receive chips from an infinitely-firing
neighbor without bound, impossible because the total chip count is conserved
by firing.  So an endless game marks every vertex as fired after finitely
many steps, and the simulation always terminates.  No step cap is imposed.

The game engine `_play`, like `_cascade` and `_least_top_up` below, works
on slack, degree minus chips, so a vertex is active when its slack is <= 0.
It keeps the sorted list of active vertices between firings instead of
scanning all n: firing v changes the slack of v and its neighbors only, so
only they can leave or join the list.  The default policy fires the head of
the list and deletes it without a search; the seeded policy draws an index
into it with `rng.randrange`, the draw `rng.choice` makes, so it fires the
vertex `choice` would pick.  Both see exactly the list a scan would build,
so witnesses do not depend on how it is kept, and a firing costs
O(deg v + number of active vertices).  A heap would serve the lowest index
but not the seeded draw.  Active flags in a bytearray, searched with
`find`, play long games faster but lose elsewhere: short games slow down,
the seeded draw needs one `find` per active vertex up to the one drawn, and
each `find` returns a fresh int, so above vertex 256 the witness pays for
an int object per firing, where the list hands back the ints the graph
holds.

Recurrence is decided by the exactly-once cascade `_cascade`, the one kernel
behind recurrence, the distance-to-recurrence search and threshold
activation: each vertex fires at most once, as soon as it is active, and the
lowest-indexed eligible vertex goes first, for reproducible witnesses.  The
greedy order is exhaustive by an exchange argument: if greedy stalls with
fired set A but some full exactly-once order exists, the first vertex of
that order outside A has received at least as many chips after greedy's run
(all of A fired once) as it had at its own firing point, so it is active and
greedy could not have stalled.  The permutation-search oracle cross-checks
this at small scale.

The least top-up search `_least_top_up` pays chips into that cascade until
it fires every vertex: distance to recurrence, or minimum target set
selection when a payment is a seed of cost 1.  Deepening the budget, it
tries the vertices in index order, largest payment first and none last, so
it meets least-cost vectors in descending lexicographic order.  It pays no
fired vertex and no vertex beyond its slack: by the exchange argument above
the cascade completes without those chips, so no least-cost vector has them.
It skips only what cannot complete within the budget, so it finds the same
vector: slack above the degree is paid up front (a vertex receives at most
its degree); each edge among unfired vertices delivers once and payments
cover the rest, so paying chips the budget starts at that bound, and with
seeds every branch, the root included, is held to it by the seeds it has
left, each at most the slack of a vertex it may still seed (sorted once per
node); a payment short of a slack, which fires nothing, needs budget left to
pay a later vertex in full, so a vertex neither payment fits is passed over;
and an unseeded vertex must fire once all later vertices are seeded.  Paying
chips, the bound is checked at the root only: the nodes are many and cheap,
and checking each costs more than it cuts.

Winnability is decided by a game whose length does not grow with the chip
count.  Firing keeps the degree, so a negative degree is never winnable,
and Riemann-Roch (Baker-Norine 2007) gives r(f) >= deg f - g with genus
g = |E| - n + 1, so a degree of at least g always is.  In between, the
verdict is the halting classification of the complement degree - 1 - f,
which depends only on the linear equivalence class of f, so f may first be
replaced by f - L x for any integer vector x.  `_reduce` takes x as the
floor of an approximate solution of the Laplacian system grounded at vertex
0 (Baker-Shokrieh 2013), found by conjugate gradients over the adjacency
lists: were the solution exact, the residual off vertex 0 would be L applied
to fractional parts in [0, 1), smaller than each degree, and the error of
a float solution is worked off by solving again on the exact integer
residual, right-hand sides beyond float range shifted into it first.  The
floats only choose x: every chip update is exact integer arithmetic and
every integer x gives an equivalent divisor, so rounding can cost time but
never change the verdict.

A single degree-0 vertex is a degenerate arena: it is active whenever its
chip count is nonnegative and firing it changes nothing, so such a divisor
is non-halting when the count is >= 0 and halting otherwise.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from itertools import chain, count
from operator import mul
from random import Random
from typing import NamedTuple

from .errors import FormatError, GraphStructureError, IllegalFiringError
from .multigraph import Multigraph, _decode_json, _int_line, _is_int

__all__ = [
    "Divisor", "GameTrace", "HaltVerdict", "HALTING", "NON_HALTING", "classify_halting",
    "fire_sequence", "is_recurrent", "is_winnable", "winnability_complement",
]

Divisor = tuple[int, ...]

HALTING = "halting"
NON_HALTING = "non-halting"


def validate_divisor(g: Multigraph, f) -> Divisor:
    f = tuple(f)
    if len(f) != g.n:
        raise GraphStructureError(f"divisor has {len(f)} entries for a graph on {g.n} vertices")
    for x in f:
        if type(x) is not int and not _is_int(x):
            raise GraphStructureError(f"divisor entries must be integers, got {x!r}")
    return f


def fire_sequence(g: Multigraph, f, seq, require_legal: bool = True) -> Divisor:
    """Fire the vertices of seq in turn, each sending one chip along each
    of its edges; without require_legal, the bare linear-equivalence move.

    With require_legal, the first firing of an inactive vertex raises
    IllegalFiringError carrying its position in the sequence.
    """
    f = validate_divisor(g, f)
    chips = list(f)
    degs = g.degrees
    for pos, v in enumerate(seq):
        g._check_vertex(v)
        if require_legal and chips[v] < degs[v]:
            raise IllegalFiringError(
                f"vertex {v} is not active at position {pos} of the firing sequence", pos
            )
        chips[v] -= degs[v]
        for u, m in g.nbrs[v]:
            chips[u] += m
    return tuple(chips)


class GameTrace(NamedTuple):
    """A legal firing sequence with its histogram and the divisor it reaches."""

    firing_order: tuple[int, ...]
    fire_counts: tuple[int, ...]
    final: Divisor


class HaltVerdict(NamedTuple):
    kind: str
    stable: Divisor | None = None
    witness: GameTrace | None = None

    @property
    def is_halting(self) -> bool:
        return self.kind == HALTING


def _play(degs, nbrs, slack, rng: Random | None = None):
    """Play a legal game in place until it halts or every vertex has fired.

    Works on slack, degree minus chips, as `_cascade` does: a vertex is
    active when its slack is <= 0, firing v raises its slack by its degree
    and lowers each neighbor's by the multiplicity of the edge.  Fires the
    lowest-indexed active vertex, or with an rng the one at the index
    it draws.  Returns (halted, order, counts); `slack` ends as the slack of
    the stable divisor of a halting game, or of the state at the moment the
    last unfired vertex fired in a non-halting one.

    Firing v changes the slack of v and its neighbors only, so the sorted
    list of active vertices is updated there instead of rescanned: v leaves
    it when its slack turns positive, and a neighbor joins when its slack
    drops from positive to <= 0.  It is the list a scan would build, for
    both policies.  Each firing costs O(deg v + active count).
    """
    n = len(slack)
    counts = [0] * n
    order: list[int] = []
    unfired = n
    active = [v for v in range(n) if slack[v] <= 0]
    while active:
        if rng is None:
            v, i = active[0], 0
        else:
            i = rng.randrange(len(active))
            v = active[i]
        s = slack[v] + degs[v]
        slack[v] = s
        if s > 0:
            del active[i]
        for u, m in nbrs[v]:
            x = slack[u]
            slack[u] = x - m
            if 0 < x <= m:
                insort(active, u)
        order.append(v)
        counts[v] += 1
        if counts[v] == 1:
            unfired -= 1
            if unfired == 0:
                return False, order, counts
    return True, order, counts


def _cascade(nbrs, slack, done, start) -> list[int]:
    """Fire every vertex not yet done at most once; return the firing order.

    A vertex is eligible once its slack is <= 0, and firing v lowers the
    slack of each neighbor by the multiplicity of the edge.  The lowest-
    indexed eligible vertex fires first.  `start` lists, in increasing
    order, every vertex that may be eligible before anything fires; each
    other vertex must be done or have slack > 0.  `slack` and `done` are
    updated in place.
    """
    heap = [v for v in start if slack[v] <= 0 and not done[v]]  # sorted, so a heap
    order = []
    while heap:
        v = heappop(heap)
        done[v] = 1
        order.append(v)
        for u, m in nbrs[v]:
            x = slack[u]
            slack[u] = x - m  # done vertices too: `_top_up` reads their slack
            if 0 < x <= m and not done[u]:
                heappush(heap, u)
    return order


def _least_top_up(nbrs, degs, slack, unit) -> tuple[int, tuple[int, ...]]:
    """Least cost, and first least-cost vector in descending lexicographic
    order, of payments after which `_cascade` fires every vertex: p chips
    lower a slack by p at cost p, or with `unit` a seed zeroes it at cost 1.

    Paying chips, the budget starts at `need`, the slack of the unfired
    vertices minus the edges among them; with seeds it starts at 1, and a
    budget whose seeds, at most a slack each, cannot cover `need` fails at
    the root's first unfired vertex, by the per-node bound of `_top_up`."""
    n = len(slack)
    slack, done, pay = list(slack), bytearray(n), [0] * n
    for v, d in enumerate(degs):
        if slack[v] > d:  # short of more than its neighbours send: pay the rest
            pay[v], slack[v] = (1, 0) if unit else (slack[v] - d, d)
    left = n - len(_cascade(nbrs, slack, done, range(n)))
    if left:
        unfired = [v for v in range(n) if not done[v]]
        # each edge among the unfired delivers once, payments cover the rest
        edges = sum(m for v in unfired for u, m in nbrs[v] if u < v and not done[u])
        need = sum(slack[v] for v in unfired) - edges
        first = 1 if unit else max(need, 1)
        next(k for k in count(first) if _top_up(nbrs, slack, done, left, 0, k, unit, pay, need))
    return sum(pay), tuple(pay)


def _top_up(nbrs, slack, done, left, start, budget, unit, pay, need) -> bool:
    """Whether payments of total at most `budget` on the vertices >= start
    complete a cascade-closed state with `left` vertices unfired; the first
    such vector, largest payment first, is added to `pay`.

    With `unit`, `need` is the slack of the unfired vertices minus the
    edges among them, and a branch is cut once its `budget` largest
    seedable slacks, sorted once per node, sum below it.  Paying chips,
    `need` is the root's and unused, and a vertex is skipped when neither
    its whole slack nor a short payment fits.  Neither cut drops a
    completing vector, so the first one, the witness, stays the same."""
    if not left or not budget:
        return not left
    n = len(slack)
    if unit:
        # the slacks the node may still seed, largest first
        top = sorted((s for s, d in zip(slack[start:], done[start:]) if not d), reverse=True)
    else:
        # nothing fires unless some vertex is paid its whole slack
        least = min((s for s, d in zip(slack[start:], done[start:]) if not d), default=budget + 1)
        if least > budget:
            return False
    for i in range(start, n):
        if done[i]:
            continue
        s = slack[i]
        if unit:
            if need > sum(top[:budget]):
                return False
            top.remove(s)
            pays = (s,)
        elif s > budget and budget <= least:
            continue
        else:
            # a payment short of s fires nothing: it must leave room to pay
            # a later vertex in full
            pays = chain((s,) if s <= budget else (), range(min(s - 1, budget - least), 0, -1))
        for p in pays:
            cost = 1 if unit else p
            trial = slack.copy()
            trial[i] = s - p
            fired, rest, rest_need = done, left, need
            if p == s:  # i fires; a smaller payment fires nothing
                fired = bytearray(done)
                order = _cascade(nbrs, trial, fired, (i,))
                rest -= len(order)
                if unit:
                    # need loses the slack the fired set F held and regains
                    # the edges inside F; each lowered the slack of both its
                    # ends, so held = s + (slack F holds now) + 2 e(F, F)
                    rest_need -= (sum(slack[v] + trial[v] for v in order) + s) // 2
            if _top_up(nbrs, trial, fired, rest, i + 1, budget - cost, unit, pay, rest_need):
                pay[i] += cost
                return True
        if unit:  # i stays unseeded: seeding every later vertex must fire it
            trial = slack[: i + 1] + [0] * (n - i - 1)
            if len(_cascade(nbrs, trial, bytearray(done), range(i + 1, n))) < left:
                return False
    return False


def _game(g: Multigraph, f, rng: Random | None = None):
    """Play `_play` from f on a connected graph: (halted, order, counts,
    final), with final the chips where `_play` stops, as a tuple."""
    g.require_connected()
    f = validate_divisor(g, f)
    degs = g.degrees
    slack = [d - x for d, x in zip(degs, f)]
    halted, order, counts = _play(degs, g.nbrs, slack, rng)
    return halted, order, counts, tuple(d - s for d, s in zip(degs, slack))


def classify_halting(g: Multigraph, f, rng: Random | None = None) -> HaltVerdict:
    """Decide whether the game from f halts.

    Returns the unique stable divisor on halting games, or a witness trace in
    which every vertex fired at least once on non-halting ones.  The default
    policy fires the lowest-indexed active vertex, which makes witnesses
    byte-reproducible; pass an rng to randomize the policy (the verdict and
    the stable divisor do not depend on it).
    """
    halted, order, counts, final = _game(g, f, rng)
    if halted:
        return HaltVerdict(HALTING, stable=final)
    return HaltVerdict(NON_HALTING, witness=GameTrace(tuple(order), tuple(counts), final))


def is_recurrent(g: Multigraph, f) -> tuple[bool, GameTrace | None]:
    """Whether some legal game from f fires every vertex exactly once.

    The witness trace fires the lowest-indexed eligible vertex at each step;
    its final divisor always equals f, since firing every vertex once moves
    one chip each way across every edge.
    """
    g.require_connected()
    f = validate_divisor(g, f)
    slack = [d - x for d, x in zip(g.degrees, f)]
    order = _cascade(g.nbrs, slack, bytearray(g.n), range(g.n))
    if len(order) < g.n:
        return False, None
    return True, GameTrace(tuple(order), (1,) * g.n, f)


def winnability_complement(g: Multigraph, f) -> Divisor:
    """The divisor with degree(v) - 1 - f(v) chips on every vertex."""
    f = validate_divisor(g, f)
    return tuple(d - 1 - x for d, x in zip(g.degrees, f))


def _grounded_solve(degs, nbrs, b) -> list[float]:
    """Approximate y with y[0] = 0 and (L y)[v] = b[v] for every v > 0, by
    conjugate gradients preconditioned with the degrees; O(|E|) per step.

    Stops once the residual r has shrunk by a factor of 1e12, about what
    floats resolve, or once the sum of r[v]**2 / degree(v) is below 1e-4:
    then each entry of r is a small fraction of a chip, far below the
    degree that taking the floor may add."""
    n = len(b)
    arcs = [(v, u, float(m)) for v, row in enumerate(nbrs) if v for u, m in row if u]
    inv = [1.0 / d for d in degs]
    y = [0.0] * n
    r = [0.0, *b[1:]]
    p = z = list(map(mul, r, inv))
    rz = sum(map(mul, r, z))
    stop = max(rz * 1e-24, 1e-4)
    for _ in range(2 * n):
        if rz <= stop:
            break
        q = list(map(mul, degs, p))
        for v, u, m in arcs:
            q[v] -= m * p[u]
        step = rz / sum(map(mul, p, q))
        y = [a + step * c for a, c in zip(y, p)]
        r = [a - step * c for a, c in zip(r, q)]
        z = list(map(mul, r, inv))
        rz, old = sum(map(mul, r, z)), rz
        beta = rz / old
        p = [a + beta * c for a, c in zip(z, p)]
    return y


def _reduce(degs, nbrs, f) -> list[int]:
    """f - L x, linearly equivalent to f, with x the floor of the solution
    of the Laplacian system grounded at vertex 0, so that the entries off
    vertex 0 fall below the degrees.  Repeated on the exact residual while
    its largest entry off vertex 0 exceeds the edge count and still
    shrinks; below the edge count a solve costs about as much as the
    shorter game saves."""
    chips = list(f)
    size = max(map(abs, chips[1:]), default=0)
    edges = sum(degs) // 2
    while size > edges:
        shift = max(0, size.bit_length() - 60)  # in float range, squares too
        y = _grounded_solve(degs, nbrs, [float(c >> shift) for c in chips])
        trial = chips.copy()
        for v, yv in enumerate(y):
            num, den = yv.as_integer_ratio()
            x = (num << shift) // den  # floor(yv * 2**shift), exactly
            if x:
                trial[v] -= degs[v] * x
                for u, m in nbrs[v]:
                    trial[u] += m * x
        new = max(map(abs, trial[1:]))
        if new >= size:
            break
        chips, size = trial, new
    return chips


def is_winnable(g: Multigraph, f) -> bool:
    """Whether f is linearly equivalent to an effective divisor.

    A negative degree never is, since firing keeps the degree; a degree of
    at least the genus |E| - n + 1 always is, since r(f) >= deg f - genus
    by Riemann-Roch.  Otherwise the verdict is the halting classification
    of the complement degree - 1 - f', where f' is the equivalent divisor
    `_reduce` finds, so the game no longer grows with the chip count of f.
    The float solve inside `_reduce` only chooses an integer firing vector,
    applied exactly, so rounding cannot change the verdict.
    """
    f = validate_divisor(g, f)
    genus = g.genus()  # raises on a disconnected graph
    total = sum(f)
    if total < 0:
        return False
    if total >= genus:
        return True
    degs = g.degrees
    # the complement holds degree - 1 - x chips, so its slack is x + 1
    slack = [x + 1 for x in _reduce(degs, g.nbrs, f)]
    return _play(degs, g.nbrs, slack)[0]


def parse_divisor(text: str) -> Divisor:
    """Parse a divisor: one line of space-separated integers, blank lines and
    '#' comments ignored, or {"chips": [...]}.  validate_divisor checks it
    against a graph."""
    if text.lstrip().startswith("{"):
        obj = _decode_json(text, "divisor")
        if not isinstance(obj, dict) or not isinstance(obj.get("chips"), list):
            raise FormatError('JSON divisor must be an object with a "chips" list')
        if not all(map(_is_int, obj["chips"])):
            raise FormatError("divisor entries must be integers")
        return tuple(obj["chips"])
    return _int_line(text, "divisor")


def divisor_to_text(f) -> str:
    return " ".join(str(x) for x in f) + "\n"


def divisor_to_json(f) -> dict:
    return {"chips": list(f)}


def trace_to_json(t: GameTrace) -> dict:
    return {"order": list(t.firing_order), "counts": list(t.fire_counts), "final": list(t.final)}
