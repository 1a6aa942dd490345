"""Exact solvers for distance-to-non-halting, distance-to-recurrent, and rank.

Both distance solvers enumerate effective top-up divisors g by increasing
degree and, within a degree, in placement order (chips on the lowest vertex
ids first, i.e. count tuples in descending lexicographic order); the first
hit wins, which makes witnesses deterministic.  The solvers are exponential
by design; the only accelerations are evaluation shortcuts that provably
return the same verdict per candidate:

* non-halting checks run from the stabilization of f rather than from f
  itself, since adding an effective g commutes with stabilizing (play the
  stabilizing sequence first, it stays legal with extra chips on the board);
* recurrence checks continue the exactly-once cascade of f instead of
  recomputing it, since extra chips never deactivate anything and the
  reachable fired set does not depend on the firing order.

Candidates that cannot activate any new vertex are rejected without
simulation; for recurrence, the prefilter reads the slack (chips still
missing) that the cascade of f leaves on each unfired vertex.  Equality with
direct per-candidate evaluation is pinned by the test suite.

Termination: adding max(0, degree(v) - f(v)) chips to every vertex makes the
divisor pointwise at least the degree vector, which is recurrent and hence
non-halting, so that total is an upper bound for both distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

from .chipfire import Divisor, _cascade, _play, deg, validate_divisor, winnability_complement
from .multigraph import Multigraph


@dataclass(frozen=True)
class DistanceResult:
    """A distance value with the minimizing effective top-up divisor."""

    value: int
    witness: Divisor

    def to_json(self) -> dict:
        return {"value": self.value, "witness": list(self.witness)}


@lru_cache(maxsize=None)
def effective_divisors(total: int, n: int) -> tuple[Divisor, ...]:
    """All effective divisors of the given degree on n vertices, ordered with
    chips on the lowest vertex ids first."""
    if n == 1:
        return ((total,),)
    out = []
    for first in range(total, -1, -1):
        for rest in effective_divisors(total - first, n - 1):
            out.append((first,) + rest)
    return tuple(out)


def upper_bound_to_recurrent(g: Multigraph, f) -> int:
    """Chips needed to raise every vertex to its degree; always reaches a
    recurrent divisor."""
    f = validate_divisor(g, f)
    return sum(max(0, d - x) for d, x in zip(g.degrees, f))


def dist_rec(g: Multigraph, f) -> DistanceResult:
    """Minimum degree of an effective g such that f + g is recurrent."""
    g.require_connected()
    f = validate_divisor(g, f)
    n = g.n
    nbrs = g.nbrs
    vertices = range(n)
    slack0 = [d - x for d, x in zip(g.degrees, f)]
    done0 = bytearray(n)
    count0 = len(_cascade(nbrs, slack0, done0, vertices))
    if count0 == n:
        return DistanceResult(0, (0,) * n)
    # the cascade leaves slack > 0 exactly on the unfired vertices, so a
    # candidate starts something new only where it covers that slack, and
    # only its support can hold an eligible vertex before anything fires
    unfired = [(v, s) for v, s in enumerate(slack0) if s > 0]
    limit = upper_bound_to_recurrent(g, f)
    for k in range(1, limit + 1):
        for cand in effective_divisors(k, n):
            for v, s in unfired:
                if cand[v] >= s:
                    break
            else:
                continue
            slack = slack0.copy()
            support = list(compress(vertices, cand))
            for v in support:
                slack[v] -= cand[v]
            if count0 + len(_cascade(nbrs, slack, bytearray(done0), support)) == n:
                return DistanceResult(k, cand)
    raise AssertionError("unreachable: the pointwise deficit filler is recurrent")


def dist_nonhalt(g: Multigraph, f) -> DistanceResult:
    """Minimum degree of an effective g such that f + g is non-halting."""
    g.require_connected()
    f = validate_divisor(g, f)
    n = g.n
    degs = g.degrees
    nbrs = g.nbrs
    stable = list(f)
    if not _play(degs, nbrs, stable)[0]:
        return DistanceResult(0, (0,) * n)
    limit = upper_bound_to_recurrent(g, f)
    for k in range(1, limit + 1):
        for cand in effective_divisors(k, n):
            for v in range(n):
                if cand[v] and stable[v] + cand[v] >= degs[v]:
                    break
            else:
                continue  # still stable, the game halts immediately
            trial = [a + b for a, b in zip(stable, cand)]
            if not _play(degs, nbrs, trial)[0]:
                return DistanceResult(k, cand)
    raise AssertionError("unreachable: the pointwise deficit filler is non-halting")


def rank(g: Multigraph, f) -> int:
    """Divisor rank: one less than the distance of degree - 1 - f from a
    non-halting state; -1 exactly when f is not winnable."""
    g.require_connected()
    f = validate_divisor(g, f)
    if deg(f) < 0:
        # degree is invariant under firing, so no effective equivalent exists
        return -1
    return dist_nonhalt(g, winnability_complement(g, f)).value - 1
