"""Exact solvers for distance-to-non-halting, distance-to-recurrent, and rank.

Both distances are the least degree of an effective top-up g; the witness
is the first such g in placement order (chips on the lowest vertex ids
first: descending lexicographic order), so witnesses are deterministic.
`dist_rec` is the least top-up search `chipfire._least_top_up`.  Only
`dist_nonhalt` enumerates every candidate g of each degree.  It adds g to
the stabilization of f one vertex at a time and keeps each stable prefix
state: by the abelian property, stabilizing in stages reaches the same
state as adding g at once.  If a prefix of g already leaves a non-halting
game, so does g, since more chips keep an endless legal game legal; as every
earlier candidate halted, the first such g is the answer.  In placement order
the next candidate of a degree takes one chip from the last nonzero entry of
g before vertex n - 1 and moves it, with all of g's chips after that entry,
to the next vertex (the entry at n - 1 only holds what the others leave, so
the change never starts there).  So the prefix states up to that entry are
kept, and each candidate adds at most two entries to a kept state.  A zero
entry passes the state on; a positive one plays only the avalanche from its
vertex, the only one it can make active.  `effective_divisors` walks each
level by the same rule on one list, so the search holds at most n + 2 lists
of n entries and no table of candidates.  Both distances take exponential
time by design.  Raising every vertex to its degree, the pointwise deficit
filler, reaches a recurrent, hence non-halting, divisor, so both searches end
by its degree; it proves that they end, and `dist_nonhalt` does not compute it
to cap its levels.

f + g halts exactly when its winnability complement deg - 1 - f - g is
winnable, and winnability depends only on the linear equivalence class.  So
whether f + g halts depends only on the class of f: every representative of
f has the same distance to non-halting and the same witness.  `dist_nonhalt`
therefore plays from the representative `chipfire._reduce` finds, whose
entries off vertex 0 are at most the edge count, so its games do not grow with
the chip count of f.  It starts at level |E| - deg f: below that level the
complement has degree at least the genus, so it is winnable (Riemann-Roch)
and every skipped level is empty.

`rank` searches only where it must.  With genus G = |E| - n + 1 and canonical
divisor K = deg - 2 (Baker-Norine), a divisor of negative degree has rank -1,
and one of degree above G - 1 has rank deg - G + 1 + rank(K - f) by
Riemann-Roch, where K - f has degree below G - 1: negative above 2G - 2,
which gives deg - G, else searched.  Only degrees in [0, G - 1] reach the
search, as one less than the distance of deg - 1 - f from a non-halting
state.
"""

from __future__ import annotations

from itertools import count
from typing import Iterator, NamedTuple

from .chipfire import (
    Divisor, _least_top_up, _play, _reduce, validate_divisor, winnability_complement,
)
from .multigraph import Multigraph

__all__ = ["DistanceResult", "dist_nonhalt", "dist_rec", "effective_divisors", "rank"]


class DistanceResult(NamedTuple):
    """A distance value with the minimizing effective top-up divisor."""

    value: int
    witness: Divisor

    def to_json(self) -> dict:
        return {"value": self.value, "witness": list(self.witness)}


def effective_divisors(total: int, n: int) -> Iterator[list[int]]:
    """Every effective divisor of the given degree on n vertices, ordered with
    chips on the lowest vertex ids first, each from its predecessor by the
    successor rule of placement order.

    Yields one list, updated in place by the next step: a caller must not
    change it, and must copy any step it keeps."""
    top = [total] + [0] * (n - 1)
    yield top
    j = 0  # the last nonzero entry before n - 1
    while top[-1] < total:
        moved = top[-1] + 1
        top[-1] = 0
        top[j] -= 1
        top[j + 1] += moved
        yield top
        if j < n - 2:
            j += 1
        while j > 0 and not top[j]:
            j -= 1


def dist_rec(g: Multigraph, f) -> DistanceResult:
    """Minimum degree of an effective g such that f + g is recurrent."""
    g.require_connected()
    f = validate_divisor(g, f)
    slack = [d - x for d, x in zip(g.degrees, f)]
    return DistanceResult(*_least_top_up(g.nbrs, g.degrees, slack, False))


def dist_nonhalt(g: Multigraph, f) -> DistanceResult:
    """Minimum degree of an effective g such that f + g is non-halting."""
    g.require_connected()
    f = validate_divisor(g, f)
    n = g.n
    degs = g.degrees
    nbrs = g.nbrs
    f = _reduce(degs, nbrs, f)  # an equivalent f: same value, same witness
    slack = [d - x for d, x in zip(degs, f)]
    if not _play(degs, nbrs, slack)[0]:
        return DistanceResult(0, (0,) * n)
    # states[v], for v up to the next candidate's first change, is the stable
    # slack of the stabilization plus cand[:v]; a stored state is never
    # mutated, and states[0], the stabilization, is positive everywhere
    states = [slack] * (n + 1)
    # lower levels leave a winnable complement of degree >= genus: all halt;
    # the pointwise deficit filler is non-halting, so some level returns
    for k in count(max(1, g.edge_count - sum(f))):
        j = 0
        for cand in effective_divisors(k, n):
            # cand differs from its predecessor from j on, and is zero after
            # j + 1 < n (on one vertex the first candidate is the answer); the
            # two positions are written out, as a loop over them ran slower
            s = states[j]
            c = cand[j]
            if c:
                s = s[:]
                s[j] -= c  # only j can turn active on a stable state
                if s[j] <= 0 and not _play(degs, nbrs, s)[0]:
                    return DistanceResult(k, tuple(cand))
            states[j + 1] = s
            c = cand[j + 1]
            if c:
                s = s[:]
                s[j + 1] -= c
                if s[j + 1] <= 0 and not _play(degs, nbrs, s)[0]:
                    return DistanceResult(k, tuple(cand))
            states[j + 2] = s
            # the next candidate first differs at the last nonzero entry before n - 1
            if j < n - 2:
                j += 1
            while j > 0 and not cand[j]:
                j -= 1


def rank(g: Multigraph, f) -> int:
    """Divisor rank: -1 exactly when f is not winnable.

    Negative degree gives -1; degree above G - 1 gives deg f - G + 1 +
    rank(K - f) by Riemann-Roch, with G the genus and K = deg - 2, and K - f
    of degree below G - 1 falls in one of the other two cases.  Degrees in
    [0, G - 1] are searched: one less than the distance of deg - 1 - f from
    a non-halting state."""
    genus = g.genus()  # raises on a disconnected graph, before f is checked
    f = validate_divisor(g, f)
    d = sum(f)
    if d < 0:
        # degree is invariant under firing, so no effective equivalent exists
        return -1
    if d > genus - 1:
        return d - genus + 1 + rank(g, tuple(dv - 2 - x for dv, x in zip(g.degrees, f)))
    return dist_nonhalt(g, winnability_complement(g, f)).value - 1
