"""Minimum target set selection: threshold activation dynamics and solvers.

A vertex activates once at least its threshold of neighbors is active; the
closure is the least fixed point of that monotone rule, so round-based and
asynchronous schedules agree.  On a simple graph this is the exactly-once
chip-firing cascade with slack tau: every active neighbor sends one chip,
the equivalence the bundle gadget encodes, so the closure runs on the game
engine's `_cascade` and the minimum on its least top-up search.  Thresholds
live on simple graphs and are capped at degree + 1: a vertex with threshold
degree + 1 can never be activated by its neighbors and must belong to every
target set, and any larger threshold would mean the same thing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chipfire import _cascade, _least_top_up
from .errors import FormatError, GraphStructureError, InvalidVertexError
from .multigraph import Multigraph

Thresholds = tuple[int, ...]


def validate_thresholds(g: Multigraph, tau) -> Thresholds:
    g.require_simple()
    tau = tuple(tau)
    if len(tau) != g.n:
        raise GraphStructureError(f"threshold vector has {len(tau)} entries for {g.n} vertices")
    for v, t in enumerate(tau):
        if (type(t) is not int and (isinstance(t, bool) or not isinstance(t, int))) or t < 0:
            raise GraphStructureError(f"threshold at vertex {v} must be a nonnegative integer, got {t!r}")
        if t > g.degrees[v] + 1:
            raise GraphStructureError(
                f"threshold {t} at vertex {v} exceeds degree + 1 = {g.degrees[v] + 1}"
            )
    return tau


def _validate_seed(g: Multigraph, seed) -> tuple[int, ...]:
    seed = tuple(seed)
    for v in seed:  # before the set, which would merge True into 1
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < g.n:
            raise InvalidVertexError(f"seed vertex {v!r} out of range [0, {g.n})")
    return tuple(sorted(set(seed)))


@dataclass(frozen=True)
class TargetSet:
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def activation_closure(g: Multigraph, tau, seed) -> frozenset[int]:
    """Least fixed point of threshold activation from the seed set.

    Vertices with threshold 0 activate on their own.  Monotone in the seed.
    """
    slack = list(validate_thresholds(g, tau))
    for v in _validate_seed(g, seed):  # seeds start with slack 0
        slack[v] = 0
    return frozenset(_cascade(g.nbrs, slack, bytearray(g.n), range(g.n)))


def is_target_set(g: Multigraph, tau, seed) -> bool:
    return len(activation_closure(g, tau, seed)) == g.n


def min_target_set(g: Multigraph, tau) -> TargetSet:
    """Exact minimum by the least top-up search, each seed costing 1.

    Among minimum solutions the lexicographically least id tuple is returned:
    at equal size it is the greatest 0/1 seed vector, which the search meets
    first."""
    seeds = _least_top_up(g.nbrs, g.degrees, validate_thresholds(g, tau), True)[1]
    return TargetSet(tuple(v for v, p in enumerate(seeds) if p))


def greedy_target_set(g: Multigraph, tau) -> TargetSet:
    """A valid, not necessarily minimum, target set.

    Seeds every vertex that can never be neighbor-activated, then repeatedly
    seeds the unreached vertex with the largest remaining activation deficit
    (lowest id on ties), tau(v) minus its active neighbors.  One cascade is
    resumed from each new seed rather than rerun: the cascade lowers the
    slack of a vertex by one for each neighbor that fires, and on a simple
    graph that is one per active neighbor, so the slack an unreached vertex
    is left with is its deficit.
    """
    tau = validate_thresholds(g, tau)
    n = g.n
    chosen = [v for v in range(n) if tau[v] > g.degrees[v]]
    slack = list(tau)
    for v in chosen:
        slack[v] = 0
    done = bytearray(n)
    reached = len(_cascade(g.nbrs, slack, done, range(n)))
    while reached < n:
        v = max((u for u in range(n) if not done[u]), key=lambda u: (slack[u], -u))
        chosen.append(v)
        slack[v] = 0
        reached += len(_cascade(g.nbrs, slack, done, (v,)))
    return TargetSet(tuple(sorted(chosen)))


def parse_thresholds(text: str, n: int | None = None) -> Thresholds:
    """One line of space-separated nonnegative integers."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) != 1:
        raise FormatError("thresholds file must contain exactly one line of integers")
    try:
        tau = tuple(int(p) for p in lines[0].split())
    except ValueError:
        raise FormatError(f"thresholds line must contain integers, got {lines[0]!r}") from None
    if any(t < 0 for t in tau):
        raise FormatError("thresholds must be nonnegative")
    if n is not None and len(tau) != n:
        raise FormatError(f"thresholds vector has {len(tau)} entries, expected {n}")
    return tau
