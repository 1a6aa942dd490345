"""Instance generators for exhaustive and randomized verification sweeps."""

from __future__ import annotations

from itertools import chain, combinations, combinations_with_replacement, permutations, product
from random import Random

from .multigraph import Multigraph


def cycle_graph(n: int) -> Multigraph:
    return Multigraph(n, [(v, (v + 1) % n, 1) for v in range(n)])


def path_graph(n: int) -> Multigraph:
    return Multigraph(n, [(v, v + 1, 1) for v in range(n - 1)])


def complete_graph(n: int) -> Multigraph:
    return Multigraph(n, [(u, v, 1) for u, v in combinations(range(n), 2)])


def star_graph(leaves: int) -> Multigraph:
    return Multigraph(leaves + 1, [(0, v, 1) for v in range(1, leaves + 1)])


def two_vertex_bundle(m: int) -> Multigraph:
    return Multigraph(2, [(0, 1, m)])


def _canonical_key(g: Multigraph) -> tuple:
    """Least upper-triangle multiplicity tuple over the vertex orders that
    list degrees in non-decreasing order.

    An isomorphism preserves degrees, so it maps these orders of one graph
    onto those of the other; the key is thus a complete invariant while
    trying only the permutations within each degree class.
    """
    n, degrees = g.n, g.degrees
    mult = [[0] * n for _ in range(n)]
    for u, v, m in g.edges():
        mult[u][v] = mult[v][u] = m
    classes = [[v for v in range(n) if degrees[v] == d] for d in sorted(set(degrees))]
    best = None
    for parts in product(*(permutations(c) for c in classes)):
        perm = [v for part in parts for v in part]
        key = tuple(mult[perm[u]][perm[v]] for u in range(n) for v in range(u + 1, n))
        if best is None or key < best:
            best = key
    return (n, best)


def _classes(n: int, edge_lists) -> list[Multigraph]:
    """The connected graphs on n vertices built from the given lists of
    (u, v) pairs, each pair one edge, keeping the first of each isomorphism
    class in the order given."""
    first = {}
    for edges in edge_lists:
        g = Multigraph(n, [(u, v, 1) for u, v in edges])
        if g.is_connected():
            first.setdefault(_canonical_key(g), g)
    return list(first.values())


def connected_multigraphs(max_n: int, max_edges: int, min_n: int = 1):
    """All connected multigraphs with at most max_n vertices and max_edges
    edges (counted with multiplicity), one representative per isomorphism
    class, in a deterministic order."""
    out = []
    for n in range(min_n, max_n + 1):
        pairs = list(combinations(range(n), 2))
        out += _classes(n, chain.from_iterable(
            combinations_with_replacement(pairs, total) for total in range(n - 1, max_edges + 1)))
    return out


def connected_simple_graphs(n_values):
    """Connected simple graphs, one per isomorphism class, for each n."""
    out = []
    for n in n_values:
        pairs = list(combinations(range(n), 2))
        out += _classes(n, chain.from_iterable(
            combinations(pairs, r) for r in range(n - 1, len(pairs) + 1)))
    return out


def divisors_in_box(g: Multigraph, low: int, high_offset: int):
    """Every divisor, or threshold vector, with entries in [low, degree(v) + high_offset]."""
    ranges = [range(low, d + high_offset + 1) for d in g.degrees]
    return product(*ranges)


def random_connected_multigraph(rng: Random, max_n: int = 8, max_extra_edges: int = 4,
                                max_multiplicity: int = 3) -> Multigraph:
    """A random connected multigraph: random spanning tree plus extra bundles."""
    n = rng.randint(1, max_n)
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v, rng.randint(1, max_multiplicity)))
    for _ in range(rng.randint(0, max_extra_edges)):
        if n < 2:
            break
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.randint(1, max_multiplicity)))
    return Multigraph(n, edges)


def random_divisor(rng: Random, g: Multigraph, low: int = -3, high_offset: int = 2):
    return tuple(rng.randint(low, d + high_offset) for d in g.degrees)
