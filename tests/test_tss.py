from itertools import combinations
from random import Random

import pytest
from hypothesis import given, strategies as st

from chipfiring import (
    GraphStructureError,
    InvalidVertexError,
    Multigraph,
    activation_closure,
    greedy_target_set,
    is_target_set,
    min_target_set,
)
from chipfiring.families import (
    complete_graph,
    connected_simple_graphs,
    cycle_graph,
    path_graph,
    threshold_assignments,
)

P3 = path_graph(3)
K3 = complete_graph(3)
K2 = Multigraph(2, [(0, 1, 1)])


def test_closure_cascades_along_path():
    assert activation_closure(P3, (1, 1, 1), {0}) == frozenset({0, 1, 2})


def test_closure_stalls_on_triangle():
    assert activation_closure(K3, (2, 2, 2), {0}) == frozenset({0})


def test_zero_thresholds_self_activate():
    assert activation_closure(K3, (0, 0, 0), set()) == frozenset({0, 1, 2})


def test_is_target_set_triangle():
    assert is_target_set(K3, (2, 2, 2), {0, 1})
    assert not is_target_set(K3, (2, 2, 2), {0})


def test_adjacent_pair_seeds_a_diamond():
    # 4-vertex instance: two adjacent degree-3 vertices seed everything at
    # threshold 2, and no single seed does
    diamond = Multigraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1)])
    assert is_target_set(diamond, (2, 2, 2, 2), {0, 1})
    assert min_target_set(diamond, (2, 2, 2, 2)).size == 2


def test_min_target_set_examples():
    assert min_target_set(K3, (2, 2, 2)).size == 2
    assert min_target_set(P3, (1, 1, 1)) .size == 1
    got = min_target_set(K2, (2, 1))
    assert got.members == (0,)  # vertex 0 can never be neighbor-activated


def test_min_target_set_lexicographic_witness():
    assert min_target_set(K3, (2, 2, 2)).members == (0, 1)
    assert min_target_set(P3, (1, 1, 1)).members == (0,)


def test_greedy_is_valid_but_maybe_larger():
    for g, tau in [(K3, (2, 2, 2)), (P3, (1, 1, 1)), (K3, (0, 0, 0)), (K2, (2, 1))]:
        got = greedy_target_set(g, tau)
        assert is_target_set(g, tau, got.members)
        assert got.size >= min_target_set(g, tau).size


def test_greedy_zero_thresholds_returns_empty():
    assert greedy_target_set(K3, (0, 0, 0)).members == ()


def test_simple_graph_required():
    bundle = Multigraph(2, [(0, 1, 2)])
    with pytest.raises(GraphStructureError):
        activation_closure(bundle, (1, 1), set())
    with pytest.raises(GraphStructureError):
        min_target_set(bundle, (1, 1))


def test_threshold_validation():
    with pytest.raises(GraphStructureError):
        min_target_set(K2, (3, 1))  # above degree + 1
    with pytest.raises(GraphStructureError):
        min_target_set(K2, (-1, 1))
    with pytest.raises(GraphStructureError):
        min_target_set(K2, (1,))
    with pytest.raises(GraphStructureError):
        min_target_set(K2, (True, 1))


@pytest.mark.parametrize("seed", [[True], [1, True], [False, 1], [1.0], [2], [-1]])
def test_seed_members_must_be_vertex_ids(seed):
    # a bool is an int subclass, refused as for divisors and thresholds
    with pytest.raises(InvalidVertexError):
        activation_closure(K2, (1, 1), seed)
    with pytest.raises(InvalidVertexError):
        is_target_set(K2, (1, 1), seed)


small_instance = st.integers(min_value=0, max_value=5000).map(
    lambda seed: _random_tss_instance(seed)
)

# Built once: the brute-force canonical form makes each build cost ~0.4 s.
_TSS_GRAPHS = connected_simple_graphs([2, 3, 4, 5])


def _random_tss_instance(seed):
    rng = Random(seed)
    g = rng.choice(_TSS_GRAPHS)
    tau = tuple(rng.randint(0, d + 1) for d in g.degrees)
    return g, tau


@given(small_instance, st.integers(min_value=0, max_value=999))
def test_closure_monotone_in_seed(inst, sseed):
    g, tau = inst
    rng = Random(sseed)
    small = {v for v in range(g.n) if rng.random() < 0.3}
    big = small | {v for v in range(g.n) if rng.random() < 0.3}
    assert activation_closure(g, tau, small) <= activation_closure(g, tau, big)


@given(small_instance, st.integers(min_value=0, max_value=999))
def test_closure_idempotent(inst, sseed):
    g, tau = inst
    rng = Random(sseed)
    seed = {v for v in range(g.n) if rng.random() < 0.4}
    once = activation_closure(g, tau, seed)
    assert activation_closure(g, tau, once) == once


def test_minimum_truly_minimal_exhaustive():
    for g in connected_simple_graphs([2, 3, 4]):
        for tau in threshold_assignments(g, low=0, high_offset=1):
            best = min_target_set(g, tau)
            assert is_target_set(g, tau, best.members)
            if best.size:
                for smaller in combinations(range(g.n), best.size - 1):
                    assert not is_target_set(g, tau, smaller)


def _activates_all(g, tau, seed):
    # round-based threshold activation, written independently of the cascade
    active = set(seed)
    while True:
        joining = {
            v for v in range(g.n)
            if v not in active and sum(1 for u, _m in g.neighbors(v) if u in active) >= tau[v]
        }
        if not joining:
            return len(active) == g.n
        active |= joining


def _first_least_target_set(g, tau):
    # the tie-break: the first combinations() subset at the least size
    return next(
        subset
        for size in range(g.n + 1)
        for subset in combinations(range(g.n), size)
        if _activates_all(g, tau, subset)
    )


def test_min_target_set_is_first_subset_of_least_size_exhaustive():
    for g in connected_simple_graphs([2, 3, 4]):
        for tau in threshold_assignments(g, low=0, high_offset=1):
            assert min_target_set(g, tau).members == _first_least_target_set(g, tau), (g.edges(), tau)


def _random_simple_graph(rng, n):
    # a random spanning tree plus about n/2 to n extra edges, all simple
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(n // 2, n)):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Multigraph(n, [(u, v, 1) for u, v in sorted(edges)])


@pytest.mark.parametrize(
    "seed, span",
    [(1, lambda d: (0, d + 1)), (2, lambda d: (max(0, d - 1), d))],
    ids=["tau-0-to-deg+1", "tau-deg-1-to-deg"],
)
def test_min_target_set_is_first_subset_of_least_size_on_larger_graphs(seed, span):
    # 6-12 vertices, where the search cuts branches that the exhaustive
    # tests above, on at most 4 vertices, rarely reach; thresholds near the
    # degree make the cuts common
    rng = Random(seed)
    for _ in range(100):
        g = _random_simple_graph(rng, rng.randint(6, 12))
        tau = tuple(rng.randint(*span(d)) for d in g.degrees)
        assert min_target_set(g, tau).members == _first_least_target_set(g, tau), (g.edges(), tau)


def _greedy_reference(g, tau):
    # the greedy rule recomputed from scratch: the closure of all seeds so
    # far, then the deficit of every unreached vertex, after every seed
    chosen = [v for v in range(g.n) if tau[v] > g.degrees[v]]
    while True:
        reached = activation_closure(g, tau, chosen)
        if len(reached) == g.n:
            return tuple(sorted(chosen))
        missing = [v for v in range(g.n) if v not in reached]
        deficits = {
            v: tau[v] - sum(1 for u, _m in g.neighbors(v) if u in reached) for v in missing
        }
        chosen.append(max(missing, key=lambda v: (deficits[v], -v)))


def test_greedy_matches_from_scratch_reference():
    for g in _TSS_GRAPHS:
        for tau in threshold_assignments(g, low=0, high_offset=1):
            assert greedy_target_set(g, tau).members == _greedy_reference(g, tau), (g.edges(), tau)
    rng = Random(7)
    for _ in range(8):
        g = _random_simple_graph(rng, rng.randint(50, 500))
        tau = tuple(rng.randint(0, d + 1) for d in g.degrees)
        assert greedy_target_set(g, tau).members == _greedy_reference(g, tau)


def test_cycle_needs_alternating_seeds():
    c4 = cycle_graph(4)
    assert min_target_set(c4, (2, 2, 2, 2)).members == (0, 2)
