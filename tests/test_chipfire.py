import tracemalloc
from random import Random

import pytest
from hypothesis import given, strategies as st

from chipfiring import (
    DisconnectedGraphError,
    GameTrace,
    GraphStructureError,
    HALTING,
    HaltVerdict,
    IllegalFiringError,
    InvalidVertexError,
    Multigraph,
    NON_HALTING,
    classify_halting,
    fire_sequence,
    is_recurrent,
    is_winnable,
    winnability_complement,
)
from chipfiring.families import (
    connected_multigraphs,
    connected_simple_graphs,
    cycle_graph,
    divisors_in_box,
    random_connected_multigraph,
    random_divisor,
    two_vertex_bundle,
)
from chipfiring.chipfire import _cascade, _play
from chipfiring.oracles import recurrent_permutation

K2 = Multigraph(2, [(0, 1, 1)])
C3 = cycle_graph(3)


def fire(g, f, v):
    """One raw firing of v, legal or not."""
    return fire_sequence(g, f, (v,), require_legal=False)


def test_fire_examples():
    assert fire(K2, (1, 0), 0) == (0, 1)
    assert fire(two_vertex_bundle(4), (4, 0), 0) == (0, 4)
    assert fire(C3, (2, 0, 0), 0) == (0, 1, 1)
    assert fire(K2, (0, 0), 0) == (-1, 1)  # legality is not required
    with pytest.raises(InvalidVertexError):
        fire(K2, (1, 0), 2)
    for bad in [(1,), (1, True), (1, 0.5)]:
        with pytest.raises(GraphStructureError):
            fire(K2, bad, 1)


def test_classify_halting_examples():
    v = classify_halting(K2, (0, 0))
    assert v.kind == HALTING and v.stable == (0, 0) and v.witness is None
    assert v == HaltVerdict(HALTING, (0, 0)) and v.is_halting

    v = classify_halting(K2, (1, 0))
    assert v.kind == NON_HALTING and v.stable is None and not v.is_halting
    assert min(v.witness.fire_counts) >= 1

    v = classify_halting(C3, (2, 0, 0))
    assert v.kind == HALTING and v.stable == (0, 1, 1)

    v = classify_halting(C3, (2, 1, 0))
    assert v.kind == NON_HALTING
    assert v.witness.firing_order == (0, 1, 2)
    assert v.witness.final == (2, 1, 0)


def test_classify_requires_connected():
    with pytest.raises(DisconnectedGraphError):
        classify_halting(Multigraph(2), (0, 0))


def test_nonhalting_witness_replays_legally():
    v = classify_halting(C3, (2, 1, 1))
    assert v.kind == NON_HALTING
    replayed = fire_sequence(C3, (2, 1, 1), v.witness.firing_order, require_legal=True)
    assert replayed == v.witness.final


def test_is_recurrent_examples():
    ok, trace = is_recurrent(K2, (1, 0))
    assert ok and trace.firing_order == (0, 1)
    assert trace.final == (1, 0)

    ok, trace = is_recurrent(K2, (0, 0))
    assert not ok and trace is None

    ok, trace = is_recurrent(C3, (2, 1, 0))
    assert ok and trace.firing_order == (0, 1, 2)


def test_is_winnable_examples():
    assert is_winnable(C3, (0, 0, 0))  # effective divisors are winnable
    assert not is_winnable(K2, (-1, 0))  # negative degree
    assert not is_winnable(C3, (-1, 1, 0))


def test_winnability_complement():
    assert winnability_complement(C3, (-1, 1, 0)) == (2, 0, 1)
    assert classify_halting(C3, (2, 0, 1)).kind == NON_HALTING


def _winnable_by_game(g, f):
    return classify_halting(g, winnability_complement(g, f)).is_halting


def test_is_winnable_matches_game_on_small_multigraphs():
    rng = Random(11)
    for g in connected_multigraphs(4, 6):
        # free draws mostly land on a shortcut; the adjusted ones have a
        # degree in [0, genus), where the reduced game decides
        for _ in range(15):
            f = [rng.randint(-40, 40) for _ in range(g.n)]
            assert is_winnable(g, f) == _winnable_by_game(g, f), (g.edges(), f)
        if g.n == 1 or g.genus() == 0:
            continue
        for _ in range(15):
            f = [rng.randint(-40, 40) for _ in range(g.n)]
            f[0] = rng.randrange(g.genus()) - sum(f[1:])
            if abs(f[0]) <= 40:
                assert is_winnable(g, f) == _winnable_by_game(g, f), (g.edges(), f)


def test_is_winnable_matches_game_on_random_multigraphs():
    rng = Random(2026)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(2, 25)
        edges = [(rng.randrange(v), v, rng.randint(1, 3)) for v in range(1, n)]
        edges += [(*rng.sample(range(n), 2), rng.randint(1, 3)) for _ in range(rng.randint(1, n))]
        g = Multigraph(n, edges)
        f = [rng.randint(-300, 300) for _ in range(n)]
        f[0] += rng.randrange(g.genus()) - sum(f)  # degree in [0, genus)
        got = is_winnable(g, f)
        assert got == _winnable_by_game(g, f), (edges, f)
        verdicts.add(got)
    assert verdicts == {False, True}


def test_is_winnable_shortcut_boundaries():
    # degree -1 is never winnable and degree genus always is, and the game
    # agrees; degree genus - 1 is still searched and goes either way
    searched = set()
    for g in connected_multigraphs(4, 6, min_n=2):
        gen = g.genus()
        for v in range(g.n):
            for k in (-1, gen - 1, gen):
                for a in (40, 41):
                    f = [0] * g.n
                    f[v], f[(v + 1) % g.n] = a, k - a
                    got = is_winnable(g, f)
                    assert got == _winnable_by_game(g, f), (g.edges(), f)
                    if k == -1:
                        assert not got
                    elif k == gen:
                        assert got
                    else:
                        searched.add(got)
    assert searched == {False, True}


@pytest.mark.parametrize("n", [5, 12, 30])
def test_cycle_dipole_winnable_exactly_when_n_divides(n):
    # (a, -a, 0, ...) is a times the generator e0 - e1 of Jac(C_n) = Z/n
    # entries up to 10**400 lie beyond float range
    g = cycle_graph(n)
    big = 10**400
    for a in (1, n - 1, n, 3 * n + 1, 10**6 * n, 10**6 * n + 2, big, -big, n * big, n * big + 1):
        f = (a, -a) + (0,) * (n - 2)
        assert is_winnable(g, f) == (a % n == 0), (n, a)


def test_bool_chip_counts_rejected():
    with pytest.raises(GraphStructureError):
        classify_halting(K2, (False, 0))


def test_bool_vertex_ids_rejected():
    # a bool is an int subclass, refused as for divisors, seeds and thresholds
    calls = [
        lambda: K2.multiplicity(True, False),
        lambda: K2.multiplicity(0, True),
        lambda: fire_sequence(K2, (1, 0), [True]),
        lambda: fire_sequence(K2, (1, 0), [0, False], require_legal=False),
    ]
    for call in calls:
        with pytest.raises(InvalidVertexError):
            call()


def test_fire_sequence_examples():
    assert fire_sequence(K2, (1, 0), (0, 1), require_legal=True) == (1, 0)
    with pytest.raises(IllegalFiringError) as exc:
        fire_sequence(K2, (0, 0), (0,), require_legal=True)
    assert exc.value.position == 0
    assert fire_sequence(C3, (2, 0, 0), (0, 1), require_legal=False) == (1, -1, 2)


def test_single_vertex_degenerate_cases():
    k1 = Multigraph(1)
    assert classify_halting(k1, (0,)).kind == NON_HALTING
    assert classify_halting(k1, (3,)).kind == NON_HALTING
    assert classify_halting(k1, (-1,)).kind == HALTING
    assert is_recurrent(k1, (0,))[0]
    assert not is_recurrent(k1, (-2,))[0]


graph_and_divisor = st.integers(min_value=0, max_value=10_000).map(
    lambda seed: (
        random_connected_multigraph(Random(seed)),
        random_divisor(Random(seed + 1), random_connected_multigraph(Random(seed))),
    )
)


@given(graph_and_divisor, st.integers(min_value=0, max_value=7))
def test_fire_preserves_degree(gf, vseed):
    g, f = gf
    v = vseed % g.n
    assert sum(fire(g, f, v)) == sum(f)


@given(graph_and_divisor, st.integers(min_value=0, max_value=7))
def test_firing_reversal_identity(gf, vseed):
    g, f = gf
    v = vseed % g.n
    others = [u for u in range(g.n) if u != v]
    assert fire_sequence(g, fire(g, f, v), others, require_legal=False) == f


@given(graph_and_divisor, st.integers(min_value=0, max_value=2**32 - 1))
def test_abelian_determinism(gf, policy_seed):
    g, f = gf
    canonical = classify_halting(g, f)
    randomized = classify_halting(g, f, rng=Random(policy_seed))
    assert randomized.kind == canonical.kind
    assert randomized.stable == canonical.stable


@given(graph_and_divisor)
def test_recurrent_implies_non_halting(gf):
    g, f = gf
    if is_recurrent(g, f)[0]:
        assert classify_halting(g, f).kind == NON_HALTING


@given(graph_and_divisor)
def test_pointwise_dominating_is_recurrent(gf):
    g, _f = gf
    dominating = tuple(g.degrees)
    assert is_recurrent(g, dominating)[0]


def test_greedy_recurrence_matches_permutation_search_small():
    # exhaustive over small simple connected graphs, sampled for n = 5
    for g in connected_simple_graphs([2, 3, 4]):
        for f in divisors_in_box(g, 0, 1):
            assert is_recurrent(g, f)[0] == recurrent_permutation(g, f), (g.edges(), f)
    rng = Random(5)
    for g in connected_simple_graphs([5]):
        for _ in range(40):
            f = random_divisor(rng, g, low=0, high_offset=1)
            assert is_recurrent(g, f)[0] == recurrent_permutation(g, f), (g.edges(), f)


@given(graph_and_divisor)
def test_recurrence_witness_is_exactly_once(gf):
    g, f = gf
    ok, trace = is_recurrent(g, f)
    if ok:
        assert sorted(trace.firing_order) == list(range(g.n))
        assert trace.fire_counts == (1,) * g.n
        # firing everyone once is the identity
        assert trace.final == f
        assert fire_sequence(g, f, trace.firing_order, require_legal=True) == f


def _slack(g, f):
    return [d - x for d, x in zip(g.degrees, f)]


def _replay_lowest_first(g, f, order, once):
    """Replay a firing order, checking that each step fires the lowest-
    indexed eligible vertex: active and, when `once`, not fired yet."""
    chips = list(f)
    fired = set()
    for v in order:
        eligible = [
            u for u in range(g.n) if chips[u] >= g.degrees[u] and not (once and u in fired)
        ]
        assert eligible and v == eligible[0], (g.edges(), f, order)
        chips[v] -= g.degrees[v]
        for u, m in g.nbrs[v]:
            chips[u] += m
        fired.add(v)
    return tuple(chips)


@given(graph_and_divisor)
def test_witnesses_fire_lowest_eligible_vertex(gf):
    g, f = gf
    ok, trace = is_recurrent(g, f)
    if ok:
        assert _replay_lowest_first(g, f, trace.firing_order, once=True) == trace.final
    verdict = classify_halting(g, f)
    witness = verdict.witness
    if witness is not None:
        assert _replay_lowest_first(g, f, witness.firing_order, once=False) == witness.final
    # the engine works on slack: it leaves degree - stable, or degree - final
    slack = _slack(g, f)
    halted, _order, _counts = _play(g.degrees, g.nbrs, slack)
    assert halted == verdict.is_halting
    assert slack == _slack(g, verdict.stable if halted else witness.final)


def _seeded_reference(g, f, rng):
    """The seeded policy written out: at every step, scan for the sorted list
    of active vertices and fire rng.choice of it, until none is active or
    every vertex has fired."""
    chips = list(f)
    counts = [0] * g.n
    order = []
    while True:
        active = [v for v in range(g.n) if chips[v] >= g.degrees[v]]
        if not active:
            return HaltVerdict(HALTING, stable=tuple(chips))
        v = rng.choice(active)
        chips[v] -= g.degrees[v]
        for u, m in g.nbrs[v]:
            chips[u] += m
        order.append(v)
        counts[v] += 1
        if all(counts):
            return HaltVerdict(
                NON_HALTING, witness=GameTrace(tuple(order), tuple(counts), tuple(chips))
            )


@st.composite
def cascade_inputs(draw):
    """A graph, slacks, a partial `done` and a `start` list meeting
    `_cascade`'s precondition: every vertex eligible before anything fires,
    in increasing order, plus any others."""
    g = random_connected_multigraph(Random(draw(st.integers(min_value=0, max_value=10_000))))
    n = g.n
    slack = draw(st.lists(st.integers(min_value=-2, max_value=8), min_size=n, max_size=n))
    done = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    extra = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    start = sorted({v for v in range(n) if slack[v] <= 0 and not done[v]} | extra)
    return g, slack, bytearray(done), start


def _naive_cascade(nbrs, slack, done):
    """Rescan every vertex before each firing and fire the lowest-indexed
    eligible one: not done, slack <= 0."""
    slack, done, order = list(slack), bytearray(done), []
    while True:
        v = next((v for v in range(len(slack)) if not done[v] and slack[v] <= 0), None)
        if v is None:
            return order, slack, done
        done[v] = 1
        order.append(v)
        for u, m in nbrs[v]:
            slack[u] -= m


@given(cascade_inputs())
def test_cascade_matches_naive_rescan(inputs):
    g, slack, done, start = inputs
    expected = _naive_cascade(g.nbrs, slack, done)
    order = _cascade(g.nbrs, slack, done, start)
    # the final slack of done vertices too, which the top-up search reads
    assert (order, slack, done) == expected


@given(graph_and_divisor, st.integers(min_value=0, max_value=2**32 - 1))
def test_seeded_policy_draws_from_sorted_active_list(gf, policy_seed):
    g, f = gf
    expected = _seeded_reference(g, f, Random(policy_seed))
    assert classify_halting(g, f, rng=Random(policy_seed)) == expected
    slack = _slack(g, f)
    halted, _order, _counts = _play(g.degrees, g.nbrs, slack, Random(policy_seed))
    assert halted == expected.is_halting
    assert slack == _slack(g, expected.stable if halted else expected.witness.final)


def _board(n):
    # a sparse multigraph: an n-cycle plus a chord of multiplicity 1-3 from
    # every third vertex
    edges = [(v, (v + 1) % n, 1) for v in range(n)]
    edges += [(v, (7 * v + 5) % n, 1 + v % 3) for v in range(0, n, 3) if (7 * v + 5) % n != v]
    return Multigraph(n, edges)


def _long_game_divisor(g):
    # maximal stable plus one chip on vertices 0-2: non-halting, and on
    # _board(600) the lowest-first game takes 4,778 firings
    f = [d - 1 for d in g.degrees]
    for v in (0, 1, 2):
        f[v] += 1
    return f


def test_large_board_games():
    g = _board(240)
    # degree - 1 everywhere is maximal stable; three chips over it make a
    # non-halting game of ~1,900 firings, with many vertices active at once
    f = [d - 1 for d in g.degrees]
    for v in (0, 1, 2):
        f[v] += 1
    witness = classify_halting(g, f).witness
    assert witness is not None and len(witness.firing_order) > 1000
    assert _replay_lowest_first(g, f, witness.firing_order, once=False) == witness.final
    assert classify_halting(g, f, rng=Random(3)) == _seeded_reference(g, f, Random(3))

    g = _board(600)
    # one chip under maximal stable on every third vertex, and three
    # neighbouring vertices hold three times their degree more: a halting
    # game of ~700 firings
    f = [d - 1 - (v % 3 == 0) for v, d in enumerate(g.degrees)]
    for v in (5, 6, 7):
        f[v] += 3 * g.degrees[v]
    verdict = classify_halting(g, f)
    assert verdict.kind == HALTING
    halted, order, _counts = _play(g.degrees, g.nbrs, _slack(g, f))
    assert halted and len(order) > 500
    assert _replay_lowest_first(g, f, order, once=False) == verdict.stable
    assert all(x < d for x, d in zip(verdict.stable, g.degrees))
    assert classify_halting(g, f, rng=Random(3)) == verdict

    # the seeded non-halting witness above vertex id 256 as well
    f = _long_game_divisor(g)
    seeded = classify_halting(g, f, rng=Random(5))
    assert seeded.witness is not None and max(seeded.witness.firing_order) > 256
    assert seeded == _seeded_reference(g, f, Random(5))


def test_long_witness_memory():
    # the witness lists one vertex per firing: each entry should cost one
    # pointer to the int the graph already holds, not a fresh int
    g = _board(600)
    f = _long_game_divisor(g)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        witness = classify_halting(g, f).witness
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(witness.firing_order) == 4778
    assert retained <= 12 * len(witness.firing_order)
