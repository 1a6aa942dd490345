import json
from random import Random

import pytest
from hypothesis import given, strategies as st

from chipfiring import (
    GraphStructureError,
    Multigraph,
    SizeGuardError,
    is_recurrent,
    is_winnable,
    min_target_set,
    rank,
    reduce_tss_to_nonhalt,
)
from chipfiring.families import (
    complete_graph,
    connected_simple_graphs,
    cycle_graph,
    divisors_in_box,
    path_graph,
    random_connected_multigraph,
    random_divisor,
)
from chipfiring.distance import dist_nonhalt, dist_rec, effective_divisors
from chipfiring.oracles import (
    EXHAUSTIVE_GUARD,
    SUBSET_GUARD,
    OracleReport,
    _run_chain,
    _top_ups,
    default_winnability_bound,
    instance_fingerprint,
    is_least_recurrent_top_up,
    rank_definitional,
    recurrent_permutation,
    ts_subset_enumeration,
    ts_tree_dp,
    verify_reduction_chain,
    winnable_exhaustive,
    winnable_within_bound,
)

K2 = Multigraph(2, [(0, 1, 1)])
C3 = cycle_graph(3)


def test_recurrent_permutation_examples():
    assert recurrent_permutation(C3, (2, 1, 0))
    assert not recurrent_permutation(K2, (0, 0))
    assert not recurrent_permutation(C3, (2, 0, 0))


def test_recurrent_permutation_guard():
    big = path_graph(10)
    with pytest.raises(SizeGuardError):
        recurrent_permutation(big, (0,) * 10)


def test_subset_and_exhaustive_guards():
    n = SUBSET_GUARD + 1
    with pytest.raises(SizeGuardError):
        ts_subset_enumeration(path_graph(n), (1,) * n)
    assert 11 ** 6 > EXHAUSTIVE_GUARD  # firing-count vectors in [0, 10] ** 6
    with pytest.raises(SizeGuardError):
        winnable_exhaustive(path_graph(6), (-1,) + (0,) * 5, 10)


@pytest.mark.parametrize("n", [*range(1, 10), 25, 36, 49])
def test_top_ups_follow_the_pipeline_enumeration(n):
    # the oracle's generator pins the order of the pipeline's successor rule,
    # up to degree 8 on small graphs and degree 3 at gadget sizes
    for k in range(9 if n < 10 else 4):
        assert tuple(_top_ups(k, n)) == effective_divisors(k, n)


def _least_by_every_level(g, f, y):
    """f + y recurrent, and no top-up of any smaller degree recurrent."""
    def recurrent(z):
        return recurrent_permutation(g, tuple(a + b for a, b in zip(f, z)))

    levels = (_top_ups(k, g.n) for k in range(sum(y)))
    return recurrent(y) and not any(recurrent(z) for level in levels for z in level)


def test_least_recurrent_top_up_matches_every_level_scan():
    # the least top-up and two that are not least, one and two chips above
    # it: a scan of the level below alone must see the smaller recurrent ones
    rng = Random(7)
    positive = 0
    for _ in range(500):
        g = random_connected_multigraph(rng, max_n=5, max_extra_edges=2)
        f = random_divisor(rng, g, low=-1, high_offset=1)
        w = dist_rec(g, f).witness
        positive += sum(w) > 0
        v = rng.randrange(g.n)
        for extra in range(3):
            y = tuple(c + extra * (u == v) for u, c in enumerate(w))
            assert is_least_recurrent_top_up(g, f, y) == _least_by_every_level(g, f, y) \
                == (extra == 0), (g.edges(), f, y)
    assert positive >= 300


def test_ts_subset_examples():
    assert ts_subset_enumeration(C3, (2, 2, 2)) == 2
    assert ts_subset_enumeration(path_graph(3), (1, 1, 1)) == 1
    assert ts_subset_enumeration(C3, (0, 0, 0)) == 0


def _random_tree(rng, n, shuffle=True):
    # a random recursive tree: each vertex hangs from an earlier one; with
    # shuffle the labels are a random permutation, otherwise every parent
    # has the smaller label
    labels = list(range(n))
    if shuffle:
        rng.shuffle(labels)
    return Multigraph(n, [(labels[rng.randrange(v)], labels[v], 1) for v in range(1, n)])


def test_tree_dp_examples():
    assert ts_tree_dp(Multigraph(1), (0,)) == 0
    assert ts_tree_dp(Multigraph(1), (1,)) == 1
    assert ts_tree_dp(path_graph(3), (1, 1, 1)) == 1
    assert ts_tree_dp(path_graph(3), (1, 2, 1)) == 1  # tau = deg: a vertex cover
    assert ts_tree_dp(path_graph(3), (2, 2, 2)) == 2  # both ends forced
    star = Multigraph(5, [(0, v, 1) for v in range(1, 5)])
    assert ts_tree_dp(star, (4, 1, 1, 1, 1)) == 1
    assert ts_tree_dp(star, (5, 1, 1, 1, 1)) == 1
    assert ts_tree_dp(star, (3, 2, 2, 2, 2)) == 4  # forced leaves activate 0
    with pytest.raises(GraphStructureError):
        ts_tree_dp(C3, (1, 1, 1))
    with pytest.raises(GraphStructureError):
        ts_tree_dp(Multigraph(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]), (1, 1, 1, 0))


def test_tree_dp_matches_subset_oracle():
    # 2-12 vertices, tau in [0, deg + 1], forced vertices included
    rng = Random(25)
    for _ in range(300):
        g = _random_tree(rng, rng.randint(2, 12))
        tau = tuple(rng.randint(0, d + 1) for d in g.degrees)
        assert ts_tree_dp(g, tau) == ts_subset_enumeration(g, tau), (g.edges(), tau)


def test_min_target_set_matches_tree_dp_past_the_subset_guard():
    # 25-40 vertices, beyond the subset oracle's reach.  At tau = deg the
    # target sets are the vertex covers and the search is slowest; it runs
    # on trees whose parents have the smaller label, where it stays fast
    rng = Random(26)
    for shuffle, thresholds in [
        (True, lambda g: tuple(rng.randint(0, d + 1) for d in g.degrees)),
        (False, lambda g: g.degrees),
    ]:
        for _ in range(20):
            g = _random_tree(rng, rng.randint(25, 40), shuffle)
            tau = thresholds(g)
            assert min_target_set(g, tau).size == ts_tree_dp(g, tau), (g.edges(), tau)


def test_rank_definitional_examples():
    assert rank_definitional(C3, (1, 1, 1)) == 2
    assert rank_definitional(K2, (0, 0)) == 0
    # K2 is a tree (genus 0) and deg D = 4 > 2g - 2, so Riemann-Roch gives
    # r(D) = deg D - g = 4: every degree-0 divisor on a tree is equivalent to 0.
    assert rank_definitional(K2, (-1, 5)) == 4
    assert rank_definitional(C3, (-1, 0, 0)) == -1


def test_winnability_strategies_agree():
    rng = Random(31)
    for _ in range(200):
        g = random_connected_multigraph(rng, max_n=3, max_extra_edges=1, max_multiplicity=2)
        f = random_divisor(rng, g, low=-4, high_offset=2)
        bound = min(default_winnability_bound(g, f), 10)
        assert winnable_within_bound(g, f, bound) == winnable_exhaustive(g, f, bound), (
            g.edges(), f, bound,
        )


@given(st.integers(min_value=0, max_value=10_000))
def test_winnability_oracle_matches_game_path(seed):
    rng = Random(seed)
    g = random_connected_multigraph(rng, max_n=4, max_extra_edges=2)
    f = random_divisor(rng, g, low=-4, high_offset=2)
    bound = default_winnability_bound(g, f)
    assert winnable_within_bound(g, f, bound) == is_winnable(g, f)


@given(st.integers(min_value=0, max_value=10_000))
def test_recurrence_oracle_matches_greedy(seed):
    rng = Random(seed)
    g = random_connected_multigraph(rng, max_n=5, max_extra_edges=2)
    f = random_divisor(rng, g, low=-1, high_offset=1)
    assert recurrent_permutation(g, f) == is_recurrent(g, f)[0]


@given(st.integers(min_value=0, max_value=5000))
def test_ts_oracle_matches_solver(seed):
    rng = Random(seed)
    from chipfiring.families import connected_simple_graphs

    g = rng.choice(connected_simple_graphs([2, 3, 4]))
    tau = tuple(rng.randint(0, d + 1) for d in g.degrees)
    assert ts_subset_enumeration(g, tau) == min_target_set(g, tau).size


@given(st.integers(min_value=0, max_value=3000))
def test_rank_definitional_matches_pipeline(seed):
    rng = Random(seed)
    g = random_connected_multigraph(rng, max_n=4, max_extra_edges=2)
    f = random_divisor(rng, g, low=-2, high_offset=1)
    assert rank_definitional(g, f) == rank(g, f)


def test_verify_chain_triangle_all_agree():
    reports = verify_reduction_chain(C3, (2, 2, 2))
    assert len(reports) == 6
    assert all(r.agree for r in reports)
    by_name = {r.quantity: r for r in reports}
    assert by_name["target-set-size/dist-rec"].pipeline == 2
    assert by_name["target-set-size/dist-nonhalt"].oracle == 2


def test_verify_chain_two_vertices_all_agree():
    reports = verify_reduction_chain(K2, (1, 1))
    assert all(r.agree for r in reports)
    assert all(r.pipeline == 1 for r in reports if "target-set" in r.quantity and "margin" not in r.quantity)


def test_verify_chain_counts_forced_vertices():
    # tau(0) = deg(0) + 1 forces vertex 0 into every target set; the gadget
    # activates it without a chip, so both distances are 0 and the verifier
    # compares the target-set size with them plus the one forced vertex
    reports = verify_reduction_chain(K2, (2, 1))
    assert all(r.agree for r in reports)
    by_name = {r.quantity: r for r in reports}
    assert by_name["target-set-size/dist-rec"].pipeline == 1
    assert by_name["target-set-size/dist-rec"].oracle == 1
    assert by_name["dist-rec/dist-nonhalt"].pipeline == 0
    assert by_name["target-set-size/dist-nonhalt"].oracle == 1


def test_verify_chain_agrees_on_every_accepted_threshold():
    # validate_thresholds accepts tau in [0, deg + 1]; 1,911 instances, 1,800
    # of them on four vertices and two on one
    for g in connected_simple_graphs([1, 2, 3, 4]):
        for tau in divisors_in_box(g, low=0, high_offset=1):
            assert all(r.agree for r in verify_reduction_chain(g, tau)), (g, tau)


def test_run_chain_returns_what_its_reports_read():
    # the run hands back the instances and results its reports were read
    # from, each equal to a fresh build or solve: 111 instances
    for g in connected_simple_graphs([1, 2, 3]):
        for tau in divisors_in_box(g, low=0, high_offset=1):
            reports, least, bundle, apex, rec, nonhalt = _run_chain(g, tau)
            assert reports == verify_reduction_chain(g, tau)
            # every field: graph, chips, N and M among them
            assert (apex, bundle) == reduce_tss_to_nonhalt(g, tau)
            assert rec == dist_rec(bundle.gprime, bundle.x)
            assert nonhalt == dist_nonhalt(apex.gpp, apex.fpp)
            assert least == min_target_set(g, tau)


def test_report_json_lines():
    reports = verify_reduction_chain(K2, (1, 1))
    for r in reports:
        obj = json.loads(r.json_line())
        assert set(obj) == {"quantity", "pipeline", "oracle", "agree", "instance"}
        assert obj["agree"] is True


def test_fingerprint_stable_and_distinct():
    a = instance_fingerprint(K2, (1, 1))
    assert a == instance_fingerprint(K2, (1, 1))
    assert a != instance_fingerprint(K2, (2, 1))
    assert len(a) == 12


def test_report_dataclass():
    r = OracleReport("q", 1, 2, False, "abc")
    assert not r.agree
    assert r.json_line() == (
        '{"agree": false, "instance": "abc", "oracle": 2, "pipeline": 1, "quantity": "q"}')
