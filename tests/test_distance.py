import os
import resource
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, strategies as st

import chipfiring
from chipfiring import (
    DisconnectedGraphError,
    Multigraph,
    classify_halting,
    dist_nonhalt,
    dist_rec,
    is_recurrent,
    is_winnable,
    min_target_set,
    rank,
    winnability_complement,
)
from chipfiring.chipfire import _play, _reduce
from chipfiring.distance import DistanceResult, effective_divisors
from chipfiring.families import (
    connected_multigraphs,
    connected_simple_graphs,
    cycle_graph,
    divisors_in_box,
    random_connected_multigraph,
    random_divisor,
)
from chipfiring.oracles import _top_ups, rank_definitional
from chipfiring.reductions import reduce_tss_to_rec
from test_tss import _random_simple_graph

K2 = Multigraph(2, [(0, 1, 1)])
C3 = cycle_graph(3)


def deficit(g, f):
    """Chips that raise every vertex to its degree, which makes f recurrent:
    a bound on both distances."""
    return sum(max(0, d - x) for d, x in zip(g.degrees, f))


def _level(total, n):
    return tuple(tuple(c) for c in effective_divisors(total, n))


def test_effective_divisors_order():
    # chips land on the lowest vertex ids first
    assert _level(1, 2) == ((1, 0), (0, 1))
    level = _level(3, 3)
    assert level[0] == (3, 0, 0)
    assert level[1] == (2, 1, 0)
    assert level[-1] == (0, 0, 3)
    assert len(level) == 10


def test_effective_divisors_steps_one_list():
    # each step updates the same list in place: no table, no tuple per step
    steps = list(effective_divisors(3, 3))
    assert len(steps) == 10 and all(c is steps[0] for c in steps)
    # C(35, 11), about 4.2 * 10^8 divisors, that no table could hold
    assert next(effective_divisors(24, 12)) == [24] + [0] * 11


def test_upper_bound_reaches_recurrent():
    rng = Random(1)
    for _ in range(50):
        g = random_connected_multigraph(rng, max_n=5)
        f = random_divisor(rng, g)
        filler = tuple(max(0, d - x) for d, x in zip(g.degrees, f))
        assert is_recurrent(g, tuple(a + b for a, b in zip(f, filler)))[0]


def test_dist_nonhalt_examples():
    assert dist_nonhalt(K2, (1, 0)) == DistanceResult(0, (0, 0))
    assert dist_nonhalt(K2, (0, 0)) == DistanceResult(1, (1, 0))
    assert dist_nonhalt(K2, (0, 0)).to_json() == {"value": 1, "witness": [1, 0]}
    assert dist_nonhalt(C3, (0, 0, 0)) == DistanceResult(3, (2, 1, 0))


def test_dist_rec_examples():
    assert dist_rec(C3, (2, 1, 0)).value == 0
    assert dist_rec(K2, (0, 0)) == DistanceResult(1, (1, 0))
    assert dist_rec(C3, (0, 0, 0)) == DistanceResult(3, (2, 1, 0))


def test_rank_examples():
    assert rank(K2, (0, 0)) == 0
    assert rank(K2, (-1, 0)) == -1
    assert rank(C3, (1, 0, 0)) == 0
    assert rank(C3, (1, 1, 1)) == 2


def test_rank_satisfies_riemann_roch():
    # Baker-Norine: r(D) - r(K - D) = deg D - g + 1 with K(v) = deg(v) - 2.
    # rank answers through this identity, so both sides come from the search
    # behind it, which uses only that degree >= genus is winnable
    for g in connected_multigraphs(4, 5):
        canonical = tuple(d - 2 for d in g.degrees)
        genus = g.genus()
        for f in divisors_in_box(g, -1, 0):
            dual = tuple(k - x for k, x in zip(canonical, f))
            searched = [dist_nonhalt(g, winnability_complement(g, h)).value - 1 for h in (f, dual)]
            assert searched[0] - searched[1] == sum(f) - genus + 1, (g, f)


def test_rank_matches_definitional_in_every_regime():
    regimes = set()
    for g in connected_multigraphs(4, 5):
        genus = g.genus()
        for f in divisors_in_box(g, -1, 0):
            d = sum(f)
            if d < 0:
                regimes.add("negative")
            elif d > 2 * genus - 2:
                regimes.add("closed form")
            elif d > genus - 1:
                regimes.add("dual")
            else:
                regimes.add("searched")
            assert rank(g, f) == rank_definitional(g, f), (g.edges(), f)
    assert regimes == {"negative", "closed form", "dual", "searched"}


def test_disconnected_rejected():
    # connectivity is checked before the divisor, so a divisor of the wrong
    # length on a disconnected graph is reported as the disconnection
    g = Multigraph(2)
    for solver in (dist_rec, dist_nonhalt, rank):
        for f in ((0, 0), (0,)):
            with pytest.raises(DisconnectedGraphError):
                solver(g, f)


def test_single_vertex():
    k1 = Multigraph(1)
    assert dist_nonhalt(k1, (-3,)) == DistanceResult(3, (3,))
    assert dist_rec(k1, (0,)).value == 0
    assert rank(k1, (2,)) == 2
    assert rank(k1, (-1,)) == -1


instances = st.integers(min_value=0, max_value=10_000).map(
    lambda seed: (
        random_connected_multigraph(Random(seed), max_n=4, max_extra_edges=2),
        random_divisor(Random(seed + 1), random_connected_multigraph(Random(seed), max_n=4, max_extra_edges=2), low=-2, high_offset=1),
    )
)


@given(instances)
def test_distance_chain_inequality(gf):
    g, f = gf
    a = dist_nonhalt(g, f).value
    b = dist_rec(g, f).value
    assert a <= b <= deficit(g, f)


@given(instances)
def test_witness_validity(gf):
    g, f = gf
    result = dist_rec(g, f)
    assert min(result.witness) >= 0
    assert sum(result.witness) == result.value
    assert is_recurrent(g, tuple(a + b for a, b in zip(f, result.witness)))[0]

    result = dist_nonhalt(g, f)
    assert min(result.witness) >= 0
    assert sum(result.witness) == result.value
    reached = tuple(a + b for a, b in zip(f, result.witness))
    assert not classify_halting(g, reached).is_halting


@given(instances, st.integers(min_value=0, max_value=9999))
def test_distance_monotone_under_addition(gf, eseed):
    g, f = gf
    extra = random_divisor(Random(eseed), g, low=0, high_offset=0)
    bumped = tuple(a + b for a, b in zip(f, extra))
    assert dist_nonhalt(g, bumped).value <= dist_nonhalt(g, f).value
    assert dist_rec(g, bumped).value <= dist_rec(g, f).value


@given(st.integers(min_value=0, max_value=10_000))
def test_distance_and_rank_depend_only_on_the_class(seed):
    # dist_nonhalt plays from a reduced equivalent of f: any f - L x, here
    # with up to a million firings per vertex, has the same value and witness
    rng = Random(seed)
    g = random_connected_multigraph(rng, max_n=6, max_extra_edges=3)
    f = random_divisor(rng, g, low=-2, high_offset=0)
    moved = list(f)
    for v in range(g.n):
        x = rng.randint(-10**6, 10**6)
        moved[v] -= g.degrees[v] * x
        for u, m in g.nbrs[v]:
            moved[u] += m * x
    assert dist_nonhalt(g, moved) == dist_nonhalt(g, f)
    assert rank(g, moved) == rank(g, f)


def _relabel(g, f, perm):
    """g and f with vertex v renamed perm[v]."""
    moved = [0] * g.n
    for v, x in enumerate(f):
        moved[perm[v]] = x
    return Multigraph(g.n, [(perm[u], perm[v], m) for u, v, m in g.edges()]), tuple(moved)


def _values(g, f):
    return rank(g, f), is_winnable(g, f), dist_nonhalt(g, f).value, dist_rec(g, f).value


def test_values_do_not_depend_on_the_labels():
    # renaming the vertices changes no value; witnesses follow the labels,
    # so only values are compared.  A cut or a seed order that reads the
    # labels must keep this identity.
    rng = Random(32)
    simple = 0
    for _ in range(600):
        g = random_connected_multigraph(rng, max_n=7, max_extra_edges=4)
        f = random_divisor(rng, g, low=-2, high_offset=1)
        perm = rng.sample(range(g.n), g.n)
        h, moved = _relabel(g, f, perm)
        assert _values(h, moved) == _values(g, f)
        if not g.is_simple():
            continue
        simple += 1
        tau = tuple(rng.randint(0, d + 1) for d in g.degrees)
        assert min_target_set(h, _relabel(g, tau, perm)[1]).size == min_target_set(g, tau).size
    # and on simple graphs of up to 24 vertices, past the multigraph draws
    for _ in range(300):
        g = _random_simple_graph(rng, rng.randint(2, 24))
        tau = tuple(rng.randint(0, d + 1) for d in g.degrees)
        perm = rng.sample(range(g.n), g.n)
        h, moved = _relabel(g, tau, perm)
        assert min_target_set(h, moved).size == min_target_set(g, tau).size
    assert simple >= 50


def _raised(vector, v):
    return vector[:v] + (vector[v] + 1,) + vector[v + 1:]


def test_one_more_chip_or_threshold_moves_each_value_by_at_most_one():
    # a chip at v raises rank by 0 or 1 and lowers each distance by 0 or 1
    rng = Random(33)
    for _ in range(400):
        g = random_connected_multigraph(rng, max_n=6)
        f = random_divisor(rng, g, low=-2, high_offset=1)
        r, nonhalt, rec = rank(g, f), dist_nonhalt(g, f).value, dist_rec(g, f).value
        for v in range(g.n):
            up = _raised(f, v)
            assert rank(g, up) - r in (0, 1)
            assert nonhalt - dist_nonhalt(g, up).value in (0, 1)
            assert rec - dist_rec(g, up).value in (0, 1)
    # raising tau(v) <= deg(v) by 1 raises the least target set size by 0 or
    # 1: every connected simple graph of up to 4 vertices, tau in [0, deg]
    steps = 0
    for g in connected_simple_graphs([1, 2, 3, 4]):
        for tau in divisors_in_box(g, 0, 0):
            size = min_target_set(g, tau).size
            for v in range(g.n):
                step = min_target_set(g, _raised(tau, v)).size - size
                assert step in (0, 1)
                steps += step
    assert steps == 798  # of 2,610 raises


def test_float_solve_only_chooses_the_firing_vector(monkeypatch):
    # _reduce applies the firing vector the float solve suggests exactly and
    # keeps it only if it shrinks the entries, so a solve that returns zeros
    # (the first round shrinks nothing and stops) or noise changes no answer
    # and no witness; every a here exceeds the cycle's 8 edges
    g = cycle_graph(8)
    cases = [(a, -a) + (0,) * 6 for a in (9, 16, 17, 40, 41)]
    expected = [(is_winnable(g, f), dist_nonhalt(g, f)) for f in cases]
    rng = Random(28)
    for solve in (lambda degs, nbrs, b: [0.0] * len(b),
                  lambda degs, nbrs, b: [rng.uniform(-50.0, 50.0) for _ in b]):
        monkeypatch.setattr(chipfiring.chipfire, "_grounded_solve", solve)
        assert [(is_winnable(g, f), dist_nonhalt(g, f)) for f in cases] == expected


@given(instances)
def test_rank_nonnegative_iff_winnable(gf):
    g, f = gf
    assert (rank(g, f) >= 0) == is_winnable(g, f)


def _naive_dist(g, f, predicate):
    for k in range(deficit(g, f) + 1):
        for cand in _top_ups(k, g.n):
            if predicate(tuple(a + b for a, b in zip(f, cand))):
                return DistanceResult(k, cand)
    raise AssertionError


def test_solvers_match_direct_enumeration():
    # the incremental evaluators must agree with per-candidate re-simulation
    rng = Random(99)
    for _ in range(150):
        g = random_connected_multigraph(rng, max_n=4, max_extra_edges=2)
        f = random_divisor(rng, g, low=-2, high_offset=1)
        assert dist_rec(g, f) == _naive_dist(g, f, lambda h: is_recurrent(g, h)[0])
        assert dist_nonhalt(g, f) == _naive_dist(
            g, f, lambda h: not classify_halting(g, h).is_halting
        )


def test_dist_nonhalt_skips_only_levels_without_witness():
    # levels below |E| - deg f are never searched: there the complement
    # deg - 1 - f - g has degree >= genus, so it is winnable and f + g halts
    rng = Random(2206)
    skipping = 0
    for _ in range(300):
        g = random_connected_multigraph(rng, max_n=4, max_extra_edges=3)
        f = random_divisor(rng, g, low=-2, high_offset=0)
        if g.edge_count - sum(f) < 2:
            continue
        skipping += 1
        assert dist_nonhalt(g, f) == _naive_dist(
            g, f, lambda h: not classify_halting(g, h).is_halting
        ), (g.edges(), f)
    assert skipping >= 100


def test_dist_rec_matches_direct_enumeration_on_heavy_edges():
    # slacks far above 1: up-front payments, partial payments and the budget
    # bounds of the search all come into play
    rng = Random(7)
    for _ in range(120):
        n = rng.randint(2, 3)
        edges = [(u, v, rng.randint(1, 6)) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.8]
        g = Multigraph(n, edges)
        if not g.is_connected():
            continue
        f = tuple(rng.randint(-6, 4) for _ in range(n))
        assert dist_rec(g, f) == _naive_dist(g, f, lambda h: is_recurrent(g, h)[0]), (edges, f)


def test_dist_rec_matches_direct_enumeration_on_bundle_gadgets():
    # 109 gadgets on 8-15 vertices, every 2-3 vertex source and threshold in
    # [0, deg + 1]: bundles of N parallel edges and payments below the slack
    for src in connected_simple_graphs([2, 3]):
        for tau in divisors_in_box(src, low=0, high_offset=1):
            inst = reduce_tss_to_rec(src, tau)
            gp, x = inst.gprime, inst.x
            assert dist_rec(gp, x) == _naive_dist(gp, x, lambda h: is_recurrent(gp, h)[0]), tau


def _dist_nonhalt_from_scratch(g, f):
    # dist_nonhalt without prefix states: every candidate's game is played
    # from the stabilization of the reduced f
    degs, nbrs, n = g.degrees, g.nbrs, g.n
    f = _reduce(degs, nbrs, f)
    slack = [d - x for d, x in zip(degs, f)]
    if not _play(degs, nbrs, slack)[0]:
        return DistanceResult(0, (0,) * n)
    for k in range(max(1, g.edge_count - sum(f)), deficit(g, f) + 1):
        for cand in _top_ups(k, n):
            trial = [s - c for s, c in zip(slack, cand)]
            if not _play(degs, nbrs, trial)[0]:
                return DistanceResult(k, cand)
    raise AssertionError


def test_dist_nonhalt_matches_from_scratch_search_exhaustive():
    # every connected multigraph on 4 vertices with at most 6 edges, every
    # divisor within one chip of [0, deg]: 43,025 queries
    count = 0
    for g in connected_multigraphs(4, 6):
        for f in divisors_in_box(g, -1, 1):
            assert dist_nonhalt(g, f) == _dist_nonhalt_from_scratch(g, f), (g.edges(), f)
            count += 1
    assert count == 43_025


def test_dist_nonhalt_matches_from_scratch_search_at_deep_levels():
    # 5-8 vertex multigraphs 16-24 chips below their degrees, as searched by
    # rank, kept when the answer lies at level 5-15: deep prefixes, many
    # candidates resumed between two avalanches
    rng = Random(1716)
    kept = 0
    while kept < 150:
        n = rng.randint(5, 8)
        edges = [(rng.randrange(v), v, rng.randint(1, 3)) for v in range(1, n)]
        edges += [(*rng.sample(range(n), 2), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        g = Multigraph(n, edges)
        f = list(g.degrees)
        for _ in range(rng.randint(16, 24)):
            f[rng.randrange(n)] -= 1
        expected = _dist_nonhalt_from_scratch(g, f)
        if 5 <= expected.value <= 15:
            assert dist_nonhalt(g, f) == expected, (edges, f)
            kept += 1


def _cap_address_space_128_mib():
    resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))


def _run_capped_128_mib(code):
    src = str(Path(chipfiring.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          preexec_fn=_cap_address_space_128_mib, capture_output=True,
                          text=True, timeout=120)


def test_dist_nonhalt_on_the_k5_apex_gadget_fits_in_128_mib():
    # the 36-vertex apex gadget of K5 at tau 4 searches levels 1-4 on 36
    # vertices; a top-up table that cached every smaller sub-table ran out
    # of memory here
    proc = _run_capped_128_mib("from chipfiring import dist_nonhalt, reduce_tss_to_nonhalt\n"
                               "from chipfiring.families import complete_graph\n"
                               "apex, _ = reduce_tss_to_nonhalt(complete_graph(5), (4,) * 5)\n"
                               "print(apex.gpp.n, dist_nonhalt(apex.gpp, apex.fpp).value)\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "36 4\n", "")


@pytest.mark.parametrize(
    "call, out",
    [
        # level 24 on 12 vertices: a table of that level alone holds C(35, 11),
        # about 4.2 * 10^8, divisors
        ("dist_nonhalt(cycle_graph(12), (-1,) * 12)",
         f"DistanceResult(value=24, witness={(23, 1) + (0,) * 10})"),
        # the search starts at level |E| - deg f = 16: C(31, 15), about 3.0 * 10^8
        ("dist_nonhalt(cycle_graph(16), (10**4 + 8, -(10**4 + 8)) + (0,) * 14)",
         f"DistanceResult(value=16, witness={(15, 1) + (0,) * 14})"),
        # all six reports of the chain on K6 at tau 5 agree
        ("all(r.agree for r in verify_reduction_chain(complete_graph(6), (5,) * 6))", "True"),
    ],
    ids=["c12", "c16", "k6-chain"],
)
def test_searches_whose_level_no_table_could_hold_fit_in_128_mib(call, out):
    # the walk holds one candidate and its prefix states, never a level
    proc = _run_capped_128_mib("from chipfiring import dist_nonhalt, verify_reduction_chain\n"
                               "from chipfiring.families import complete_graph, cycle_graph\n"
                               f"print({call})\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out + "\n", "")


def test_rank_matches_definitional_sample():
    # exhaustive agreement is the first acceptance criterion; spot-check here,
    # including five-vertex graphs beyond the acceptance family
    rng = Random(123)
    for _ in range(120):
        g = random_connected_multigraph(rng, max_n=5, max_extra_edges=3)
        f = random_divisor(rng, g, low=-2, high_offset=2)
        assert rank(g, f) == rank_definitional(g, f), (g.edges(), f)
