from random import Random

import pytest

from chipfiring import (
    GraphStructureError,
    Multigraph,
    WitnessError,
    classify_halting,
    default_apex_multiplicity,
    dist_nonhalt,
    dist_rec,
    extract_target_set,
    greedy_target_set,
    is_recurrent,
    is_target_set,
    lift_target_set,
    min_target_set,
    rank,
    reduce_rec_to_nonhalt,
    reduce_tss_to_nonhalt,
    reduce_tss_to_rec,
    subdivide_to_simple,
    subdivision_roles,
)
from chipfiring.families import (
    complete_graph,
    connected_multigraphs,
    connected_simple_graphs,
    cycle_graph,
    divisors_in_box,
    random_connected_multigraph,
    random_divisor,
    threshold_assignments,
)
from chipfiring.reductions import _apex_gadget
from test_tss import _random_simple_graph

K2 = Multigraph(2, [(0, 1, 1)])
C3 = cycle_graph(3)


def xplus(inst, y):
    return tuple(a + b for a, b in zip(inst.x, y))


class TestBundleGadget:
    def test_two_vertex_shape(self):
        inst = reduce_tss_to_rec(K2, (1, 1))
        assert inst.gprime.n == 8  # 3*2 + 2*1
        assert inst.N == 4
        # chips: inner = deg - tau = 4+1-1, outer = deg - 1, cores and ports = 1
        assert inst.x[inst.inner[0]] == 4
        assert inst.x[inst.outer[0]] == 4
        assert inst.x[inst.core[0]] == 1
        assert inst.x[inst.ports[(0, 1)]] == 1
        assert dist_rec(inst.gprime, inst.x).value == 1 == min_target_set(K2, (1, 1)).size

    def test_triangle_shape_and_equality(self):
        inst = reduce_tss_to_rec(C3, (2, 2, 2))
        assert inst.gprime.n == 15  # 3*3 + 2*3
        assert inst.N == 5
        assert dist_rec(inst.gprime, inst.x).value == 2 == min_target_set(C3, (2, 2, 2)).size

    def test_bundle_size_on_four_vertices(self):
        diamond = Multigraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1)])
        inst = reduce_tss_to_rec(diamond, (2, 2, 2, 2))
        assert inst.N == 6  # |V| + 2

    def test_structural_invariants(self):
        for g, tau in [(K2, (1, 1)), (C3, (1, 2, 2)), (complete_graph(4), (3, 1, 2, 2))]:
            inst = reduce_tss_to_rec(g, tau)
            gp = inst.gprime
            assert gp.is_connected()
            assert gp.n == 3 * g.n + 2 * g.edge_count
            assert gp.edge_count == (inst.N + 1) * (g.n + 2 * g.edge_count)
            assert all(0 <= inst.x[z] <= gp.degrees[z] for z in range(gp.n))
            assert all(inst.x[z] == 1 for z in inst.bullet)
            assert inst.circ | inst.bullet == frozenset(range(gp.n))
            assert not inst.circ & inst.bullet
            assert sorted(inst.roles) == sorted(
                [f"i:{v}" for v in range(g.n)]
                + [f"c:{v}" for v in range(g.n)]
                + [f"o:{v}" for v in range(g.n)]
                + [f"p:{u}:{v}" for u, v, _ in g.edges()]
                + [f"p:{v}:{u}" for u, v, _ in g.edges()]
            )

    def test_input_validation(self):
        with pytest.raises(GraphStructureError):
            reduce_tss_to_rec(Multigraph(2, [(0, 1, 2)]), (1, 1))  # not simple
        with pytest.raises(GraphStructureError):
            reduce_tss_to_rec(Multigraph(1), (0,))  # too small
        with pytest.raises(GraphStructureError):
            reduce_tss_to_rec(Multigraph(3, [(0, 1, 1)]), (1, 1, 0))  # disconnected


class TestWitnessTransport:
    def test_lift_two_vertices(self):
        inst = reduce_tss_to_rec(K2, (1, 1))
        y = lift_target_set(inst, (0,))
        assert y[inst.outer[0]] == 1 and sum(y) == 1
        assert is_recurrent(inst.gprime, xplus(inst, y))[0]

    def test_lift_triangle(self):
        inst = reduce_tss_to_rec(C3, (2, 2, 2))
        y = lift_target_set(inst, (0, 1))
        assert sum(y) == 2
        assert is_recurrent(inst.gprime, xplus(inst, y))[0]

    def test_lift_rejects_non_target_set(self):
        inst = reduce_tss_to_rec(C3, (2, 2, 2))
        with pytest.raises(WitnessError):
            lift_target_set(inst, (0,))

    def test_forced_vertex_needs_no_seed_chip(self):
        # tau(0) = deg(0) + 1 forces vertex 0 into every target set; the
        # gadget gives it threshold 0, so it activates without a chip
        inst = reduce_tss_to_rec(K2, (2, 1))
        assert inst.forced == 1
        assert min_target_set(K2, (2, 1)).size == 1
        assert dist_rec(inst.gprime, inst.x).value == 0
        y = lift_target_set(inst, (0,))
        assert sum(y) == 0
        assert is_recurrent(inst.gprime, xplus(inst, y))[0]
        assert extract_target_set(inst, y).members == (0,)
        y = list(y)
        y[inst.outer[0]] = 1  # a chip a minimum witness never needs
        assert extract_target_set(inst, tuple(y)).members == (0,)

    def test_extract_from_outer_witness(self):
        inst = reduce_tss_to_rec(K2, (1, 1))
        y = [0] * inst.gprime.n
        y[inst.outer[0]] = 1
        got = extract_target_set(inst, tuple(y))
        assert got.members == (0,)
        assert is_target_set(K2, (1, 1), got.members)

    def test_extract_relocates_inner_chip(self):
        # an alternative minimum witness puts its chip on an inner vertex,
        # read as a seed on the vertex that owns it
        inst = reduce_tss_to_rec(K2, (1, 1))
        y = [0] * inst.gprime.n
        y[inst.inner[0]] = 1
        assert is_recurrent(inst.gprime, xplus(inst, y))[0]
        got = extract_target_set(inst, tuple(y))
        assert got.size == 1
        assert is_target_set(K2, (1, 1), got.members)

    def test_extract_solver_witness_triangle(self):
        inst = reduce_tss_to_rec(C3, (2, 2, 2))
        result = dist_rec(inst.gprime, inst.x)
        got = extract_target_set(inst, result.witness)
        assert got.size == result.value == 2
        assert is_target_set(C3, (2, 2, 2), got.members)

    def test_extract_rejects_non_recurrent(self):
        inst = reduce_tss_to_rec(K2, (1, 1))
        with pytest.raises(WitnessError):
            extract_target_set(inst, (0,) * inst.gprime.n)

    def test_extract_rejects_negative(self):
        inst = reduce_tss_to_rec(K2, (1, 1))
        y = [0] * inst.gprime.n
        y[inst.outer[0]] = 2
        y[inst.inner[0]] = -1
        with pytest.raises(WitnessError):
            extract_target_set(inst, tuple(y))

    def test_extract_reads_non_minimum_witness(self):
        # two chips on an outer vertex can only come from a non-minimum
        # witness; each vertex holding chips gives its owner
        inst = reduce_tss_to_rec(K2, (1, 1))
        y = [0] * inst.gprime.n
        y[inst.outer[0]] = 2
        assert extract_target_set(inst, tuple(y)).members == (0,)
        y[inst.ports[(1, 0)]] = 1
        assert extract_target_set(inst, tuple(y)).members == (0, 1)

    def test_round_trip_sizes(self):
        for g, tau in [(K2, (1, 1)), (C3, (2, 2, 2)), (C3, (1, 2, 1))]:
            inst = reduce_tss_to_rec(g, tau)
            best = min_target_set(g, tau)
            y = lift_target_set(inst, best)
            back = extract_target_set(inst, y)
            assert back.size == best.size


def unfired(gp, chips):
    """Vertices an exactly-once game from chips never fires, by rounds,
    written independently of the cascade."""
    fired = set()
    grew = True
    while grew:
        grew = False
        for z in range(gp.n):
            if z not in fired and chips[z] + sum(m for u, m in gp.nbrs[z] if u in fired) >= gp.degrees[z]:
                fired.add(z)
                grew = True
    return [z for z in range(gp.n) if z not in fired]


def random_witness(rng, inst):
    """A random recurrence witness: a few piles of 1, 2, N - 1 or N chips on
    any gadget vertices, topped up with such piles on unfired vertices until
    x + y is recurrent."""
    gp, piles = inst.gprime, (1, 2, inst.N - 1, inst.N)
    y = [0] * gp.n
    for _ in range(rng.randint(0, 3)):
        y[rng.randrange(gp.n)] += rng.choice(piles)
    while left := unfired(gp, xplus(inst, y)):
        y[rng.choice(left)] += rng.choice(piles)
    return tuple(y)


class TestTotalExtraction:
    def test_every_witness_gives_a_target_set_exhaustive(self):
        # 2-4 vertices, tau in [0, deg + 1], forced vertices included
        rng = Random(12)
        bullet_chips = stacked = 0
        for g in connected_simple_graphs([2, 3, 4]):
            for tau in threshold_assignments(g, low=0, high_offset=1):
                inst = reduce_tss_to_rec(g, tau)
                forced = {v for v in range(g.n) if tau[v] > g.degrees[v]}
                best = min_target_set(g, tau).size
                assert extract_target_set(inst, dist_rec(inst.gprime, inst.x).witness).size == best
                for _ in range(3):
                    y = random_witness(rng, inst)
                    got = extract_target_set(inst, y).members
                    support = sum(1 for k in y if k)
                    assert is_target_set(g, tau, got), (g.edges(), tau, y)
                    assert forced <= set(got) and len(got) <= support + len(forced)
                    bullet_chips += any(y[z] for z in inst.bullet)
                    stacked += max(y) > 1
        assert bullet_chips and stacked

    def test_greedy_round_trip_at_scale(self):
        # polynomial all the way: no exponential solver runs
        rng = Random(5)
        for n in (50, 120, 300, 500):
            g = _random_simple_graph(rng, n)
            tau = tuple(rng.randint(0, d + 1) for d in g.degrees)
            greedy = greedy_target_set(g, tau)
            inst = reduce_tss_to_rec(g, tau)
            assert extract_target_set(inst, lift_target_set(inst, greedy)) == greedy


class TestApexGadget:
    def test_default_multiplicity_formula(self):
        assert default_apex_multiplicity(K2, (0, 0)) == 3  # 2*1 + 0 + 0 + 1
        assert default_apex_multiplicity(K2, (-2, 0)) == 5  # 2 + 2 + 0 + 1
        assert default_apex_multiplicity(K2, (4, 0)) == 6  # 2 + 0 + (4-1) + 1

    def test_two_vertex_instance(self):
        inst = reduce_rec_to_nonhalt(K2, (0, 0))
        assert inst.M == 3
        assert inst.gpp.n == 3
        assert inst.fpp == (3, 3, 0)
        assert inst.gpp.edge_count == 7  # 1 + 3*2
        assert inst.new_vertex == 2
        assert inst.roles == ("orig:0", "orig:1", "new")
        assert dist_nonhalt(inst.gpp, inst.fpp).value == 1 == dist_rec(K2, (0, 0)).value

    def test_adds_one_vertex(self):
        rng = Random(3)
        for _ in range(10):
            g = random_connected_multigraph(rng, max_n=4)
            f = random_divisor(rng, g, low=-1, high_offset=1)
            inst = reduce_rec_to_nonhalt(g, f)
            assert inst.gpp.n == g.n + 1
            assert inst.gpp.edge_count == g.edge_count + inst.M * g.n
            assert inst.fpp[inst.new_vertex] == 0

    def test_supplied_m_verified(self):
        with pytest.raises(WitnessError):
            reduce_rec_to_nonhalt(K2, (0, 0), M=1)
        inst = reduce_rec_to_nonhalt(K2, (0, 0), M=2)
        assert dist_nonhalt(inst.gpp, inst.fpp).value == 1

    def test_supplied_m_below_bound_rejected(self):
        # dist_rec(K2, (0, 0)) = 1, so M = 1 is too small
        with pytest.raises(WitnessError, match="must exceed 1"):
            reduce_rec_to_nonhalt(K2, (0, 0), M=1)

    def test_bad_m_rejected(self):
        with pytest.raises(GraphStructureError):
            reduce_rec_to_nonhalt(K2, (0, 0), M=0)
        assert reduce_rec_to_nonhalt(K2, (1, 1), M=1).M == 1  # recurrent already
        with pytest.raises(GraphStructureError):
            reduce_rec_to_nonhalt(K2, (1, 1), M=True)


class TestComposedReduction:
    def test_triangle(self):
        apex_inst, bundle_inst = reduce_tss_to_nonhalt(C3, (2, 2, 2))
        assert bundle_inst.gprime.n == 15
        assert apex_inst.gpp.n == 16  # 3|V| + 2|E| + 1
        assert apex_inst.M == 4  # |V| + 1
        assert apex_inst.roles[-1] == "new"
        assert apex_inst.roles[:15] == bundle_inst.roles
        assert dist_nonhalt(apex_inst.gpp, apex_inst.fpp).value == 2

    def test_two_vertices(self):
        apex_inst, bundle_inst = reduce_tss_to_nonhalt(K2, (1, 1))
        assert apex_inst.gpp.n == 9
        assert apex_inst.M == 3
        assert dist_nonhalt(apex_inst.gpp, apex_inst.fpp).value == 1


def bundle_edge_list(g):
    """The bundle gadget's edges in the documented id layout: inner, core
    and outer blocks, then two ports per source edge in sorted edge order."""
    n, big = g.n, g.n + 2
    edges = []
    for v in range(n):
        edges += [(v, n + v, big), (n + v, 2 * n + v, 1)]
    for j, (u, v, _m) in enumerate(g.edges()):
        puv, pvu = 3 * n + 2 * j, 3 * n + 2 * j + 1
        edges += [(2 * n + u, puv, big), (puv, v, 1), (2 * n + v, pvu, big), (pvu, u, 1)]
    return edges


def assert_same_graph(built, reference):
    """A gadget built from maps equals Multigraph(n, edges) of its edge list,
    and its preset connectivity and simplicity equal a fresh computation."""
    assert (built.n, built.nbrs, built.degrees, built.edge_count) == (
        reference.n, reference.nbrs, reference.degrees, reference.edge_count)
    assert built._connected is True and reference.is_connected()
    assert built.is_simple() == reference.is_simple()


class TestGadgetsMatchEdgeListBuild:
    def test_bundle_and_composed_gadgets(self):
        forced_seen = 0
        for g in connected_simple_graphs([2, 3, 4, 5]):
            bundle_ref = Multigraph(3 * g.n + 2 * g.edge_count, bundle_edge_list(g))
            apex = bundle_ref.n
            apex_ref = Multigraph(
                apex + 1, bundle_ref.edges() + [(z, apex, g.n + 1) for z in range(apex)]
            )
            # thresholds run up to deg + 1, so forced vertices are included
            for tau in threshold_assignments(g):
                apex_inst, bundle_inst = reduce_tss_to_nonhalt(g, tau)
                forced_seen += bundle_inst.forced > 0
                assert_same_graph(bundle_inst.gprime, bundle_ref)
                assert_same_graph(apex_inst.gpp, apex_ref)
                assert apex_inst.roles == bundle_inst.roles + ("new",)
                assert apex_inst.fpp == tuple(x + g.n + 1 for x in bundle_inst.x) + (0,)
        assert forced_seen

    def test_apex_gadgets(self):
        graphs = connected_multigraphs(4, 5)
        assert graphs[0].n == 1
        for g in graphs:
            refs = {}
            roles = tuple(f"orig:{v}" for v in range(g.n)) + ("new",)
            for f in divisors_in_box(g, -1, 0):
                # a supplied M is checked by solving dist_rec: build M = 2 directly
                for inst in (reduce_rec_to_nonhalt(g, f), _apex_gadget(g, f, 2, roles)):
                    if inst.M not in refs:
                        refs[inst.M] = Multigraph(
                            g.n + 1, g.edges() + [(v, g.n, inst.M) for v in range(g.n)]
                        )
                    assert_same_graph(inst.gpp, refs[inst.M])
                    assert inst.fpp == tuple(x + inst.M for x in f) + (0,)
                    assert inst.roles == roles


class TestSubdivision:
    def test_triangle_to_hexagon(self):
        g2, f2 = subdivide_to_simple(C3, (1, 0, 0))
        assert g2.n == 6
        assert g2.is_simple()
        assert g2.degree_vector() == (2,) * 6
        assert f2 == (1, 0, 0, 0, 0, 0)
        assert rank(C3, (1, 0, 0)) == rank(g2, f2) == 0

    def test_double_edge_to_square(self):
        g = Multigraph(2, [(0, 1, 2)])
        g2, f2 = subdivide_to_simple(g, (0, 0))
        assert g2.n == 4
        assert g2.is_simple()
        assert rank(g, (0, 0)) == rank(g2, f2)

    def test_counts_and_roles(self):
        g = Multigraph(3, [(0, 1, 2), (1, 2, 1)])
        g2, f2 = subdivide_to_simple(g, (1, -1, 0))
        assert g2.n == g.n + g.edge_count
        assert g2.edge_count == 2 * g.edge_count
        assert subdivision_roles(g) == ("orig:0", "orig:1", "orig:2", "sub:0:1", "sub:0:1", "sub:1:2")

    def test_rank_preserved_small_family(self):
        for g in connected_multigraphs(3, 4):
            for f in divisors_in_box(g, -1, 0):
                g2, f2 = subdivide_to_simple(g, f)
                assert g2.is_simple()
                assert rank(g, f) == rank(g2, f2), (g.edges(), f)

    def test_single_vertex_passthrough(self):
        k1 = Multigraph(1)
        g2, f2 = subdivide_to_simple(k1, (5,))
        assert g2.n == 1 and f2 == (5,)


class TestApexEqualityFamily:
    def test_small_family_round_trip(self):
        # dist_rec(G, f) == dist_nonhalt(G'', f'') with the default bundle size
        rng = Random(17)
        for _ in range(25):
            g = random_connected_multigraph(rng, max_n=3, max_extra_edges=2)
            f = random_divisor(rng, g, low=-1, high_offset=1)
            inst = reduce_rec_to_nonhalt(g, f)
            want = dist_rec(g, f).value
            got = dist_nonhalt(inst.gpp, inst.fpp).value
            assert want == got, (g.edges(), f)
            assert inst.M > got
