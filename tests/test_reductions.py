import hashlib
from argparse import Namespace
from itertools import chain, combinations, combinations_with_replacement
from random import Random

import pytest

from chipfiring import (
    GraphStructureError,
    Multigraph,
    WitnessError,
    bundle_roles,
    classify_halting,
    cli,
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
    path_graph,
    random_connected_multigraph,
    random_divisor,
)
from chipfiring.reductions import _apex_gadget
from test_tss import _random_simple_graph

K2 = Multigraph(2, [(0, 1, 1)])
C3 = cycle_graph(3)


def add(f, h):
    return tuple(a + b for a, b in zip(f, h))


def xplus(inst, y):
    return add(inst.x, y)


def core(inst, v):
    """The id of v_c, n + v; v_i is v itself."""
    return inst.source.n + v


def outer(inst, v):
    """The id of v_o, 2n + v."""
    return 2 * inst.source.n + v


def circ_and_bullet(inst):
    """The paper's two vertex kinds: circ holds v_i and v_o, bullet holds v_c
    and the ports, every id from 3n on."""
    n = inst.source.n
    return (frozenset(range(n)) | frozenset(range(2 * n, 3 * n)),
            frozenset(range(n, 2 * n)) | frozenset(range(3 * n, inst.gprime.n)))


class TestBundleGadget:
    def test_two_vertex_shape(self):
        inst = reduce_tss_to_rec(K2, (1, 1))
        assert inst.gprime.n == 8  # 3*2 + 2*1
        assert inst.N == 4
        # chips: inner = deg - tau = 4+1-1, outer = deg - 1, cores and ports = 1
        assert inst.x[0] == 4
        assert inst.x[outer(inst, 0)] == 4
        assert inst.x[core(inst, 0)] == 1
        assert inst.x[6] == 1  # port p_01, id 3n + 0
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
        # one source vertex builds too: its chain alone, with no ports
        for g, tau in [(Multigraph(1), (0,)), (Multigraph(1), (1,)), (K2, (1, 1)),
                       (C3, (1, 2, 2)), (complete_graph(4), (3, 1, 2, 2))]:
            inst = reduce_tss_to_rec(g, tau)
            gp = inst.gprime
            assert gp.is_connected()
            assert gp.n == 3 * g.n + 2 * g.edge_count
            assert gp.edge_count == (inst.N + 1) * (g.n + 2 * g.edge_count)
            assert all(0 <= inst.x[z] <= gp.degrees[z] for z in range(gp.n))
            circ, bullet = circ_and_bullet(inst)
            assert all(inst.x[z] == 1 for z in bullet)
            assert circ | bullet == frozenset(range(gp.n))
            assert not circ & bullet
            # ports p_ab then p_ba for each edge ab, owned by a then b
            assert inst.owner == tuple(range(g.n)) * 3 + tuple(
                u for a, b, _m in g.edges() for u in (a, b))
            assert sorted(bundle_roles(g)) == sorted(
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
            reduce_tss_to_rec(Multigraph(3, [(0, 1, 1)]), (1, 1, 0))  # disconnected


def papers_bundle_edges(g, big):
    """The paper's four edge kinds between gadget roles, each source edge in
    both directions: v_i-v_c (big), v_c-v_o (1), u_o-p_uv (big), p_uv-v_i (1)."""
    edges = {}
    for v in range(g.n):
        edges[frozenset((f"i:{v}", f"c:{v}"))] = big
        edges[frozenset((f"c:{v}", f"o:{v}"))] = 1
    for a, b, _m in g.edges():
        for u, v in ((a, b), (b, a)):
            edges[frozenset((f"o:{u}", f"p:{u}:{v}"))] = big
            edges[frozenset((f"p:{u}:{v}", f"i:{v}"))] = 1
    return edges


class TestBundleGadgetIsThePapers:
    # 1-4 vertices, tau in [0, deg + 1]: 1,911 instances, forced vertices included
    FAMILY = [(g, tau) for g in connected_simple_graphs(range(1, 5))
              for tau in divisors_in_box(g, 0, 1)]

    def test_edges_and_chips_by_role(self):
        assert len(self.FAMILY) == 1911
        for g, tau in self.FAMILY:
            inst = reduce_tss_to_rec(g, tau)
            big, roles = inst.N, bundle_roles(g)
            assert big == g.n + 2 and len(set(roles)) == inst.gprime.n
            # each vertex's owner is the source vertex its role names first
            assert inst.owner == tuple(int(r.split(":")[1]) for r in roles)
            built = {frozenset((roles[a], roles[b])): m for a, b, m in inst.gprime.edges()}
            assert built == papers_bundle_edges(g, big)
            chips = dict(zip(roles, inst.x))
            for v, d in enumerate(g.degrees):
                assert chips[f"i:{v}"] == big + d - (tau[v] if tau[v] <= d else 0)
                assert chips[f"o:{v}"] == big * d
                assert chips[f"c:{v}"] == 1
            assert all(chips[r] == 1 for r in roles if r.startswith("p:"))

    def test_cli_bytes(self, capsys):
        # the JSON bundle `reduce tss-to-nonhalt --format json` prints, and
        # `subdivide --format json`, hashed over their families; the first
        # digest covers the 1,909 instances on 2-4 vertices
        args = Namespace(kind="tss-to-nonhalt", format="json", out=None, m=None)
        digest = hashlib.sha256()
        for g, tau in self.FAMILY[2:]:
            cli._cmd_reduce(args, g, tau)
            digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == (
            "5d9d76ad9d4d9369f49a65c3f8205a6c0103a860b1eaf1cd2ae1e3752527e649")
        args = Namespace(format="json", out=None)
        digest = hashlib.sha256()
        graphs = connected_multigraphs(4, 6)
        assert len(graphs) == 63
        for g in graphs:
            cli._cmd_subdivide(args, g, tuple(range(-1, g.n - 1)))
            digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == (
            "71941a4cab059f2d1015f8c4a4013af1540b269a5575116387c78c3d437ef015")


class TestWitnessTransport:
    def test_lift_two_vertices(self):
        inst = reduce_tss_to_rec(K2, (1, 1))
        y = lift_target_set(inst, (0,))
        assert y[outer(inst, 0)] == 1 and sum(y) == 1
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
        assert inst.forced == (0,)
        assert min_target_set(K2, (2, 1)).size == 1
        assert dist_rec(inst.gprime, inst.x).value == 0
        y = lift_target_set(inst, (0,))
        assert sum(y) == 0
        assert is_recurrent(inst.gprime, xplus(inst, y))[0]
        assert extract_target_set(inst, y).members == (0,)
        y = list(y)
        y[outer(inst, 0)] = 1  # a chip a minimum witness never needs
        assert extract_target_set(inst, tuple(y)).members == (0,)

    def test_extract_from_outer_witness(self):
        inst = reduce_tss_to_rec(K2, (1, 1))
        y = [0] * inst.gprime.n
        y[outer(inst, 0)] = 1
        got = extract_target_set(inst, tuple(y))
        assert got.members == (0,)
        assert is_target_set(K2, (1, 1), got.members)

    def test_extract_relocates_inner_chip(self):
        # an alternative minimum witness puts its chip on an inner vertex,
        # read as a seed on the vertex that owns it
        inst = reduce_tss_to_rec(K2, (1, 1))
        y = [0] * inst.gprime.n
        y[0] = 1  # v_i, id v
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

    def test_lift_and_extract_check_recurrence(self):
        # one chip short on core 1, the gadget needs more than the lifted
        # seed: lift refuses it, and extract refuses the intact gadget's
        # lifted witness, which still passes the effective check
        inst = reduce_tss_to_rec(K2, (1, 1))
        x = list(inst.x)
        x[core(inst, 1)] -= 1
        bad = inst._replace(x=tuple(x))
        with pytest.raises(WitnessError, match="recurrent"):
            lift_target_set(bad, (0,))
        with pytest.raises(WitnessError, match="recurrent"):
            extract_target_set(bad, lift_target_set(inst, (0,)))

    def test_extract_rechecks_the_set_it_reads(self):
        # the path 0 - 1 - 2 at tau (1, 2, 1) is activated by {1} alone; with
        # the owner of 1's outer vertex misstated as 0, the set read off the
        # lifted witness is {0}, which leaves 2 inactive
        inst = reduce_tss_to_rec(path_graph(3), (1, 2, 1))
        y = lift_target_set(inst, (1,))
        owner = list(inst.owner)
        owner[outer(inst, 1)] = 0
        with pytest.raises(WitnessError, match="^extracted seed set does not activate the "
                                               "whole source graph$"):
            extract_target_set(inst._replace(owner=tuple(owner)), y)

    def test_extract_rejects_negative(self):
        inst = reduce_tss_to_rec(K2, (1, 1))
        y = [0] * inst.gprime.n
        y[outer(inst, 0)] = 2
        y[0] = -1
        with pytest.raises(WitnessError):
            extract_target_set(inst, tuple(y))

    def test_extract_reads_non_minimum_witness(self):
        # two chips on an outer vertex can only come from a non-minimum
        # witness; each vertex holding chips gives its owner
        inst = reduce_tss_to_rec(K2, (1, 1))
        y = [0] * inst.gprime.n
        y[outer(inst, 0)] = 2
        assert extract_target_set(inst, tuple(y)).members == (0,)
        y[7] = 1  # port p_10, id 3n + 1
        assert extract_target_set(inst, tuple(y)).members == (0, 1)

    def test_lift_every_target_set(self):
        # every target set of every source of 1-4 vertices, tau in
        # [0, deg + 1], found by subset enumeration
        count = 0
        for g, tau in TestBundleGadgetIsThePapers.FAMILY:
            inst = reduce_tss_to_rec(g, tau)
            for size in range(g.n + 1):
                for members in combinations(range(g.n), size):
                    if not is_target_set(g, tau, members):
                        continue
                    count += 1
                    y = lift_target_set(inst, members)
                    assert min(y) == 0 and sum(y) == size - len(inst.forced)
                    back = extract_target_set(inst, y).members
                    assert is_target_set(g, tau, back) and len(back) <= size
        assert count == 16570

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
            for tau in divisors_in_box(g, low=0, high_offset=1):
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
                    bullet_chips += any(y[z] for z in circ_and_bullet(inst)[1])
                    stacked += max(y) > 1
        assert bullet_chips and stacked

    def test_every_witness_near_the_minimum(self):
        # every recurrence witness of degree dist_rec or dist_rec + 1 on
        # sources of 1-3 vertices, tau in [0, deg + 1], enumerated
        count = 0
        for g in connected_simple_graphs([1, 2, 3]):
            for tau in divisors_in_box(g, low=0, high_offset=1):
                inst = reduce_tss_to_rec(g, tau)
                gp = inst.gprime
                forced = {v for v in range(g.n) if tau[v] > g.degrees[v]}
                least = dist_rec(gp, inst.x).value
                for chips in chain.from_iterable(
                        combinations_with_replacement(range(gp.n), k) for k in (least, least + 1)):
                    y = [0] * gp.n
                    for z in chips:
                        y[z] += 1
                    if not is_recurrent(gp, xplus(inst, y))[0]:
                        continue
                    count += 1
                    got = extract_target_set(inst, tuple(y)).members
                    assert is_target_set(g, tau, got), (g.edges(), tau, y)
                    assert forced <= set(got)
                    assert len(got) <= len(set(chips)) + len(forced)
        assert count == 2508

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
        # the source keeps its ids and edges, and the apex comes last
        assert inst.gpp.edges() == [(0, 1, 1), (0, 2, 3), (1, 2, 3)]
        assert inst.gpp.degrees == (4, 4, 6)
        assert dist_nonhalt(inst.gpp, inst.fpp).value == 1 == dist_rec(K2, (0, 0)).value

    def test_adds_one_vertex(self):
        rng = Random(3)
        for _ in range(10):
            g = random_connected_multigraph(rng, max_n=4)
            f = random_divisor(rng, g, low=-1, high_offset=1)
            inst = reduce_rec_to_nonhalt(g, f)
            assert inst.gpp.n == g.n + 1
            assert inst.gpp.edge_count == g.edge_count + inst.M * g.n
            assert inst.fpp[g.n] == 0  # the apex



class TestComposedReduction:
    def test_triangle(self):
        apex_inst, bundle_inst = reduce_tss_to_nonhalt(C3, (2, 2, 2))
        assert bundle_inst.gprime.n == 15
        assert apex_inst.gpp.n == 16  # 3|V| + 2|E| + 1
        assert apex_inst.M == 4  # |V| + 1
        # the bundle gadget keeps its 15 ids, and the apex comes last
        assert apex_inst.gpp.degrees[15] == 15 * 4 and apex_inst.fpp[15] == 0
        assert apex_inst.fpp == tuple(x + 4 for x in bundle_inst.x) + (0,)
        assert dist_nonhalt(apex_inst.gpp, apex_inst.fpp).value == 2

    def test_two_vertices(self):
        apex_inst, bundle_inst = reduce_tss_to_nonhalt(K2, (1, 1))
        assert apex_inst.gpp.n == 9
        assert apex_inst.M == 3
        assert dist_nonhalt(apex_inst.gpp, apex_inst.fpp).value == 1


class TestApexLegBackMap:
    # simple sources of 1-4 vertices, tau in [1, deg]: 163 composed gadgets,
    # none on one vertex, whose degree 0 leaves no such tau
    FAMILY = [(g, tau) for g in connected_simple_graphs(range(1, 5))
              for tau in divisors_in_box(g, 1, 0)]

    def test_restriction_of_non_halting_top_up_is_recurrent(self):
        # the dist_nonhalt witness and four random non-minimum non-halting
        # top-ups per gadget, every entry below M, the apex included
        rng = Random(18)
        apex_chips = 0
        assert len(self.FAMILY) == 163
        for g, tau in self.FAMILY:
            apex_inst, bundle_inst = reduce_tss_to_nonhalt(g, tau)
            gpp, fpp, M, apex = apex_inst.gpp, apex_inst.fpp, apex_inst.M, bundle_inst.gprime.n
            assert all(x <= d for x, d in zip(bundle_inst.x, bundle_inst.gprime.degrees))
            best = dist_nonhalt(gpp, fpp)
            tops = [best.witness]
            for _ in range(4):
                h = [0] * gpp.n
                while (sum(h) <= best.value
                       or classify_halting(gpp, add(fpp, h)).is_halting):
                    z = rng.randrange(gpp.n)
                    h[z] = min(M - 1, h[z] + 1)
                tops.append(tuple(h))
                apex_chips += h[apex] > 0
            for h in tops:
                assert max(h) < M
                assert not classify_halting(gpp, add(fpp, h)).is_halting
                assert is_recurrent(bundle_inst.gprime, xplus(bundle_inst, h[:apex]))[0]
        assert apex_chips

    def test_recurrence_witness_with_empty_apex_is_non_halting(self):
        for g, tau in self.FAMILY:
            apex_inst, bundle_inst = reduce_tss_to_nonhalt(g, tau)
            y = dist_rec(bundle_inst.gprime, bundle_inst.x).witness
            assert not classify_halting(apex_inst.gpp, add(apex_inst.fpp, y + (0,))).is_halting


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
            for tau in divisors_in_box(g, 1, 1):
                apex_inst, bundle_inst = reduce_tss_to_nonhalt(g, tau)
                forced_seen += bool(bundle_inst.forced)
                assert_same_graph(bundle_inst.gprime, bundle_ref)
                assert_same_graph(apex_inst.gpp, apex_ref)
                assert apex_inst.fpp == tuple(x + g.n + 1 for x in bundle_inst.x) + (0,)
        assert forced_seen

    def test_apex_gadgets(self):
        graphs = connected_multigraphs(4, 5)
        assert graphs[0].n == 1
        for g in graphs:
            refs = {}
            for f in divisors_in_box(g, -1, 0):
                # the builder always takes the default M: build M = 2 directly
                for inst in (reduce_rec_to_nonhalt(g, f), _apex_gadget(g, f, 2)):
                    if inst.M not in refs:
                        refs[inst.M] = Multigraph(
                            g.n + 1, g.edges() + [(v, g.n, inst.M) for v in range(g.n)]
                        )
                    assert_same_graph(inst.gpp, refs[inst.M])
                    assert inst.fpp == tuple(x + inst.M for x in f) + (0,)

    def test_trusted_rows_equal_validated_rows(self):
        # every builder writes its rows straight into the stored shape and
        # states its degrees in closed form; Multigraph(n, edges) reaches the
        # same by validating and sorting the edges and summing each row.  The
        # composed gadget's bundle is reduce_tss_to_rec's.
        built = []
        for g, tau in TestBundleGadgetIsThePapers.FAMILY:
            apex_inst, bundle_inst = reduce_tss_to_nonhalt(g, tau)
            built += [bundle_inst.gprime, apex_inst.gpp,
                      reduce_rec_to_nonhalt(g, tau).gpp, subdivide_to_simple(g, tau)[0]]
        for g in connected_multigraphs(4, 6):
            f = tuple(range(g.n))
            built += [reduce_rec_to_nonhalt(g, f).gpp, subdivide_to_simple(g, f)[0]]
        for h in built:
            validated = Multigraph(h.n, h.edges())
            assert h == validated
            assert h.degrees == validated.degrees == tuple(
                sum(m for _u, m in row) for row in h.nbrs)
            assert h.edge_count == validated.edge_count


class TestSubdivision:
    def test_triangle_to_hexagon(self):
        g2, f2 = subdivide_to_simple(C3, (1, 0, 0))
        assert g2.n == 6
        assert g2.is_simple()
        assert g2.degrees == (2,) * 6
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
                # marked connected when built, as every gadget is
                assert g2._connected is True and Multigraph(g2.n, g2.edges()).is_connected()
                assert g2.is_simple()
                assert rank(g, f) == rank(g2, f2), (g.edges(), f)

    @pytest.mark.parametrize("g, n, want", [
        (path_graph(2), 53, 0), (path_graph(3), 108, 0),
        (C3, 130, 1), (complete_graph(4), 257, 2),
    ], ids=["P2", "P3", "C3", "K4"])
    def test_rank_preserved_on_subdivided_apex_gadget(self, g, n, want):
        # at tau = deg, c = deg - 1 - f'' on the apex gadget has rank
        # min TSS - forced - 1: deg c - (genus - 1) is the bundle gadget's
        # root need, which is <= 0, so rank(c) is dist_nonhalt(f'') - 1
        apex, bundle = reduce_tss_to_nonhalt(g, g.degrees)
        c = tuple(d - 1 - x for d, x in zip(apex.gpp.degrees, apex.fpp))
        g2, c2 = subdivide_to_simple(apex.gpp, c)
        assert g2.n == n and g2.is_simple()
        assert min_target_set(g, g.degrees).size - len(bundle.forced) - 1 == want
        assert rank(g2, c2) == want

    def test_single_vertex_passthrough(self):
        k1 = Multigraph(1)
        g2, f2 = subdivide_to_simple(k1, (5,))
        assert g2.n == 1 and f2 == (5,)


class TestApexEqualityFamily:
    def test_small_family_round_trip(self):
        # with the default M, on every instance of the family: M clears the
        # paper's bound, dist_rec(G, f) == dist_nonhalt(G'', f''), and the
        # dist_nonhalt witness restricted to G makes f + h recurrent (the back
        # map of reduce_tss_to_nonhalt, whose hypotheses hold as deg h =
        # dist_rec < M - overshoot)
        count = 0
        for g in connected_multigraphs(4, 4):
            for f in divisors_in_box(g, -1, 1):
                inst = reduce_rec_to_nonhalt(g, f)
                want = dist_rec(g, f).value
                overshoot = max(0, max(x - d for x, d in zip(f, g.degrees)))
                assert inst.M > want + overshoot, (g.edges(), f)
                got = dist_nonhalt(inst.gpp, inst.fpp)
                assert got.value == want, (g.edges(), f)
                assert is_recurrent(g, add(f, got.witness[:g.n]))[0], (g.edges(), f)
                count += 1
        assert count == 4722
