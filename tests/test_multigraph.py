import hashlib
import json
import re

import pytest
from hypothesis import given, strategies as st

from chipfiring import (
    DisconnectedGraphError,
    FormatError,
    GraphStructureError,
    InvalidVertexError,
    Multigraph,
    graph_to_json,
    graph_to_text,
    parse_graph,
)
from chipfiring.chipfire import divisor_to_json, divisor_to_text, parse_divisor
from chipfiring.families import (
    connected_multigraphs,
    connected_simple_graphs,
    cycle_graph,
    path_graph,
    random_connected_multigraph,
    star_graph,
    two_vertex_bundle,
)
from chipfiring.tss import parse_thresholds

K2 = Multigraph(2, [(0, 1, 1)])
C3 = cycle_graph(3)


def test_degree_single_edge():
    assert K2.degrees == (1, 1)


def test_degree_parallel_bundle():
    assert two_vertex_bundle(4).degrees == (4, 4)


def test_degree_triangle():
    assert C3.degrees == (2, 2, 2)


def test_degrees():
    assert C3.degrees == (2, 2, 2)
    assert K2.degrees == (1, 1)
    assert star_graph(3).degrees == (3, 1, 1, 1)


def test_degrees_sum_to_twice_edges():
    g = star_graph(3)
    assert sum(g.degrees) == 2 * g.edge_count


def test_connectivity():
    assert C3.is_connected()
    assert not Multigraph(2).is_connected()
    assert not Multigraph(3, [(0, 1, 1)]).is_connected()
    assert Multigraph(1).is_connected()


def test_connectivity_is_computed_once_and_equality_ignores_it():
    # connectivity and simplicity are each kept in a private slot after the
    # first walk; equality and hashing still look at the adjacency lists only
    for edges, connected, simple in [
        ([(0, 1, 1), (1, 2, 1)], True, True),
        ([(0, 1, 1)], False, True),
        ([(0, 1, 2), (1, 2, 1)], True, False),
    ]:
        asked, fresh = Multigraph(3, edges), Multigraph(3, edges)
        assert asked._connected is None and asked._simple is None
        assert asked.is_connected() is connected
        assert asked._connected is connected
        assert asked.is_connected() is connected
        assert asked.is_simple() is simple
        assert asked._simple is simple
        assert asked.is_simple() is simple
        assert asked == fresh and hash(asked) == hash(fresh)
    g = Multigraph(3, [(0, 1, 1)])
    for _ in range(2):
        with pytest.raises(DisconnectedGraphError, match="^operation requires a connected graph$"):
            g.require_connected()
    g = Multigraph(2, [(0, 1, 2)])
    for _ in range(2):
        with pytest.raises(
            GraphStructureError,
            match=re.escape("operation requires a simple graph (all multiplicities <= 1)"),
        ):
            g.require_simple()


def test_genus():
    assert C3.genus() == 1
    assert path_graph(4).genus() == 0
    assert two_vertex_bundle(4).genus() == 3


def test_genus_requires_connected():
    with pytest.raises(DisconnectedGraphError):
        Multigraph(2).genus()


def test_multiplicity():
    assert K2.multiplicity(0, 1) == 1
    assert K2.multiplicity(0, 0) == 0
    assert two_vertex_bundle(6).multiplicity(0, 1) == 6


def test_out_of_range_vertex():
    with pytest.raises(InvalidVertexError):
        K2.multiplicity(2, 0)
    with pytest.raises(InvalidVertexError):
        K2.multiplicity(0, 5)


def test_self_loop_rejected():
    with pytest.raises(GraphStructureError):
        Multigraph(2, [(0, 0, 1)])


def test_bad_multiplicity_rejected():
    with pytest.raises(GraphStructureError):
        Multigraph(2, [(0, 1, 0)])
    with pytest.raises(GraphStructureError):
        Multigraph(2, [(0, 1, -2)])


@pytest.mark.parametrize("edge, error, message", [
    ((0, 1), GraphStructureError, "edge must be a (u, v, multiplicity) triple, got (0, 1)"),
    (7, GraphStructureError, "edge must be a (u, v, multiplicity) triple, got 7"),
    (("0", 1, 1), GraphStructureError, "edge endpoints must be integers, got ('0', 1, 1)"),
    ((0, 1.0, 1), GraphStructureError, "edge endpoints must be integers, got (0, 1.0, 1)"),
    ((0, 2, 1), InvalidVertexError, "edge endpoint out of range [0, 2) in (0, 2, 1)"),
    ((-1, 0, 1), InvalidVertexError, "edge endpoint out of range [0, 2) in (-1, 0, 1)"),
    ((1, 1, 1), GraphStructureError, "self-loop at vertex 1 is not allowed"),
    ((0, 1, 0), GraphStructureError, "edge multiplicity must be a positive integer, got (0, 1, 0)"),
    ((0, 1, -1), GraphStructureError, "edge multiplicity must be a positive integer, got (0, 1, -1)"),
    ((0, 1, 1.5), GraphStructureError, "edge multiplicity must be a positive integer, got (0, 1, 1.5)"),
])
def test_bad_edge_error_type_and_message(edge, error, message):
    # the bad edge may follow a good one: checks hold for every edge
    with pytest.raises(error, match="^" + re.escape(message) + "$") as info:
        Multigraph(2, [(0, 1, 1), edge])
    assert type(info.value) is error


def test_bool_endpoint_and_multiplicity_rejected():
    # a bool is an int subclass, refused here as for vertices, seeds and divisors
    for edge, what in [((True, False, 1), "endpoints must be integers"),
                       ((0, 1, True), "multiplicity must be a positive integer")]:
        with pytest.raises(GraphStructureError, match=what):
            Multigraph(2, [(0, 1, 2), edge])


@st.composite
def edge_lists(draw):
    """n and an edge list with repeated pairs, some of them reversed."""
    n = draw(st.integers(min_value=2, max_value=6))
    edges = []
    for _ in range(draw(st.integers(min_value=0, max_value=15))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = (u + draw(st.integers(min_value=1, max_value=n - 1))) % n
        edges.append((u, v, draw(st.integers(min_value=1, max_value=4))))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []
    edges += [(v, u, k) if flip else (u, v, k)
              for (u, v, k), flip in zip(repeats, draw(st.lists(st.booleans(), min_size=5)))]
    return n, edges


@given(edge_lists())
def test_edge_list_build_matches_reference_accumulation(case):
    n, edges = case
    ref = [{} for _ in range(n)]
    for u, v, k in edges:
        ref[u][v] = ref[u].get(v, 0) + k
        ref[v][u] = ref[v].get(u, 0) + k
    g = Multigraph(n, edges)
    assert g.nbrs == tuple(tuple(sorted(row.items())) for row in ref)
    assert g.degrees == tuple(sum(row.values()) for row in ref)
    assert g.edge_count == sum(k for _u, _v, k in edges)


def test_bool_vertex_count_rejected():
    # a bool is an int in Python, but True is no vertex count: the graph
    # would print as "True" and could not be parsed back
    with pytest.raises(GraphStructureError):
        Multigraph(True)


def test_repeated_pairs_accumulate():
    g = Multigraph(2, [(0, 1, 1), (1, 0, 2)])
    assert g.multiplicity(0, 1) == 3


def test_equality_and_hash():
    assert Multigraph(2, [(0, 1, 2)]) == Multigraph(2, [(0, 1, 1), (0, 1, 1)])
    assert hash(two_vertex_bundle(2)) == hash(Multigraph(2, [(0, 1, 2)]))


graphs = st.integers(min_value=0, max_value=10_000).map(
    lambda seed: random_connected_multigraph(__import__("random").Random(seed))
)


@given(graphs)
def test_handshake(g):
    assert sum(g.degrees) == 2 * g.edge_count


@given(graphs)
def test_multiplicity_symmetry(g):
    for u in range(g.n):
        for v in range(g.n):
            assert g.multiplicity(u, v) == g.multiplicity(v, u)


@given(graphs)
def test_genus_nonnegative(g):
    assert g.genus() >= 0


@given(graphs)
def test_text_round_trip(g):
    assert parse_graph(graph_to_text(g)) == g


@given(graphs)
def test_json_round_trip(g):
    assert parse_graph(json.dumps(graph_to_json(g))) == g


def test_parse_text_with_comments():
    g = parse_graph("# a triangle\n3\n\n0 1 1\n1 2 1\n0 2 1\n")
    assert g == C3


def test_parse_errors():
    with pytest.raises(FormatError):
        parse_graph("")
    with pytest.raises(FormatError):
        parse_graph("3\n0 1\n")
    with pytest.raises(FormatError):
        parse_graph("2\n0 9 1\n")
    with pytest.raises(FormatError):
        parse_graph('{"n": 2}')
    with pytest.raises(FormatError):
        parse_graph('{"n": 2, "edges": [[0, 0, 1]]}')
    with pytest.raises(FormatError, match="^first line must be the vertex count, got '3 4'$"):
        parse_graph("3 4\n0 1 1\n")
    with pytest.raises(FormatError, match='^"edges" must be a list of'):
        parse_graph('{"n": 2, "edges": {"0": [1, 1]}}')


@given(st.lists(st.integers(min_value=-10**30, max_value=10**30), min_size=1, max_size=8))
def test_divisor_and_thresholds_round_trip(vector):
    f = tuple(vector)
    assert parse_divisor(divisor_to_text(f)) == f
    assert parse_divisor(json.dumps(divisor_to_json(f))) == f
    assert parse_thresholds(divisor_to_text(f)) == f


@pytest.mark.parametrize("parse", [parse_divisor, parse_thresholds])
def test_vector_line_with_comments_and_blank_lines(parse):
    # no length or sign check here: validate_divisor and validate_thresholds
    # check a vector against its graph
    assert parse("# a comment\n\n  2 -1 0  \n# another\n\n") == (2, -1, 0)


@pytest.mark.parametrize("text, message", [
    ("", "divisor file must contain exactly one line of integers"),
    ("1 2\n3 4\n", "divisor file must contain exactly one line of integers"),
    ("1 x 0\n", "divisor line must contain integers, got '1 x 0'"),
    ("1 2.0\n", "divisor line must contain integers, got '1 2.0'"),
    ('{"chips": [1, 2', "invalid JSON divisor: "),
    ('{"chips": [1, 2]} x', "invalid JSON divisor: Extra data"),
    ('{"chips": [%s]}' % ("1" * 5000), "invalid JSON divisor: Exceeds the limit"),
    ('{"chips": ' + "[" * 100_000, "invalid JSON divisor: maximum recursion depth"),
    ('{"chips": 3}', 'JSON divisor must be an object with a "chips" list'),
    ('{"values": [1]}', 'JSON divisor must be an object with a "chips" list'),
    ('{"chips": [1, true]}', "divisor entries must be integers"),
    ('{"chips": [1, 2.5]}', "divisor entries must be integers"),
], ids=["empty", "two-lines", "word", "float", "truncated-json", "extra-data",
        "long-int", "deep-json", "chips-not-list", "no-chips", "bool", "json-float"])
def test_parse_divisor_errors(text, message):
    with pytest.raises(FormatError, match="^" + re.escape(message)):
        parse_divisor(text)


@pytest.mark.parametrize("text, message", [
    ("# only a comment\n", "thresholds file must contain exactly one line of integers"),
    ("1 1\n1\n", "thresholds file must contain exactly one line of integers"),
    ("1 one\n", "thresholds line must contain integers, got '1 one'"),
    ('{"thresholds": [1]}', "thresholds line must contain integers"),
], ids=["comment-only", "two-lines", "word", "json"])
def test_parse_thresholds_errors(text, message):
    with pytest.raises(FormatError, match="^" + re.escape(message)):
        parse_thresholds(text)


@pytest.mark.parametrize("n, classes", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21)])
def test_connected_simple_graph_class_counts(n, classes):
    # OEIS A001349: connected graphs on n unlabelled vertices
    assert len(connected_simple_graphs([n])) == classes


@pytest.mark.parametrize("family, digest", [
    (lambda: connected_multigraphs(4, 6),
     "50b67f7c82b2f1969c4855092ad63924be831ddaca78fc6b34b35bcd530d017f"),
    (lambda: connected_multigraphs(4, 5, min_n=2),
     "0cad52f2bb8395841a1f29a2f3b0b875377c808524226a1d5098c739818509b1"),
    (lambda: connected_simple_graphs(range(1, 6)),
     "e341a6c245ef1b2f55483445c146b9a13b9425e001cd8a52f6110d5b8efbeee9"),
], ids=["multigraphs-4-6", "multigraphs-4-5-from-2", "simple-1-5"])
def test_exhaustive_families_keep_their_graphs_and_order(family, digest):
    # the exhaustive checks elsewhere run over these lists: the same graphs,
    # with the same vertex labels, in the same order
    nbrs = repr([g.nbrs for g in family()])
    assert hashlib.sha256(nbrs.encode()).hexdigest() == digest


def test_small_family_members():
    assert cycle_graph(2) == two_vertex_bundle(2)
    assert connected_multigraphs(1, 3) == connected_simple_graphs([1]) == [Multigraph(1)]
