import hashlib
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwkit import graphs
from cwkit.errors import InputError, ParseError
from cwkit.graphs import (
    Graph,
    complement,
    complement_bipartite,
    disjoint_union,
    from_edge_list,
    from_graph6,
    induced_subgraph,
    to_edge_list,
    to_graph6,
)
from cwkit.isomorphism import is_isomorphic
from cwkit.names import graph_named
from cwkit.witnesses import FAMILIES, two_clique_grid, wall


def random_graph(rng, n, p=0.4):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def test_construction_rejects_bad_edges():
    with pytest.raises(InputError):
        Graph(3, [(0, 0)])
    with pytest.raises(InputError):
        Graph(3, [(0, 3)])
    with pytest.raises(InputError):
        Graph(-1)


def test_complement_fixtures():
    assert is_isomorphic(complement(graph_named("K3")), graph_named("3P1"))
    assert is_isomorphic(complement(graph_named("P4")), graph_named("P4"))
    assert is_isomorphic(complement(graph_named("2P2")), graph_named("C4"))


def test_complement_involution():
    rng = random.Random(11)
    for n in range(0, 9):
        for _ in range(30):
            g = random_graph(rng, n)
            assert complement(complement(g)) == g


def test_disjoint_union_fixtures():
    two = disjoint_union(graph_named("P2"), graph_named("P2"))
    assert two.n == 4 and len(two.edges) == 2
    g = graph_named("C5")
    assert disjoint_union(g, Graph(0)) == g
    three = disjoint_union(disjoint_union(Graph(1), Graph(1)), Graph(1))
    assert is_isomorphic(three, graph_named("3P1"))


def test_disjoint_union_of_any_number_of_graphs():
    # numbered as by repeated two-graph unions
    three = disjoint_union(disjoint_union(Graph(1), Graph(1)), Graph(1))
    assert disjoint_union(Graph(1), Graph(1), Graph(1)) == three
    g = graph_named("C5")
    assert disjoint_union(g) == g and disjoint_union() == Graph(0)
    named = disjoint_union(Graph(1, names={0: "a"}), Graph(2, [(0, 1)]), Graph(1, names={0: "b"}))
    assert named.edges == {(1, 2)} and named.names == {0: "a", 3: "b"}


def test_induced_subgraph_fixtures():
    c5 = graph_named("C5")
    assert is_isomorphic(induced_subgraph(c5, [0, 1, 2, 3]), graph_named("P4"))
    assert induced_subgraph(c5, range(5)) == c5
    assert is_isomorphic(induced_subgraph(graph_named("K4"), [1, 2, 3]), graph_named("K3"))
    with pytest.raises(InputError):
        induced_subgraph(c5, [4, 5])


def test_bipartite_complementation():
    two_p2 = Graph(4, [(0, 1), (2, 3)])
    flipped = complement_bipartite(two_p2, [0, 1], [2, 3])
    # the four cross pairs flip from non-edges to edges; the two original
    # edges lie inside the parts and stay put
    assert is_isomorphic(flipped, graph_named("K4"))
    with pytest.raises(InputError):
        complement_bipartite(two_p2, [0, 1], [1, 2])


def test_bipartite_complementation_involution_and_count():
    rng = random.Random(13)
    for _ in range(80):
        g = random_graph(rng, rng.randint(2, 8))
        n = g.n
        verts = list(range(n))
        rng.shuffle(verts)
        cut = rng.randint(0, n)
        x, y = verts[:cut], verts[cut:]
        before_cross = sum(1 for u in x for v in y if g.has_edge(u, v))
        once = complement_bipartite(g, x, y)
        assert len(once.edges) == len(g.edges) - before_cross + (len(x) * len(y) - before_cross)
        assert complement_bipartite(once, x, y) == g


def test_basic_queries():
    c7 = graph_named("C7")
    assert c7.max_degree() == 2
    assert c7.is_connected()
    assert wall(3).max_degree() == 3
    g = graph_named("2P3")
    assert len(g.components()) == 2
    assert Graph(1).is_connected()
    assert Graph(0).is_connected()


def test_basic_queries_record():
    # The fields the removed basic_queries record bundled, read from Graph.
    c7 = graph_named("C7")
    assert c7.max_degree() == 2 and c7.is_connected()
    g = graph_named("2P3")
    assert len(g.components()) == 2
    assert tuple(g.degree(v) for v in range(g.n)) == (1, 2, 1, 1, 2, 1)


def test_graph6_round_trip_enumerated():
    from cwkit.enumeration import nonisomorphic_graphs_upto

    for g in nonisomorphic_graphs_upto(6):
        assert from_graph6(to_graph6(g)) == g


def test_graph6_matches_networkx():
    rng = random.Random(3)
    for _ in range(150):
        n = rng.randint(0, 40)
        g = random_graph(rng, n, p=0.3)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(g.edges)
        assert to_graph6(g) == nx.to_graph6_bytes(G, header=False).decode().strip()


def test_graph6_strings_pinned():
    # Recorded from the pair-by-pair encoder this one replaced.
    assert to_graph6(graph_named("grid(5)")) == "XhEAHCPAGG?P?P?G_AG?O?@C?AG?AG?@C??O??AG??G_??P???P"
    assert to_graph6(two_clique_grid(4)[0]) == "W~?GW^~|ve]G^o\\oMWBa?No?v?@e?@a??^??Do??e??AG??"
    assert to_graph6(graph_named("C5")) == "Dhc"
    assert to_graph6(Graph(0)) == "?"


def test_graph6_header_and_errors():
    g = graph_named("P4")
    assert from_graph6(">>graph6<<" + to_graph6(g)) == g
    with pytest.raises(ParseError):
        from_graph6("")
    with pytest.raises(ParseError):
        from_graph6("D")  # truncated body
    with pytest.raises(ParseError):
        from_graph6("D\x1f\x1f")  # bytes below 63
    with pytest.raises(ParseError, match=r"^invalid graph6 byte 32$"):
        from_graph6("D a")
    with pytest.raises(ParseError, match=r"^graph6 input must be ASCII$"):
        from_graph6("Dh\u00e9")  # would read as "Dh?", a 5-vertex graph
    with pytest.raises(ParseError, match=r"^graph6 inputs beyond 258047 vertices are not supported$"):
        from_graph6("~~??????")  # the eight-byte size field of n > 258047


def test_graph6_padding_bits_are_not_edges(monkeypatch):
    # "A`": n = 2 and one body byte, 33 = the pair (0,1) plus a padding bit;
    # the padding bit counts neither as an edge nor against the edge ceiling
    monkeypatch.setattr(graphs, "EDGE_CAP", 1)
    assert from_graph6("A`") == Graph(2, [(0, 1)])


def test_graph6_large_n():
    big = Graph(80, [(0, 79), (1, 2)])
    assert from_graph6(to_graph6(big)) == big
    # refused before the body buffer, n(n-1)/12 bytes, is allocated
    with pytest.raises(InputError, match="at most 258047 vertices"):
        to_graph6(Graph(258048))


def test_edge_list_round_trip():
    g = graph_named("C5")
    assert from_edge_list(to_edge_list(g)) == g
    with pytest.raises(ParseError):
        from_edge_list("not a header\n")
    with pytest.raises(ParseError):
        from_edge_list("2 1\n")  # declared edge missing


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty edge-list input"),
        ("# only a comment\n\n", "empty edge-list input"),
        ("3\n", "edge-list header must be 'n m', got '3'"),
        ("3 x\n", "edge-list header must be two integers, got '3 x'"),
        ("3 1\n0\n", "bad edge line '0'"),
        ("3 1\n0 x\n", "bad edge line '0 x'"),
        ("3 2\n0 1\n", "edge-list declares 2 edges but has 1 edge lines"),
    ],
)
def test_edge_list_reader_errors(text, message):
    with pytest.raises(ParseError) as info:
        from_edge_list(text)
    assert str(info.value) == message


def test_edge_list_comment_lines_are_skipped():
    assert from_edge_list("# a triangle\n3 3\n\n0 1\n# middle\n1 2\n0 2\n") == graph_named("K3")


@pytest.mark.parametrize(
    "family, k, digest",
    [
        # n > 62, so each string starts with the four-byte size field
        ("grid", 40, "f2a6167420109af085c88b8da7e558bc1049ff585a8a6ada33f0c27213d1a3a1"),
        ("thm5G", 30, "f0c49bd49dd62c14ea5fdb7852903c16d416dc247f1fb910da624906af08a25f"),
        ("thm4G", 16, "8fc8e2aee2a3b0a576fa2c8ee0dc561d2a8b6865551ddf1c17e1fec78d784323"),
    ],
)
def test_graph6_large_strings_pinned(family, k, digest):
    # Recorded from the encoder that formatted every pair as a text bit.
    g = FAMILIES[family].build(k)[0]
    text = to_graph6(g)
    assert text.startswith("~") and hashlib.sha256(text.encode()).hexdigest() == digest
    assert from_graph6(text) == g


def test_construction_error_messages():
    # The first self-loop in input order wins over an earlier out-of-range edge.
    with pytest.raises(InputError, match=r"^self-loop at vertex 1 is not allowed$"):
        Graph(3, [(0, 5), (1, 1)])
    with pytest.raises(InputError, match=r"^edge \(2,3\) has an endpoint outside 0\.\.2$"):
        Graph(3, ((u, u + 1) for u in range(3)))
    # A huge endpoint is refused before any shift could allocate for it.
    with pytest.raises(InputError, match=r"^edge \(0,100000000000\) has an endpoint outside 0\.\.2$"):
        from_edge_list("3 1\n0 100000000000\n")
    with pytest.raises(InputError, match=r"^edge \(0,10{30}\) has an endpoint outside 0\.\.2$"):
        Graph(3, [(0, 10**30)])
    with pytest.raises(InputError, match=r"^edge \(-1,2\) has an endpoint outside 0\.\.2$"):
        Graph(3, [(2, -1)])
    # a generator is consumed once
    g = Graph(4, ((u, u + 1) for u in range(3)))
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})
    assert g.adj == (0b10, 0b101, 0b1010, 0b100)


@st.composite
def st_graphs(draw):
    n = draw(st.integers(0, 80))
    if n < 2:
        return Graph(n)
    # (u, d) with 0 < d < n names the edge {u, u + d mod n}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
    return Graph(n, draw(st.lists(pairs.map(lambda e: (e[0], (e[0] + e[1]) % n)), max_size=4 * n)))


@settings(max_examples=150, deadline=None)
@given(st_graphs())
def test_graph6_round_trip_property(g):
    assert from_graph6(to_graph6(g)) == g


@settings(max_examples=150, deadline=None)
@given(st_graphs())
def test_edge_list_round_trip_property(g):
    assert from_edge_list(to_edge_list(g)) == g
