import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwkit.classifier import display_name
from cwkit.enumeration import nonisomorphic_graphs_upto
from cwkit.errors import InputError, ParseError
from cwkit.graphs import Graph, complement, disjoint_union, from_graph6, to_graph6
from cwkit.isomorphism import is_isomorphic
from cwkit.names import (
    NAMED_IDS,
    Complement,
    Complete,
    Cycle,
    Named,
    Path,
    Star,
    SubdividedClaw,
    Sum,
    format_name,
    graph_named,
    parse_name,
    realize,
    recognize,
)


def test_parse_fixtures():
    assert parse_name("2P1+P3") == Sum(((2, Path(1)), (1, Path(3))))
    assert parse_name("co(2P1+P2)") == Complement(Sum(((2, Path(1)), (1, Path(2)))))
    assert parse_name("S_1_2_3") == SubdividedClaw(1, 2, 3)
    assert parse_name("K1_3") == Star(3)
    assert parse_name("claw") == Named("claw")
    assert parse_name(" P5 ") == Path(5)


def test_parse_errors():
    for bad in ["", "P0", "C2", "S_2_1_3", "0P3", "K1_0", "P3+", "co(P3", "wall(1)", "Q5", "P3)"]:
        with pytest.raises((ParseError, InputError)):
            parse_name(bad)


@pytest.mark.parametrize(
    "bad, message, pos",
    [
        ("", "unexpected end of input", 0),
        ("P5+", "unexpected end of input", 3),
        ("co(P4", "unexpected end of input", 5),
        ("2P1+#", "unexpected character", 4),
        ("_P1", "unexpected character", 0),
        ("P1 P2", "trailing input after graph name", 3),
        ("co()", "expected a graph name", 3),
        ("grid(x)", "expected int", 5),
        ("Q7", "unknown graph name 'Q7'", 0),
        ("wall(3,4)", "wrong number of arguments for wall", 0),
        ("grid(2)", "grid(2): side must be at least 3", 0),
        ("swall(1,0)", "swall(1,0): need height >= 2 and k >= 0", 0),
        ("C2", "C2: cycles need at least three vertices", 0),
        ("S_2_1_1", "S_2_1_1: leg lengths must satisfy 1 <= i <= j <= k", 0),
        ("P3+co(2K1_0)", "K1_0: stars need at least one leaf", 7),
        ("P1+wall(1)", "wall(1): height must be at least 2", 3),
    ],
)
def test_parse_error_messages_and_positions(bad, message, pos):
    with pytest.raises(ParseError) as info:
        parse_name(bad)
    assert info.value.pos == pos
    assert str(info.value) == f"{message} (at position {pos}: {bad[pos:pos + 12]!r})"


@pytest.mark.parametrize("bad, pos", [("é", 0), ("P²", 1), ("co(Pé)", 4)])
def test_non_ascii_characters_are_parse_errors(bad, pos):
    with pytest.raises(ParseError, match="unexpected character") as info:
        parse_name(bad)
    assert info.value.pos == pos

def test_realize_fixtures():
    assert is_isomorphic(graph_named("paw"), complement(graph_named("P1+P3")))
    assert is_isomorphic(graph_named("S_1_1_1"), graph_named("K1_3"))
    g = graph_named("3P2")
    assert g.n == 6 and len(g.edges) == 3
    assert is_isomorphic(graph_named("diamond"), complement(graph_named("2P1+P2")))
    assert is_isomorphic(graph_named("gem"), complement(graph_named("P1+P4")))
    bull = graph_named("bull")
    hammer = graph_named("hammer")
    assert bull.degree_sequence() == (1, 1, 2, 3, 3)
    assert hammer.degree_sequence() == (1, 2, 2, 2, 3)
    assert not is_isomorphic(bull, hammer)


def test_realize_wall_and_grid_names():
    assert graph_named("wall(2)").n == 16
    assert graph_named("grid(3)").n == 9
    assert is_isomorphic(graph_named("swall(2,0)"), graph_named("wall(2)"))


def test_complement_distributes():
    for name in ["P4", "2P1+P2", "S_1_1_2", "K1_4", "C6", "paw+P2"]:
        e = parse_name(name)
        assert is_isomorphic(realize(Complement(e)), complement(realize(e)))


def test_subdivided_claw_shape():
    for i, j, k in [(1, 1, 1), (1, 2, 3), (2, 2, 4), (3, 3, 3)]:
        g = realize(SubdividedClaw(i, j, k))
        assert g.n == i + j + k + 1
        degs = g.degree_sequence()
        assert degs.count(3) == 1 and degs.count(1) == 3


@pytest.mark.parametrize(
    "name",
    [
        "P1", "P8", "C3", "C8", "K6", "K1_8", "S_1_1_2", "S_2_3_3",
        "paw", "diamond", "bull", "hammer", "gem", "claw",
        "3P1", "2P2+K3", "co(2P1+P3)", "2co(P4)+P1", "P2+P3+P4",
    ],
)
def test_round_trip(name):
    e = parse_name(name)
    assert is_isomorphic(realize(parse_name(format_name(e))), realize(e))


def test_recognize_fixtures():
    assert format_name(recognize(graph_named("K3"))) == "K3"
    assert format_name(recognize(graph_named("paw"))) == "paw"
    assert format_name(recognize(graph_named("P3"))) == "P3"
    assert format_name(recognize(graph_named("C4"))) == "C4"
    from cwkit.graphs import Graph

    petersen = Graph(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 7), (7, 9), (9, 6), (6, 8),
         (8, 5), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
    )
    assert recognize(petersen) is None


def test_recognize_inverts_realize():
    for name in ["P6", "C5", "K4", "K1_5", "S_1_2_2", "2P1+P3", "3P2", "bull",
                 "paw+2P1", "co(2P2)", "co(3P1+P2)"]:
        g = graph_named(name)
        e = recognize(g)
        assert e is not None, name
        assert is_isomorphic(realize(e), g), name


@pytest.mark.parametrize(
    "text, parts",
    [
        ("2P2", [(2, "P2")]),
        ("3P2", [(3, "P2")]),
        ("4K3", [(4, "K3")]),
        ("2P1+2P3", [(2, "P1"), (2, "P3")]),
        ("co(2P2)+P1", [(1, "co(2P2)"), (1, "P1")]),
        ("P1+2wall(2)", [(1, "P1"), (2, "wall(2)")]),
    ],
)
def test_sum_matches_repeated_disjoint_union(text, parts):
    want = Graph(0)
    for mult, name in parts:
        piece = graph_named(name)
        for _ in range(mult):
            want = disjoint_union(want, piece)
    got = graph_named(text)
    assert got.n == want.n
    assert got.edges == want.edges
    assert got.names == want.names
    assert to_graph6(got) == to_graph6(want)


@lru_cache(maxsize=None)
def _graphs_upto_seven() -> tuple[Graph, ...]:
    return tuple(nonisomorphic_graphs_upto(7))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_display_name_ignores_labels(data):
    # the scan names each class by its representative, so a name must not
    # depend on how that representative is labelled
    g = data.draw(st.sampled_from(_graphs_upto_seven()))
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    name = display_name(g)
    if name.startswith("graph6:"):
        # unrecognised either way; the graph6 spells the labelled graph
        assert display_name(h) == f"graph6:{to_graph6(h)}"
        assert is_isomorphic(from_graph6(name.removeprefix("graph6:")), h)
    else:
        assert display_name(h) == name
        assert format_name(parse_name(name)) == name
        assert is_isomorphic(graph_named(name), g)


def test_co_names_need_no_complement_up_to_eight_vertices():
    # recognize reads off g's non-adjacency masks whether the complement can
    # have a name at all; every co(...) name must still be the one the whole
    # complement gives, on each graph and on a relabelled copy
    from cwkit.names import _recognize_direct

    rng = random.Random(8)
    co_named = 0
    for g in nonisomorphic_graphs_upto(8):
        if _recognize_direct(g) is not None:
            continue
        co = _recognize_direct(complement(g))
        if co is None:
            assert display_name(g) == f"graph6:{to_graph6(g)}"
            continue
        co_named += 1
        want = format_name(Complement(co))
        assert display_name(g) == want
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert display_name(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])) == want
    assert co_named == 231


# -- round trips over drawn names ---------------------------------------------

_ATOMS = st.one_of(
    st.integers(1, 5).map(Path),
    st.integers(3, 5).map(Cycle),
    st.integers(1, 4).map(Complete),
    st.integers(1, 4).map(Star),
    st.lists(st.integers(1, 2), min_size=3, max_size=3).map(lambda legs: SubdividedClaw(*sorted(legs))),
    st.sampled_from(NAMED_IDS).map(Named),
)
_NAMES = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        inner.map(Complement),
        st.lists(st.tuples(st.integers(1, 2), inner), min_size=1, max_size=3).map(lambda parts: Sum(tuple(parts))),
    ),
    max_leaves=4,
)


@settings(max_examples=100, deadline=None)
@given(_NAMES)
def test_formatted_names_parse_to_the_same_graph(e):
    # nested sums included: the grammar has no brackets, so a repeated sum
    # must be written out summand by summand
    assert is_isomorphic(realize(parse_name(format_name(e))), realize(e)), e


@st.composite
def _small_graphs(draw):
    # sparse graphs and their complements, so that many have a name
    n = draw(st.integers(1, 7))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    g = Graph(n, sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v}))
    return complement(g) if draw(st.booleans()) else g


@settings(max_examples=100, deadline=None)
@given(_small_graphs())
def test_recognized_names_realize_the_graph(g):
    e = recognize(g)
    if e is not None:
        assert is_isomorphic(realize(e), g), format_name(e)
