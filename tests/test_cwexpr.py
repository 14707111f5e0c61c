import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwkit.cwexpr import (
    Create,
    Join,
    Rename,
    Union,
    eval_cwexpr,
    format_cwexpr,
    parse_cwexpr,
    parse_cwexpr_file,
    width,
)
from cwkit.errors import InputError, ParseError
from cwkit.isomorphism import is_isomorphic
from cwkit.names import graph_named

PATH4_EXPR = "eta(3,2; 3(d) + rho(3->2; rho(2->1; eta(3,2; 3(c) + eta(2,1; 2(b)+1(a))))))"


def test_parse_fixture():
    e = parse_cwexpr("eta(2,1; 2(b) + 1(a))")
    assert e == Join(2, 1, Union(Create(2, "b"), Create(1, "a")))


def test_parse_full_path_expression():
    e = parse_cwexpr(PATH4_EXPR)
    lab = eval_cwexpr(e)
    name_of = lab.graph.names
    edges = {frozenset((name_of[u], name_of[v])) for u, v in lab.graph.edges}
    assert edges == {frozenset(p) for p in (("a", "b"), ("b", "c"), ("c", "d"))}
    assert is_isomorphic(lab.graph, graph_named("P4"))
    assert width(e) == 3


def test_join_label_validation():
    with pytest.raises(InputError):
        parse_cwexpr("eta(1,1; 1(a)+1(b))")
    with pytest.raises(InputError):
        Join(2, 2, Create(1, "a"))


def test_duplicate_vertex_names_rejected():
    with pytest.raises(InputError):
        parse_cwexpr("1(a) + 1(a)")


def test_names_outside_the_bare_grammar_are_quoted():
    from cwkit.cwexact import cliquewidth
    from cwkit.witnesses import FAMILIES

    for name, text in (("eta", '1("eta")'), ("a b", '1("a b")'), ("x_{2,2}", '1("x_{2,2}")'), ("007", "1(007)")):
        assert format_cwexpr(Create(1, name)) == text
        assert parse_cwexpr(text) == Create(1, name)
    # the oracle's witness for a family member, whose names hold braces
    g = FAMILIES["thm5G"].build(2)[0]
    _, expr = cliquewidth(g, max_vertices=g.n)
    text = format_cwexpr(expr)
    assert '2("x_{2,2}")' in text and parse_cwexpr(text) == expr
    for bad in ('a"b', "a\nb", "a\rb"):
        with pytest.raises(InputError):
            Create(1, bad)
    for bad in ('1("")', '1("a"b)', '1("ab)', '1("a\nb")'):
        with pytest.raises(ParseError):
            parse_cwexpr(bad)


def test_parse_errors_carry_position():
    for bad in ["", "eta(1,2 1(a))", "rho(1=>2; 1(a))", "1(a) +", "2()", "foo(a)"]:
        with pytest.raises(ParseError):
            parse_cwexpr(bad)


@pytest.mark.parametrize(
    "bad, message, pos",
    [
        ("", "unexpected end of expression", 0),
        ("1(a", "unexpected end of expression", 3),
        ("@", "unexpected character", 0),
        ("eta(1;1(a))", "expected ,", 5),
        ("rho(1,2; 1(a))", "expected ->", 5),
        ("rho(1->2 1(a))", "expected ;", 9),
        ("1(a) 2(b)", "trailing input after expression", 5),
        ("1(+)", "expected a vertex name", 2),
        ("x", "expected an expression", 0),
        ("eta(1,1; 1(a)+1(b))", "eta(1,1): join labels must differ", 0),
        ("eta(0,1; 1(a))", "labels must be positive integers", 0),
        ("rho(0->1; 1(a))", "labels must be positive integers", 0),
        ("0(a)", "label 0 must be a positive integer", 0),
        ("1(a) + rho(1->2; 0(b))", "label 0 must be a positive integer", 17),
    ],
)
def test_parse_error_messages_and_positions(bad, message, pos):
    with pytest.raises(ParseError) as info:
        parse_cwexpr(bad)
    assert info.value.pos == pos
    assert str(info.value) == f"{message} (at position {pos}: {bad[pos:pos + 12]!r})"

def test_eval_fixtures():
    assert eval_cwexpr(parse_cwexpr("1(a)")).graph.n == 1
    k2 = eval_cwexpr(parse_cwexpr("eta(2,1; 2(b)+1(a))")).graph
    assert is_isomorphic(k2, graph_named("P2"))
    assert width(parse_cwexpr("1(a)")) == 1
    assert width(parse_cwexpr("eta(2,1; 2(b)+1(a))")) == 2


def test_rename_counts_toward_width_but_not_structure():
    e = parse_cwexpr("rho(5->1; 1(a))")
    assert width(e) == 2
    assert eval_cwexpr(e).graph.n == 1


def test_join_idempotent():
    once = parse_cwexpr("eta(1,2; 1(a) + 2(b) + 1(c))")
    twice = parse_cwexpr("eta(1,2; eta(1,2; 1(a) + 2(b) + 1(c)))")
    assert eval_cwexpr(once).graph == eval_cwexpr(twice).graph


def test_rename_preserves_underlying_graph():
    base = "eta(1,2; 1(a) + 2(b) + 1(c))"
    renamed = f"rho(1->2; {base})"
    g1 = eval_cwexpr(parse_cwexpr(base)).graph
    g2 = eval_cwexpr(parse_cwexpr(renamed)).graph
    assert g1 == g2


def random_expr(rng: random.Random, max_vertices: int, max_label: int = 4):
    counter = [0]

    def leaf():
        counter[0] += 1
        return Create(rng.randint(1, max_label), f"v{counter[0]}")

    def build(budget: int):
        if budget == 1:
            return leaf(), 1
        roll = rng.random()
        if roll < 0.45:
            cut = rng.randint(1, budget - 1)
            left, nl = build(cut)
            right, nr = build(budget - cut)
            return Union(left, right), nl + nr
        if roll < 0.8:
            sub, ns = build(budget)
            i = rng.randint(1, max_label)
            j = rng.randint(1, max_label)
            while j == i:
                j = rng.randint(1, max_label)
            return Join(i, j, sub), ns
        sub, ns = build(budget)
        return Rename(rng.randint(1, max_label), rng.randint(1, max_label), sub), ns

    expr, _ = build(rng.randint(1, max_vertices))
    return expr


def test_format_parse_round_trip_random():
    rng = random.Random(42)
    for _ in range(300):
        e = random_expr(rng, 7)
        assert parse_cwexpr(format_cwexpr(e)) == e


_LABELS = st.integers(1, 5)
# a term's shape: a creation's label, or an operation on shapes; vertex
# names are given after drawing, so that they are distinct
_SHAPES = st.recursive(
    _LABELS,
    lambda sub: st.one_of(
        st.tuples(st.just("+"), sub, sub),
        st.tuples(st.just("eta"), _LABELS, _LABELS, sub).filter(lambda t: t[1] != t[2]),
        st.tuples(st.just("rho"), _LABELS, _LABELS, sub),
    ),
    max_leaves=12,
)
# names the grammar reads bare (identifiers and digits), its keywords, and
# any other text without a double quote or a line break, which it reads in
# double quotes
_VERTEX_NAMES = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}|[0-9]{1,3}", fullmatch=True),
    st.sampled_from(("eta", "rho", "x_{2,2}", "a b", "(", "+", "#")),
    st.text(st.characters(exclude_characters='"', exclude_categories=("Cs",)), min_size=1, max_size=4).filter(
        lambda s: s.splitlines() == [s]
    ),
)


@st.composite
def _terms(draw):
    shape = draw(_SHAPES)
    leaves, stack = 0, [shape]
    while stack:
        node = stack.pop()
        if isinstance(node, int):
            leaves += 1
        else:
            stack.extend(node[1:])
    names = iter(draw(st.lists(_VERTEX_NAMES, min_size=leaves, max_size=leaves, unique=True)))

    def build(node):
        if isinstance(node, int):
            return Create(node, next(names))
        if node[0] == "+":
            left = build(node[1])  # names go left to right
            return Union(left, build(node[2]))
        return (Join if node[0] == "eta" else Rename)(node[1], node[2], build(node[3]))

    return build(shape)


def _by_name(expr):
    """The evaluated graph by vertex name: each vertex's label, and the
    edges as pairs of names."""
    lab = eval_cwexpr(expr)
    name = lab.graph.names
    labels = {name[v]: label for v, label in enumerate(lab.label_of)}
    return labels, {frozenset((name[u], name[v])) for u, v in lab.graph.edges}


@settings(max_examples=300, deadline=None)
@given(_terms())
def test_format_parse_eval_round_trip(e):
    text = format_cwexpr(e)
    parsed = parse_cwexpr(text)
    assert parsed == e, text
    assert format_cwexpr(parsed) == text
    assert _by_name(parsed) == _by_name(e)
    assert width(parsed) == width(e)


def test_file_parsing_with_comments():
    text = "# a path build\n" + PATH4_EXPR[:20] + "\n" + PATH4_EXPR[20:] + "\n# trailing note\n"
    e = parse_cwexpr_file(text)
    assert is_isomorphic(eval_cwexpr(e).graph, graph_named("P4"))


def test_terms_compare_hash_and_print_like_dataclasses():
    e = parse_cwexpr("eta(1,2; rho(3->2; 1(a) + 3(b)) + 2(c))")
    # the dataclass-generated repr, recorded before the terms got their own
    assert repr(e) == (
        "Join(i=1, j=2, sub=Union(left=Rename(i=3, j=2, sub=Union("
        "left=Create(label=1, vertex='a'), right=Create(label=3, vertex='b'))), "
        "right=Create(label=2, vertex='c')))"
    )
    same = parse_cwexpr("eta(1,2; rho(3->2; 1(a) + 3(b)) + 2(c))")
    assert e == same and hash(e) == hash(same)
    assert e != parse_cwexpr("eta(1,2; rho(3->2; 1(a) + 3(b)) + 2(d))")
    assert e != parse_cwexpr("eta(2,1; rho(3->2; 1(a) + 3(b)) + 2(c))")
    assert Join(1, 2, Create(1, "a")) != Rename(1, 2, Create(1, "a"))
    assert Create(1, "a") != (1, "a")
    assert len({e, same, Create(1, "a")}) == 2


def test_deep_terms_compare_hash_and_print():
    # a flat union parses to a left-deep chain as deep as it is long
    text = " + ".join(f"1(v{i})" for i in range(3000))
    a, b = parse_cwexpr(text), parse_cwexpr(text)
    assert a == b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert repr(a).startswith("Union(left=Union(left=")
    assert a != parse_cwexpr(text.replace("1(v2999)", "2(v2999)"))
