import hashlib
import random

import pytest

from conftest import frozen_graphs
from cwkit.classifier import (
    _FLAGS,
    _holds,
    COLOURING_OPEN_CASES,
    COLOURING_RULES,
    OPEN_CASES,
    PAIR_RULES,
    Status,
    classify_colouring,
    classify_pair,
    classify_relation,
    classify_single,
    display_name,
    colouring_facts,
    cw_facts,
    equivalence_class,
    pair_sides,
)
from cwkit.enumeration import nonisomorphic_graphs_upto
from cwkit.errors import InputError, InvariantViolation
from cwkit.graphs import complement, from_graph6, to_graph6
from cwkit.isomorphism import is_isomorphic
from cwkit.names import graph_named


def test_single_dichotomy():
    for name in ("P1", "2P1", "P1+P2", "P2", "P3", "P4"):
        assert classify_single(graph_named(name)).status is Status.BOUNDED
    for name in ("2P2", "C5", "K1_3", "P5", "3P1+P2"):
        assert classify_single(graph_named(name)).status is Status.UNBOUNDED


def test_equivalence_class_fixtures():
    cls = equivalence_class(graph_named("K3"), graph_named("P5"))
    shown = {tuple(sorted((display_name(a), display_name(b)))) for a, b in cls}
    assert shown == {
        ("K3", "P5"),
        ("P5", "paw"),
        ("3P1", "co(P5)"),
        ("P1+P3", "co(P5)"),
    }
    assert len(equivalence_class(graph_named("P4"), graph_named("P4"))) == 1
    assert len(equivalence_class(graph_named("C5"), graph_named("C5"))) == 1


@pytest.mark.parametrize(
    "n1,n2,status,rule",
    [
        ("K1_3", "co(K1_3)", Status.BOUNDED, "B7"),
        ("K4", "2P2", Status.UNBOUNDED, "U3"),
        ("K3", "S_1_2_2", Status.OPEN, "OPEN1.6"),
        ("K3", "S_1_2_3", Status.OPEN, "OPEN1.7"),
        ("3P1", "co(2P1+P3)", Status.BOUNDED, None),
        ("paw", "K1_3+3P1", Status.BOUNDED, None),
        ("paw", "P1+S_1_1_2", Status.BOUNDED, None),
        ("P6", "co(2P1+P2)", Status.UNBOUNDED, None),
        ("co(P1+P4)", "P2+P4", Status.UNBOUNDED, None),
        ("P4", "C5", Status.BOUNDED, "B1"),
        ("5P1", "K4", Status.BOUNDED, "B2"),
        ("2P1+P3", "co(2P1+P3)", Status.OPEN, "OPEN4"),
        ("C5", "C5", Status.UNBOUNDED, None),
    ],
)
def test_pair_fixtures(n1, n2, status, rule):
    verdict = classify_pair(graph_named(n1), graph_named(n2))
    assert verdict.status is status
    if rule is not None:
        assert verdict.rule_id == rule
    assert verdict.matched_pair and verdict.citation


def test_pair_is_symmetric_and_complement_invariant():
    rng = random.Random(21)
    pool = nonisomorphic_graphs_upto(5)
    for _ in range(60):
        a, b = rng.choice(pool), rng.choice(pool)
        base = classify_pair(a, b).status
        assert classify_pair(b, a).status is base
        assert classify_pair(complement(a), complement(b)).status is base


def test_pair_swap_on_triangle():
    k3, paw = graph_named("K3"), graph_named("paw")
    rng = random.Random(22)
    pool = nonisomorphic_graphs_upto(5)
    for _ in range(25):
        h = rng.choice(pool)
        assert classify_pair(k3, h).status is classify_pair(paw, h).status


def test_bounded_verdicts_carry_rule_trace():
    rng = random.Random(23)
    pool = nonisomorphic_graphs_upto(5)
    for _ in range(80):
        a, b = rng.choice(pool), rng.choice(pool)
        verdict = classify_pair(a, b)
        if verdict.status is Status.BOUNDED:
            assert verdict.rule_id.startswith("B")


def test_open_case_table_is_the_published_thirteen():
    assert len(OPEN_CASES) == 13
    seen = set()
    for case_id, n1, n2 in OPEN_CASES:
        verdict = classify_pair(graph_named(n1), graph_named(n2))
        assert verdict.status is Status.OPEN
        assert verdict.rule_id == case_id
        seen.add(case_id)
    assert len(seen) == 13


def test_open_case_classes_are_disjoint():
    # classify_pair reports the first member found in the open-case table,
    # which is only well defined if no class holds two listed cases
    for case_id, n1, n2 in OPEN_CASES:
        for a, b in equivalence_class(graph_named(n1), graph_named(n2)):
            for other_id, m1, m2 in OPEN_CASES:
                if other_id != case_id:
                    x, y = graph_named(m1), graph_named(m2)
                    assert not (
                        (is_isomorphic(a, x) and is_isomorphic(b, y))
                        or (is_isomorphic(a, y) and is_isomorphic(b, x))
                    ), (case_id, other_id)


def test_pair_lines_golden_up_to_five_vertices():
    # every ordered pair of graphs with at most 5 vertices; pins the rule, the
    # member that matched, its orientation and its display name
    graphs = nonisomorphic_graphs_upto(5)
    lines = [classify_pair(a, b).line() for a in graphs for b in graphs]
    assert len(lines) == 2704
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "3f138d2518599c3a10fe21e0239793db0b3bfd52fbb8be219ad596a7eb59b9f8"


_U1 = "status=Unbounded rule=U1 matched={} cite=k-subdivided walls avoid every family outside class S [LR06]"
_U2 = "status=Unbounded rule=U2 matched={} cite=complement of the class-S rule [LR06 with KLM09]"


@pytest.mark.parametrize("g6", ["ERUO", "EhCg", "FT?T_", "FseK?"])
def test_pair_lines_golden_unrecognised_graphs(g6):
    # relabelled 6- and 7-vertex graphs the name language does not recognise,
    # against the graphs the K3/paw swap and complementation reach
    g = from_graph6(g6)
    shown = f"graph6:{g6}"
    for name, line in (("K3", _U1), ("paw", _U1), ("3P1", _U2), ("P1+P3", _U2)):
        h = graph_named(name)
        assert classify_pair(g, h).line() == line.format(f"{shown},{name}")
        assert classify_pair(h, g).line() == line.format(f"{name},{shown}")


def test_pair_lines_golden_labelled_members():
    # isomorphic graphs keep their own labelling in the verdict and the class
    g, h = from_graph6("ERUO"), from_graph6("EhpO")
    assert classify_pair(g, h).line() == _U1.format("graph6:ERUO,graph6:EhpO")
    assert [(display_name(a), display_name(b)) for a, b in equivalence_class(g, h)] == [
        ("graph6:ERUO", "graph6:EhpO"),
        ("graph6:Ekhg", "graph6:EUMg"),
    ]
    # past the canonical-form cap
    grid = "XhEAHCPAGG?P?P?G_AG?O?@C?AG?AG?@C??O??AG??G_??P???P"
    verdict = classify_pair(graph_named("K3"), graph_named("grid(5)"))
    assert verdict.line() == _U1.format(f"K3,graph6:{grid}")
    assert len(equivalence_class(graph_named("grid(5)"), graph_named("co(grid(5))"))) == 1


def test_colouring_lines_golden_up_to_five_vertices():
    # every ordered pair of graphs with at most 5 vertices; pins the rule, the
    # orientation of the match and its display names
    graphs = nonisomorphic_graphs_upto(5)
    lines = [classify_colouring(a, b).line() for a in graphs for b in graphs]
    assert len(lines) == 2704
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "5fb990b2e1ea4948955e51748c2dc2b7e6cc7070b862c66890b0343bf56e4ffe"


def test_rule_sides_golden_up_to_seven_vertices():
    # both tables' rule sides of every graph with at most 7 vertices, and of
    # graphs that reach the facts smaller graphs never show (K1_3+3P1, K1_5,
    # P22, long induced cycles in the complement)
    graphs = frozen_graphs() + [
        graph_named(name) for name in ("P22", "K1_5", "C8", "co(C8)", "co(C6)+P1")
    ]
    lines = []
    for g in graphs:
        pl, pr = pair_sides(g, complement(g))
        cl, cr = colouring_facts(g)
        lines.append(f"{to_graph6(g)} {pl} {pr} {cl} {cr}")
    assert len(lines) == 1257
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "2d72c025540c65dadcd86acee1846eb5f2381fc88b1eeaaf3c032e865b07a723"
    # every token a row reads both holds and fails somewhere in this set; a
    # ``co `` token is decided on the complement
    for table in (PAIR_RULES, COLOURING_RULES):
        tokens = {t for rule in table for side in (rule.left, rule.right) if side for t in side}
        for token in sorted(tokens):
            if token.startswith("co "):
                holds = {_holds(token[3:], complement(g)) for g in graphs}
            else:
                holds = {_holds(token, g) for g in graphs}
            assert holds == {True, False}, token


def test_rule_sides_are_tuples_of_distinct_tokens():
    # a side is tried in written order; a repeated token would be a typo
    # that sets no longer absorb
    for rule in PAIR_RULES + COLOURING_RULES:
        for side in (rule.left, rule.right):
            if side is not None:
                assert isinstance(side, tuple) and side, rule.rule_id
                assert len(set(side)) == len(side), rule.rule_id


def test_colouring_stops_at_the_first_token_that_holds(monkeypatch):
    # COL-P1 fires on P3 alone; the long-anticycle probe on the dense
    # complement of a grid is never needed, since C4+P1 comes before it
    grid, probe = graph_named("grid(14)"), _FLAGS["co-has-cycle>=6"]

    def guarded(g):
        if g == grid:
            raise AssertionError("co-has-cycle>=6 decided on grid(14)")
        return probe(g)

    monkeypatch.setitem(_FLAGS, "co-has-cycle>=6", guarded)
    colouring_facts.cache_clear()
    line = classify_colouring(grid, graph_named("P3")).line()
    assert line.startswith("status=Polynomial rule=COL-P1 matched=P3,graph6:")


def test_pair_side_stops_at_the_first_token_that_holds(monkeypatch):
    # U3's left side is (>=K1_3, >=2P2) and its right side (co >=4P1,
    # co >=2P2): K1_3+P2 holds 2P2, but it holds the claw and 4P1 first, so
    # neither side searches for 2P2
    import cwkit.classifier as classifier

    g, two_p2, search = graph_named("K1_3+P2"), graph_named("2P2"), classifier.has_induced

    def guarded(host, pattern):
        if host == g and pattern == two_p2:
            raise AssertionError(">=2P2 decided on K1_3+P2")
        return search(host, pattern)

    monkeypatch.setattr(classifier, "has_induced", guarded)
    cw_facts.cache_clear()
    u3 = 1 << [rule.rule_id for rule in PAIR_RULES].index("U3")
    own_left, _, _, dual_right = cw_facts(g)
    assert own_left & u3 and dual_right & u3
    assert search(g, two_p2)


_COL_N1 = "status=NP-complete rule=COL-N1 matched={} cite=both sides keep some chordless cycle"
_COL_P1 = "status=Polynomial rule=COL-P1 matched={} cite=one side inside P1+P3 or P4"


@pytest.mark.parametrize("g6", ["ERUO", "EhCg", "FT?T_", "FseK?"])
def test_colouring_lines_golden_unrecognised_graphs(g6):
    g = from_graph6(g6)
    shown = f"graph6:{g6}"
    for name in ("K3", "paw"):
        h = graph_named(name)
        assert classify_colouring(g, h).line() == _COL_N1.format(f"{shown},{name}")
        assert classify_colouring(h, g).line() == _COL_N1.format(f"{name},{shown}")
    for name in ("3P1", "P1+P3"):
        h = graph_named(name)
        assert classify_colouring(g, h).line() == _COL_P1.format(f"{name},{shown}")
        assert classify_colouring(h, g).line() == _COL_P1.format(f"{name},{shown}")


def test_conflict_errors_list_every_fired_rule(monkeypatch):
    import cwkit.classifier as classifier

    every = (1 << 64) - 1
    k3, p4 = graph_named("K3"), graph_named("P4")
    monkeypatch.setattr(classifier, "pair_sides", lambda g, co: (every, every))
    ids = ", ".join(rule.rule_id for rule in classifier.PAIR_RULES)
    with pytest.raises(InvariantViolation) as info:
        classify_pair(k3, p4)
    assert str(info.value) == f"rules {ids} fire together on the class of (K3,P4)-free graphs"
    monkeypatch.setattr(classifier, "colouring_facts", lambda g: (every, every))
    ids = ", ".join(rule.rule_id for rule in classifier.COLOURING_RULES)
    with pytest.raises(InvariantViolation) as info:
        classify_colouring(k3, p4)
    assert str(info.value) == f"colouring rules {ids} fire together on (K3,P4)"

def test_relation_fixtures():
    assert classify_relation([graph_named("P4")], "subgraph").status is Status.BOUNDED
    assert classify_relation([graph_named("C3")], "subgraph").status is Status.UNBOUNDED
    assert classify_relation([graph_named("K4")], "minor").status is Status.BOUNDED
    assert (
        classify_relation([graph_named("K5"), graph_named("K6")], "minor").status
        is Status.UNBOUNDED
    )
    assert (
        classify_relation([graph_named("K4")], "topological-minor").status
        is Status.BOUNDED
    )
    assert (
        classify_relation([graph_named("K1_4")], "topological-minor").status
        is Status.UNBOUNDED
    )
    assert (
        classify_relation([graph_named("K5")], "topological-minor").status
        is Status.UNBOUNDED
    )
    # one good member is enough
    assert (
        classify_relation([graph_named("K5"), graph_named("P4")], "minor").status
        is Status.BOUNDED
    )


def test_relation_input_guards():
    with pytest.raises(InputError):
        classify_relation([], "minor")
    with pytest.raises(InputError):
        classify_relation([graph_named("P4")], "homomorphism")


def test_colouring_fixtures():
    v = classify_colouring(graph_named("K1_3"), graph_named("K1_3"))
    assert v.status is Status.NP_COMPLETE and v.rule_id == "COL-N2"
    v = classify_colouring(graph_named("P4"), graph_named("grid(3)"))
    assert v.status is Status.POLYNOMIAL and v.rule_id == "COL-P1"
    v = classify_colouring(graph_named("2P1+P2"), graph_named("co(P1+2P2)"))
    assert v.status is Status.UNKNOWN
    v = classify_colouring(graph_named("C5"), graph_named("C5"))
    assert v.status is Status.NP_COMPLETE and v.rule_id == "COL-N1"
    v = classify_colouring(graph_named("bull"), graph_named("K1_4"))
    assert v.status is Status.NP_COMPLETE
    v = classify_colouring(graph_named("3P2"), graph_named("K4"))
    assert v.status is Status.POLYNOMIAL and v.rule_id == "COL-P4"


def test_colouring_open_cases_fixture_table():
    assert len(COLOURING_OPEN_CASES) == 15
    for n1, n2 in COLOURING_OPEN_CASES:
        g1, g2 = graph_named(n1), graph_named(n2)
        v = classify_colouring(g1, g2)
        assert v.status is Status.UNKNOWN, (n1, n2, v.line())


def test_colouring_consistency_sampled_at_seven():
    # conflicts raise InvariantViolation inside classify_colouring
    rng = random.Random(55)
    pool = nonisomorphic_graphs_upto(7)
    for _ in range(1500):
        a, b = rng.choice(pool), rng.choice(pool)
        classify_colouring(a, b)


def test_colouring_orderings_agree():
    rng = random.Random(14)
    pool = nonisomorphic_graphs_upto(5)
    for _ in range(60):
        a, b = rng.choice(pool), rng.choice(pool)
        assert classify_colouring(a, b).status is classify_colouring(b, a).status


def test_display_name_falls_back_to_graph6():
    from cwkit.graphs import Graph

    petersen = Graph(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 7), (7, 9), (9, 6), (6, 8),
         (8, 5), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
    )
    assert display_name(petersen).startswith("graph6:")
