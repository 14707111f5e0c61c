import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import frozen_graphs
from cwkit.classifier import (
    _FLAGS,
    _decided,
    _first_verdict,
    _graph_key,
    _graph_swap,
    _holds,
    BOUNDED_BITS,
    COLOURING_OPEN_CASES,
    COLOURING_RULES,
    COLOURING_TABLE,
    OPEN_CASES,
    PAIR_RULES,
    PAIR_TABLE,
    Rule,
    Status,
    classify_colouring,
    classify_pair,
    classify_relation,
    classify_single,
    display_name,
    colouring_facts,
    cw_facts,
    decide_sides,
    equivalence_class,
    fire,
    pair_class,
    pair_sides,
    UNBOUNDED_BITS,
)
from cwkit.enumeration import _level, nonisomorphic_graphs_upto
from cwkit.errors import InputError, InvariantViolation
from cwkit.graphs import Graph, complement, from_graph6, to_graph6
from cwkit.isomorphism import canonical_key, graph_of_key, is_isomorphic
from cwkit.names import graph_named
from cwkit.scan import _profiles


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
    # the digest was recorded before the Open rows; they are pinned below
    bu = BOUNDED_BITS | UNBOUNDED_BITS
    open_rows = {r: rule for r, rule in enumerate(PAIR_RULES) if rule.status is Status.OPEN}
    holds = {(r, at): [] for r in open_rows for at in (0, 1)}
    for g in graphs:
        pl, pr = pair_sides(g, complement(g))
        cl, cr = colouring_facts(g)
        lines.append(f"{to_graph6(g)} {pl & bu} {pr & bu} {cl} {cr}")
        for r in open_rows:
            for at, side in enumerate((pl, pr)):
                if side >> r & 1:
                    holds[r, at].append(g)
    assert len(lines) == 1257
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "2d72c025540c65dadcd86acee1846eb5f2381fc88b1eeaaf3c032e865b07a723"
    # an Open row's side holds on exactly the graphs isomorphic to its case graph
    for r, rule in open_rows.items():
        for at, (token,) in enumerate((rule.left, rule.right)):
            case_graph = graph_named(token.removeprefix("="))
            assert holds[r, at] == [g for g in graphs if is_isomorphic(g, case_graph)], (rule.rule_id, at)
            assert len(holds[r, at]) == 1, (rule.rule_id, at)
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
    _decided.cache_clear()
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
    _decided.cache_clear()
    u3 = 1 << [rule.rule_id for rule in PAIR_RULES].index("U3")
    own_left, _, _, dual_right = cw_facts(g)
    assert own_left & u3 and dual_right & u3
    assert search(g, two_p2)


def _every_token_walked(rules: tuple[Rule, ...], views: tuple, g: Graph) -> tuple[int, ...]:
    # decide_sides without a plan: every side of every view, each token
    # decided by _holds whatever the graph's order
    out = []
    for co in views:
        for at in (0, 1):
            bits = 0
            for r, rule in enumerate(rules):
                side = (rule.left, rule.right)[at]
                tokens = [t.removeprefix("co ") for t in side or () if co is None or t.startswith("co ") == co]
                if side is None or any(_holds(t, g) for t in tokens):
                    bits |= 1 << r
            out.append(bits)
    return tuple(out)


def _random_graphs(n: int, count: int, seed: int) -> list[Graph]:
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        p = rng.random()
        graphs.append(Graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p]))
    return graphs


def test_plans_match_the_unplanned_walk():
    # a plan keeps only the sides and tokens that can hold at the graph's
    # order; every order from 0 to past the largest <=X and =X order is met
    graphs = [from_graph6("?")] + frozen_graphs() + [
        graph_named(name) for name in ("P22", "K1_5", "C8", "co(C8)", "co(C6)+P1")
    ] + _random_graphs(8, 600, 30)
    rng = random.Random(30)
    tables = ((PAIR_TABLE, PAIR_RULES, (False, True)), (COLOURING_TABLE, COLOURING_RULES, (None,)))
    _decided.cache_clear()
    for g in graphs:
        for table, rules, views in tables:
            walked = _every_token_walked(rules, views, g)
            assert decide_sides(table, g) == walked, (to_graph6(g), rules[0].rule_id)
            for _ in range(3):
                want = tuple(rng.getrandbits(len(rules)) for _ in walked)
                got = decide_sides(table, g, want=want)
                assert got == tuple(w & m for w, m in zip(walked, want)), (to_graph6(g), want)
    # the profile path, on the level profiles; at 8 vertices, on the
    # seeded graphs above
    eight = [canonical_key(g) for g in graphs if g.n == 8]
    for keys in [_level(n) for n in range(1, 8)] + [eight]:
        n = keys[0][0]
        profiles = _profiles(keys, n)
        for i, key in enumerate(keys):
            g = graph_of_key(key)
            profile = sum((profiles[p] >> i & 1) << p for p in range(len(profiles)))
            walked = _every_token_walked(PAIR_RULES, (False, True), g)
            assert decide_sides(PAIR_TABLE, g, profile) == walked, key
            want = tuple(rng.getrandbits(len(PAIR_RULES)) for _ in walked)
            got = decide_sides(PAIR_TABLE, g, profile, want)
            assert got == tuple(w & m for w, m in zip(walked, want)), (key, want)


def test_the_plan_decides_no_token_at_an_order_it_cannot_hold_at(monkeypatch):
    # a <=X token is never decided on a graph with more vertices than X,
    # nor an =X token on a graph of another order; only the tokens the
    # evaluator decides are recorded, not those a flag decides inside
    import cwkit.classifier as classifier

    holds, decided, depth = classifier._holds, set(), [0]

    def recorded(token, g):
        if not depth[0]:
            decided.add((token, g.n))
        depth[0] += 1
        try:
            return holds(token, g)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(classifier, "_holds", recorded)
    _decided.cache_clear()
    graphs = nonisomorphic_graphs_upto(5)
    for a in graphs:
        for b in graphs:
            classify_pair(a, b)
            classify_colouring(a, b)
    classify_pair(graph_named("grid(14)"), graph_named("P3"))
    larger = {(t, n) for t, n in decided if t.startswith("<=") and n > graph_named(t[2:]).n}
    other = {(t, n) for t, n in decided if t[0] == "=" and n != graph_named(t[1:]).n}
    assert not larger
    assert not other
    # both kinds were decided where they can hold
    assert any(t.startswith("<=") for t, _ in decided)
    assert any(t[0] == "=" for t, _ in decided)


def test_pair_decides_a_large_graph_only_where_the_small_one_can_fire(monkeypatch):
    # B1 fires on P3 alone, and P3's sides leave the grid only <=X tokens,
    # which a graph larger than X fails without a search; so neither the
    # grid nor its complement is ever the host of a search
    import cwkit.classifier as classifier

    grid = graph_named("grid(14)")
    hosts, search = (grid, complement(grid)), classifier.has_induced

    def guarded(host, pattern):
        if host in hosts:
            raise AssertionError(f"searched {display_name(pattern)} in grid(14) or its complement")
        return search(host, pattern)

    monkeypatch.setattr(classifier, "has_induced", guarded)
    _decided.cache_clear()
    line = classify_pair(grid, graph_named("P3")).line()
    assert line.startswith("status=Bounded rule=B1 matched=P3,graph6:")


# graphs past the canonical-form cap, keyed by their labelled edges
_OVER_CAP = ("grid(5)", "co(grid(5))", "C17", "P17+P1", "K3+grid(4)")
_FROZEN = frozen_graphs()


@st.composite
def _relabelled_graphs(draw):
    if draw(st.integers(0, 9)):
        g = draw(st.sampled_from(_FROZEN))
    else:
        g = graph_named(draw(st.sampled_from(_OVER_CAP)))
    perm = draw(st.permutations(range(g.n)))
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _reference_pair(h1: Graph, h2: Graph) -> tuple:
    """classify_pair's class, fired rules and line as the closure keyed by
    ``_graph_key`` and a fire that reads every side of every graph give
    them."""
    members = pair_class(h1, h2, _graph_key, complement, _graph_swap)
    fired, first = fire(members, lambda g: pair_sides(g, complement(g)))
    assert not (fired & BOUNDED_BITS and fired & UNBOUNDED_BITS)
    return members, fired, first, _first_verdict(PAIR_RULES, first).line()


def _reference_colouring_line(h1: Graph, h2: Graph) -> str:
    fired, first = fire([(h1, h2)], colouring_facts)
    if first is None:
        return f"status=Unknown rule=COL-OPEN matched={display_name(h1)},{display_name(h2)} cite=outside both colouring tables; complexity unresolved"
    return _first_verdict(COLOURING_RULES, first).line()


@settings(max_examples=300, deadline=None)
@given(_relabelled_graphs(), _relabelled_graphs())
# a 5-vertex graph that is not self-complementary, though its complement
# has its order, size and degree sequence
@example(Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]), Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]))
@example(graph_named("grid(5)"), graph_named("co(grid(5))"))
@example(graph_named("K3"), graph_named("co(K1_3+3P1)"))
def test_pair_and_colouring_match_the_unmasked_reference(h1, h2):
    # the invariant-first closure key and the masked fire change nothing a
    # query shows: the class, its order, the fired rules and both lines
    members, fired, first, line = _reference_pair(h1, h2)
    # members pair labelled graphs, which Graph compares by their edges
    assert equivalence_class(h1, h2) == members
    masked = fire(members, lambda g, want=None: pair_sides(g, complement(g), want), lambda g: g.n)
    assert masked == (fired, first)
    assert classify_pair(h1, h2).line() == line
    assert classify_colouring(h1, h2).line() == _reference_colouring_line(h1, h2)


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
    monkeypatch.setattr(classifier, "pair_sides", lambda g, co, want=None: (every, every))
    ids = ", ".join(rule.rule_id for rule in classifier.PAIR_RULES)
    with pytest.raises(InvariantViolation) as info:
        classify_pair(k3, p4)
    assert str(info.value) == f"rules {ids} fire together on the class of (K3,P4)-free graphs"
    monkeypatch.setattr(classifier, "colouring_facts", lambda g, want=None: (every, every))
    ids = ", ".join(rule.rule_id for rule in classifier.COLOURING_RULES)
    with pytest.raises(InvariantViolation) as info:
        classify_colouring(k3, p4)
    assert str(info.value) == f"colouring rules {ids} fire together on (K3,P4)"


def _patch_pair_rules(monkeypatch, rules):
    import cwkit.classifier as classifier
    import cwkit.scan as scan

    table = classifier._compile(rules, (False, True))
    for module in (classifier, scan):
        monkeypatch.setattr(module, "PAIR_RULES", rules)
        monkeypatch.setattr(module, "PAIR_TABLE", table)
    _decided.cache_clear()


def test_a_dropped_open_row_leaves_its_case_unmatched(monkeypatch):
    from cwkit.scan import scan_pairs

    _patch_pair_rules(monkeypatch, tuple(rule for rule in PAIR_RULES if rule.rule_id != "OPEN4"))
    with pytest.raises(InvariantViolation, match=r"^\(2P1\+P3,co\(2P1\+P3\)\) matches no rule;"):
        classify_pair(graph_named("2P1+P3"), graph_named("co(2P1+P3)"))
    result = scan_pairs(5)
    assert result.conflicts == ["no rule matches (2P1+P3, co(2P1+P3))"]
    assert "OPEN4" not in {case for _, _, case in result.open_pairs}


def test_a_bounded_row_firing_on_an_open_case_is_a_conflict(monkeypatch):
    extra = Rule("B8", Status.BOUNDED, ("=2P1+P3",), ("=co(2P1+P3)",), "a wrong bound")
    _patch_pair_rules(monkeypatch, PAIR_RULES + (extra,))
    with pytest.raises(InvariantViolation) as info:
        classify_pair(graph_named("2P1+P3"), graph_named("co(2P1+P3)"))
    assert str(info.value) == "rules OPEN4, B8 fire together on the class of (2P1+P3,co(2P1+P3))-free graphs"


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
