"""Acceptance suite: the eleven headline checks, one test each.

Each test prints a single PASS line (visible under pytest -s or -v with
line buffering) so the suite doubles as a report.  Tolerances are exact
everywhere; the checks are either full enumerations or fixed fixtures.
"""

import random
import time

from cwkit.certificate import check_certificate
from cwkit.classifier import (
    COLOURING_OPEN_CASES,
    OPEN_CASES,
    Status,
    classify_colouring,
    classify_pair,
    classify_relation,
    equivalence_class,
)
from cwkit.cwexact import cliquewidth, cliquewidth_at_most
from cwkit.cwexpr import eval_cwexpr, parse_cwexpr, width
from cwkit.enumeration import nonisomorphic_graphs_upto
from cwkit.graphs import Graph, complement
from cwkit.isomorphism import canonical_key, is_isomorphic
from cwkit.names import graph_named
from cwkit.patterns import contains_induced, has_induced, is_free
from cwkit.scan import scan_pairs
from cwkit.witnesses import grid, p6_diamond_base, p6_diamond_witness, two_clique_grid

PATH4_EXPR = "eta(3,2; 3(d) + rho(3->2; rho(2->1; eta(3,2; 3(c) + eta(2,1; 2(b)+1(a))))))"


def report(name: str, started: float, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: PASS ({time.time() - started:.1f}s){' ' + detail if detail else ''}")


def test_01_path4_fixture():
    t0 = time.time()
    expr = parse_cwexpr(PATH4_EXPR)
    built = eval_cwexpr(expr).graph
    assert is_isomorphic(built, graph_named("P4"))
    assert width(expr) == 3
    assert cliquewidth(graph_named("P4"))[0] == 3
    report("1 path4-fixture", t0)


def test_02_cograph_boundary():
    t0 = time.time()
    p4 = graph_named("P4")
    graphs = nonisomorphic_graphs_upto(6)
    assert len(graphs) == 208
    for g in graphs:
        le2, _ = cliquewidth_at_most(g, 2)
        assert le2 == (contains_induced(g, p4) is None), g
    report("2 cograph-boundary", t0, "208 graphs")


def test_03_degree_two_bound():
    t0 = time.time()
    checked = 0
    for g in nonisomorphic_graphs_upto(8):
        if g.max_degree() <= 2:
            ok, _ = cliquewidth_at_most(g, 4)
            assert ok, g
            checked += 1
    report("3 degree-two-bound", t0, f"{checked} graphs")


def test_04_certificate_reproduction():
    t0 = time.time()
    for n in range(2, 7):
        for build in (p6_diamond_base, two_clique_grid):
            g, p = build(n)
            rep = check_certificate(g, p)
            assert rep.all_hold and rep.bound == n, (build.__name__, n)
    g, p = grid(5)
    rep = check_certificate(g, p)
    assert rep.all_hold and rep.bound == 3
    report("4 certificate-reproduction", t0)


def test_05_freeness_verification():
    t0 = time.time()
    flip_patterns = [graph_named(s) for s in ("P6", "co(2P1+P2)")]
    grid_patterns = [graph_named(s) for s in ("3P2", "P2+P4", "P6", "co(P1+P4)")]
    for n in (2, 3, 4):
        ok, hit = is_free(p6_diamond_witness(n), flip_patterns)
        assert ok, (n, hit)
        ok, hit = is_free(two_clique_grid(n)[0], grid_patterns)
        assert ok, (n, hit)
    report("5 freeness-verification", t0)


def test_06_trichotomy_exactness():
    t0 = time.time()
    result = scan_pairs(7)
    # (a) every pair got exactly one verdict; (b) no rule-family conflict
    assert not result.conflicts
    assert (
        sum(result.counts.values()) == result.pair_count
    ), "some pair escaped classification"
    # (c) the open set is exactly the equivalence closure of the 13 cases
    expected: set[frozenset] = set()
    for _, n1, n2 in OPEN_CASES:
        for a, b in equivalence_class(graph_named(n1), graph_named(n2)):
            expected.add(frozenset((canonical_key(a), canonical_key(b))))
    assert len(expected) == 39
    got = set()
    for name1, name2, _ in result.open_pairs:
        a = graph_named(name1.replace("graph6:", ""))
        b = graph_named(name2)
        got.add(frozenset((canonical_key(a), canonical_key(b))))
    assert got == expected
    report("6 trichotomy-exactness", t0, f"{result.pair_count} pairs, 39 open")


def test_07_equivalence_invariance():
    t0 = time.time()
    rng = random.Random(2024)
    pool = nonisomorphic_graphs_upto(7)
    k3, paw = graph_named("K3"), graph_named("paw")
    for trial in range(1000):
        a = rng.choice(pool)
        b = rng.choice(pool) if trial % 5 else rng.choice([k3, paw])
        base = classify_pair(a, b).status
        assert classify_pair(b, a).status is base
        assert classify_pair(complement(a), complement(b)).status is base
        for x, y in ((a, b), (b, a)):
            if is_isomorphic(x, k3):
                assert classify_pair(paw, y).status is base
            elif is_isomorphic(x, paw):
                assert classify_pair(k3, y).status is base
    report("7 equivalence-invariance", t0, "1000 pairs")


def test_08_paw_free_structure():
    t0 = time.time()
    # A connected graph is complete multipartite iff it has no induced P1+P2.
    paw, p1p2, k3 = graph_named("paw"), graph_named("P1+P2"), graph_named("K3")
    checked = 0
    for g in nonisomorphic_graphs_upto(8):
        if not g.is_connected() or contains_induced(g, paw) is not None:
            continue
        assert not has_induced(g, p1p2) or not has_induced(g, k3), g
        checked += 1
    report("8 paw-free-structure", t0, f"{checked} connected paw-free graphs")


def test_09_relation_dichotomies():
    t0 = time.time()
    fixtures = [
        ("subgraph", ["P4"], Status.BOUNDED),
        ("subgraph", ["C3"], Status.UNBOUNDED),
        ("minor", ["K4"], Status.BOUNDED),
        ("minor", ["K5", "K6"], Status.UNBOUNDED),
        ("topological-minor", ["K4"], Status.BOUNDED),
        ("topological-minor", ["K1_4"], Status.UNBOUNDED),
        ("topological-minor", ["K5"], Status.UNBOUNDED),
    ]
    for relation, names, status in fixtures:
        verdict = classify_relation([graph_named(s) for s in names], relation)
        assert verdict.status is status, (relation, names, verdict.line())
    report("9 relation-dichotomies", t0)


def test_10_colouring_consistency():
    t0 = time.time()
    graphs = nonisomorphic_graphs_upto(6)
    for i, a in enumerate(graphs):
        for b in graphs[i:]:
            classify_colouring(a, b)  # raises InvariantViolation on conflict
    small_open = 0
    for n1, n2 in COLOURING_OPEN_CASES:
        g1, g2 = graph_named(n1), graph_named(n2)
        if g1.n <= 6 and g2.n <= 6:
            assert classify_colouring(g1, g2).status is Status.UNKNOWN, (n1, n2)
            small_open += 1
    assert small_open == 11
    report("10 colouring-consistency", t0, f"{len(graphs)*(len(graphs)+1)//2} pairs")


def test_11_expression_oracle_soundness():
    t0 = time.time()
    from test_cwexpr import random_expr

    rng = random.Random(7777)
    done = 0
    while done < 200:
        expr = random_expr(rng, 7, max_label=5)
        g = eval_cwexpr(expr).graph
        value, witness = cliquewidth(Graph(g.n, g.edges))
        assert value <= width(expr), (expr, value)
        assert width(witness) == value
        done += 1
    report("11 expression-oracle-soundness", t0, "200 expressions")
