import random
import re

import networkx as nx
import pytest

from conftest import naive_contains_induced, naive_has_induced_cycle_at_least
from cwkit.enumeration import nonisomorphic_graphs, nonisomorphic_graphs_upto
from cwkit.errors import CapacityError, InputError
from cwkit.graphs import Graph, complement, induced_subgraph
from cwkit.names import format_name, graph_named, recognize
from cwkit.patterns import (
    Embedding,
    contains_induced,
    has_induced,
    has_induced_cycle_at_least,
    in_class_S,
    is_free,
    is_planar,
)
from cwkit.witnesses import wall


def test_embedding_fixtures():
    c5, p4 = graph_named("C5"), graph_named("P4")
    emb = contains_induced(c5, p4)
    assert emb is not None and emb.is_valid(c5, p4)
    assert contains_induced(graph_named("K3"), graph_named("P3")) is None


def test_agrees_with_naive_oracle_exhaustively():
    hosts = nonisomorphic_graphs_upto(6)
    patterns = nonisomorphic_graphs_upto(4)
    for host in hosts:
        for pat in patterns:
            naive = naive_contains_induced(host, pat)
            mine = contains_induced(host, pat)
            assert (naive is None) == (mine is None)
            if mine is not None:
                assert mine.is_valid(host, pat)


def test_returns_lexicographically_least_embedding():
    rng = random.Random(9)
    hosts = nonisomorphic_graphs(6)
    patterns = nonisomorphic_graphs_upto(4)
    for _ in range(250):
        host = rng.choice(hosts)
        pat = rng.choice(patterns)
        naive = naive_contains_induced(host, pat)
        mine = contains_induced(host, pat)
        if naive is None:
            assert mine is None
        else:
            assert mine is not None and tuple(mine.mapping) == naive


def test_has_induced_agrees_with_naive_oracle_exhaustively():
    hosts = nonisomorphic_graphs_upto(6)
    patterns = nonisomorphic_graphs_upto(4)
    for host in hosts:
        for pat in patterns:
            assert has_induced(host, pat) == (naive_contains_induced(host, pat) is not None)


def test_lexicographically_least_for_disconnected_patterns():
    rng = random.Random(23)
    pats = [graph_named(x) for x in ("3P2", "4P1+P2", "2P1+P4")]
    hits = 0
    for _ in range(80):
        density = rng.uniform(0.1, 0.4)
        host = Graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7) if rng.random() < density])
        for pat in pats:
            naive = naive_contains_induced(host, pat)
            mine = contains_induced(host, pat)
            assert (mine and tuple(mine.mapping)) == naive
            assert has_induced(host, pat) == (naive is not None)
            hits += naive is not None
    assert 40 < hits < 200


def test_search_edge_cases():
    c5 = graph_named("C5")
    empty = Graph(0)
    assert contains_induced(c5, empty) == Embedding(())
    assert has_induced(c5, empty) and has_induced(empty, empty)
    assert contains_induced(empty, empty) == Embedding(())
    # pattern larger than its host
    assert contains_induced(graph_named("P3"), graph_named("P4")) is None
    assert not has_induced(graph_named("P3"), graph_named("P4"))
    assert not has_induced(empty, graph_named("P1"))
    # A pinned image that makes the search fail: P3 (centre 1) into K2 + P3.
    # Host vertices 0 and 1 pass the degree filters for pattern vertex 0, but
    # once pinned there, no host neighbour can be the centre.
    host = Graph(5, [(0, 1), (2, 3), (3, 4)])
    p3 = graph_named("P3")
    assert contains_induced(host, p3).mapping == (2, 3, 4) == naive_contains_induced(host, p3)


def test_transitivity_spot_checks():
    rng = random.Random(31)
    mids = nonisomorphic_graphs(5)
    hosts = nonisomorphic_graphs(7)
    patterns = nonisomorphic_graphs_upto(4)
    hits = 0
    for _ in range(400):
        pat, mid, host = rng.choice(patterns), rng.choice(mids), rng.choice(hosts)
        if contains_induced(mid, pat) and contains_induced(host, mid):
            assert contains_induced(host, pat) is not None
            hits += 1
    assert hits > 10


def test_complement_duality_sampled():
    rng = random.Random(17)
    graphs = nonisomorphic_graphs_upto(6)
    for _ in range(400):
        host, pat = rng.choice(graphs), rng.choice(graphs)
        a = contains_induced(host, pat) is not None
        b = contains_induced(complement(host), complement(pat)) is not None
        assert a == b


def test_is_free():
    ok, hit = is_free(graph_named("C5"), [graph_named("P4")])
    assert not ok
    index, emb = hit
    assert index == 0 and emb.is_valid(graph_named("C5"), graph_named("P4"))
    ok, hit = is_free(graph_named("C5"), [])
    assert ok and hit is None


def test_class_s_fixtures():
    assert in_class_S(graph_named("K1_3"))
    assert in_class_S(graph_named("2P1+P3"))
    assert in_class_S(graph_named("S_1_2_3+P5"))
    assert not in_class_S(graph_named("C5"))
    assert not in_class_S(graph_named("K1_4"))
    assert not in_class_S(graph_named("2P3+K3"))


def test_class_s_implies_sparse_forest():
    for g in nonisomorphic_graphs_upto(7):
        if in_class_S(g):
            assert g.max_degree() <= 3
            assert len(g.edges) == g.n - len(g.component_masks())


def test_class_s_matches_component_names_upto_8():
    # Independent reference: every component is named a path, the claw or a
    # subdivided claw by the catalogue.
    shape = re.compile(r"P\d+|K1_3|S_\d+_\d+_\d+")

    def named_path_or_claw(h):
        name = recognize(h)
        return name is not None and shape.fullmatch(format_name(name)) is not None

    members = 0
    for g in nonisomorphic_graphs_upto(8):
        expected = all(named_path_or_claw(induced_subgraph(g, comp)) for comp in g.components())
        assert in_class_S(g) == expected, g
        members += expected
    assert members == 104


def test_paw_free_connected_structure_small():
    # A connected graph is complete multipartite iff it has no induced P1+P2.
    paw, p1p2, k3 = graph_named("paw"), graph_named("P1+P2"), graph_named("K3")
    for g in nonisomorphic_graphs_upto(6):
        if not g.is_connected() or contains_induced(g, paw) is not None:
            continue
        assert not has_induced(g, p1p2) or not has_induced(g, k3)


def test_planarity_fixtures():
    assert is_planar(graph_named("K4"))
    assert not is_planar(graph_named("K5"))
    assert not is_planar(Graph(6, [(a, b) for a in range(3) for b in range(3, 6)]))
    assert is_planar(wall(4))
    assert is_planar(graph_named("grid(4)"))


def test_planarity_agrees_with_networkx_small():
    for g in nonisomorphic_graphs_upto(7):
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges)
        assert is_planar(g) == nx.check_planarity(G)[0]


def test_planar_graphs_satisfy_euler_bound():
    rng = random.Random(4)
    pool = nonisomorphic_graphs(8)
    for g in rng.sample(pool, 400):
        if is_planar(g) and g.n >= 3:
            assert len(g.edges) <= 3 * g.n - 6


def test_kuratowski_supergraphs_rejected():
    rng = random.Random(8)
    k5 = graph_named("K5")
    k33 = Graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
    for base in (k5, k33):
        for _ in range(20):
            extra = rng.randint(0, 3)
            n = base.n + extra
            edges = set(base.edges)
            for v in range(base.n, n):
                for u in range(v):
                    if rng.random() < 0.3:
                        edges.add((u, v))
            assert not is_planar(Graph(n, edges))


def test_probe_fixtures():
    c6 = graph_named("C6")
    assert not has_induced(c6, graph_named("K3"))
    assert has_induced_cycle_at_least(c6, 5)
    assert has_induced(c6, graph_named("P5")) and not has_induced(c6, graph_named("P6"))
    k3 = graph_named("K3")
    assert has_induced(k3, k3)
    assert not has_induced_cycle_at_least(k3, 4)
    assert has_induced_cycle_at_least(graph_named("C22"), 22, max_vertices=22)


def test_probe_oracle_agreement():
    rng = random.Random(12)
    graphs = nonisomorphic_graphs_upto(6)
    for _ in range(200):
        g = rng.choice(graphs)
        for length in (3, 4, 5):
            assert has_induced_cycle_at_least(g, length) == naive_has_induced_cycle_at_least(g, length)


def test_long_cycle_probe_matches_chordality():
    for g in nonisomorphic_graphs_upto(6):
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges)
        assert has_induced_cycle_at_least(g, 4) == (not nx.is_chordal(G))


def test_probe_guards():
    big = wall(3)
    with pytest.raises(CapacityError):
        has_induced_cycle_at_least(big, 4)
    assert has_induced_cycle_at_least(big, 6, max_vertices=30)
    with pytest.raises(InputError):
        has_induced_cycle_at_least(graph_named("C5"), 2)


def test_cached_search_plans_agree_with_naive_oracle():
    # One pattern object searched on 60 hosts, interleaved with an equal
    # pattern that carries vertex names, and every tenth host with more
    # fresh patterns than the plan cache holds, so the pattern's plan is
    # evicted and rebuilt between uses.
    from cwkit.patterns import _plan

    rng = random.Random(15)
    pattern = graph_named("paw")
    named = Graph(pattern.n, pattern.edges, {v: f"x{v}" for v in range(pattern.n)})
    assert named == pattern and named is not pattern
    pairs5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    small_host = graph_named("bull")

    def check(host, pat):
        naive = naive_contains_induced(host, pat)
        mine = contains_induced(host, pat)
        assert (mine and tuple(mine.mapping)) == naive
        assert has_induced(host, pat) == (naive is not None)
        return naive is not None

    hits = 0
    for i in range(60):
        density = rng.uniform(0.2, 0.7)
        host = Graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7) if rng.random() < density])
        hits += check(host, pattern)
        hits += check(host, named)
        if i % 10 == 0:
            masks = rng.sample(range(1 << len(pairs5)), _plan.cache_info().maxsize + 44)
            for mask in masks:
                fresh = Graph(5, [e for b, e in enumerate(pairs5) if mask >> b & 1])
                check(small_host, fresh)
    assert 20 < hits < 100
