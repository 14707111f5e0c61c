import random
import re

import networkx as nx
import pytest

from conftest import frozen_graphs, naive_contains_induced, naive_has_induced_cycle_at_least
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
    is_chordal,
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


def test_chordality_matches_the_probe_up_to_seven_vertices():
    for g in frozen_graphs():
        assert is_chordal(g) == (not has_induced_cycle_at_least(g, 4)), g


def _random_chordal(rng: random.Random, n: int) -> Graph:
    """Each new vertex joins a clique among the earlier ones: the cliques
    spanned by a vertex and part of its earlier neighbours."""
    edges: set[tuple[int, int]] = set()
    earlier: list[set[int]] = []
    for v in range(n):
        if v and rng.random() < 0.9:
            u = rng.randrange(v)
            clique = {u} | {w for w in earlier[u] if rng.random() < 0.6}
        else:
            clique = set()
        earlier.append(clique)
        edges |= {(w, v) for w in clique}
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def test_chordality_agrees_with_networkx_on_random_graphs():
    rng = random.Random(25)
    graphs = []
    for _ in range(150):
        n = rng.randint(1, 40)
        graphs.append(_random_chordal(rng, n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        graphs.append(Graph(n, rng.sample(pairs, int(len(pairs) * rng.random() ** 3))))
        # a chordal graph plus one random edge is often not chordal
        g = graphs[-2]
        non_edges = [e for e in pairs if not g.has_edge(*e)]
        if non_edges:
            graphs.append(Graph(n, list(g.edges) + [rng.choice(non_edges)]))
    chordal = 0
    for g in graphs:
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges)
        assert is_chordal(g) == nx.is_chordal(G), g
        chordal += is_chordal(g)
    # both verdicts occur often
    assert 150 <= chordal <= len(graphs) - 100, chordal


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


# -- the automorphism-pruned first pass on hosts of more than 16 vertices -----

_PRUNED_EXTRA = ("3P2", "P2+P4", "P6", "co(P1+P4)", "co(2P1+P2)", "2P3", "C6")


def _nx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return G


def _seeded_big_hosts(seed: int, count: int) -> list[Graph]:
    """Hosts of 17 to 29 vertices: sparse, dense and middling random graphs,
    and unions of small random graphs with their complements, so that small
    patterns are both present and absent."""
    rng = random.Random(seed)
    hosts = []
    for i in range(count):
        n = rng.randint(17, 27)
        if i % 3 == 2:
            parts = []
            while sum(p.n for p in parts) < n:
                k = rng.randint(1, 3)
                parts.append(Graph(k, [(u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < 0.6]))
            edges, base = [], 0
            for p in parts:
                edges += [(u + base, v + base) for u, v in p.edges]
                base += p.n
            g = Graph(base, edges)
            hosts.append(complement(g) if rng.random() < 0.5 else g)
        else:
            density = rng.choice((0.04, 0.08, 0.15, 0.5, 0.85, 0.92, 0.96))
            hosts.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]))
    return hosts


def test_pruned_search_agrees_with_networkx_on_hosts_over_16_vertices():
    from networkx.algorithms.isomorphism import GraphMatcher

    patterns = nonisomorphic_graphs_upto(5) + [graph_named(x) for x in _PRUNED_EXTRA]
    found = missing = 0
    for host in _seeded_big_hosts(41, 9):
        # networkx is slow on dense hosts, so those are compared through the
        # complements, which hold exactly the complements of their induced
        # subgraphs
        dense = 4 * len(host.edges) > host.n * (host.n - 1)
        H = _nx(complement(host) if dense else host)
        for pat in patterns:
            expected = GraphMatcher(H, _nx(complement(pat) if dense else pat)).subgraph_is_isomorphic()
            assert has_induced(host, pat) == expected, (host.n, sorted(host.edges), sorted(pat.edges))
            free, hit = is_free(host, [pat])
            assert free == (not expected)
            if hit is not None:
                assert hit[0] == 0 and hit[1].is_valid(host, pat)
            found += expected
            missing += not expected
    assert found > 100 and missing > 100


def test_pruned_first_pass_keeps_the_least_embedding(monkeypatch):
    from cwkit import patterns as module

    pats = [graph_named(x) for x in _PRUNED_EXTRA + ("paw", "C4", "K1_3", "2P1+P2")]
    hosts = _seeded_big_hosts(43, 12)
    pruned = [[contains_induced(host, pat) for pat in pats] for host in hosts]
    # past every order here, so every search takes the unpruned plan
    monkeypatch.setattr(module, "CANONICAL_CAP", 1000)
    hits = 0
    for host, row in zip(hosts, pruned):
        for pat, emb in zip(pats, row):
            assert emb == contains_induced(host, pat)
            hits += emb is not None
    assert hits > 20


def _pruned_embeddings(host: Graph, pattern: Graph) -> list[tuple[int, ...]]:
    """Every embedding the pruned plan admits, in the order of its search:
    the plan's steps, host vertices in increasing order, each step's image
    above the images of the vertices in its ``below`` entry."""
    from cwkit.patterns import _pruned

    _, steps, below = _pruned(pattern)
    out: list[tuple[int, ...]] = []
    image = [-1] * pattern.n

    def walk(i: int, used: set) -> None:
        if i == len(steps):
            out.append(tuple(image))
            return
        p, ins, outs = steps[i]
        for w in range(host.n):
            if w in used or any(image[q] >= w for q in below[i]):
                continue
            if all(host.has_edge(image[q], w) for q in ins) and not any(host.has_edge(image[q], w) for q in outs):
                image[p] = w
                walk(i + 1, used | {w})

    walk(0, set())
    return out


def test_pruned_embeddings_times_automorphisms_count_every_embedding():
    from networkx.algorithms.isomorphism import GraphMatcher

    from cwkit.patterns import _first_embedding

    rng = random.Random(47)
    checked = 0
    for name in _PRUNED_EXTRA + ("paw", "K1_3", "C4"):
        pat = graph_named(name)
        P = _nx(pat)
        automorphisms = sum(1 for _ in GraphMatcher(P, P).isomorphisms_iter())
        for density in (0.25, 0.5):
            n = rng.randint(17, 18)
            host = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])
            every = sum(1 for _ in GraphMatcher(_nx(host), P).subgraph_isomorphisms_iter())
            pruned = _pruned_embeddings(host, pat)
            assert len(pruned) * automorphisms == every, name
            # the first pass stops at the first of them
            first = _first_embedding(host, pat)
            assert (first and tuple(first[2])) == (pruned[0] if pruned else None), name
            checked += every > 0
    assert checked > 15


def test_only_hosts_over_16_vertices_take_the_pruned_plan():
    from cwkit.patterns import _pruned

    p6 = graph_named("P6")
    _pruned.cache_clear()
    for host in ("P6", "C7", "P16", "C16"):
        assert has_induced(graph_named(host), p6)
        assert contains_induced(graph_named(host), p6) is not None
    assert not has_induced(graph_named("K16"), p6)
    assert _pruned.cache_info().currsize == 0
    # a pattern of more than 16 vertices never takes it either
    assert has_induced(graph_named("P40"), graph_named("P17"))
    assert _pruned.cache_info().currsize == 0
    assert has_induced(graph_named("P17"), p6)
    assert _pruned.cache_info().currsize == 1
