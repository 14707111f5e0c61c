import random

import networkx as nx
import pytest

from cwkit.errors import CapacityError
from cwkit.graphs import Graph, complement
from cwkit.isomorphism import canonical_key, is_isomorphic
from cwkit.names import graph_named
from cwkit.patterns import contains_induced


def permuted(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_fixtures():
    assert is_isomorphic(graph_named("P4"), complement(graph_named("P4")))
    assert not is_isomorphic(graph_named("K3"), graph_named("P3"))
    assert not is_isomorphic(graph_named("C6"), graph_named("2K3"))


def test_canonical_key_invariant_under_relabelling():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(1, 9)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_key(g) == canonical_key(permuted(g, perm))


def test_canonical_key_separates_nonisomorphic():
    from cwkit.enumeration import nonisomorphic_graphs

    keys = {canonical_key(g) for g in nonisomorphic_graphs(6)}
    assert len(keys) == 156


def test_contains_induced_maps_relabelled_copies():
    # g embeds induced in a relabelled copy h of itself; with equal orders
    # the embedding is an isomorphism g -> h.
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randint(1, 10)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
        perm = list(range(n))
        rng.shuffle(perm)
        h = permuted(g, perm)
        emb = contains_induced(h, g)
        assert emb is not None
        mapping = emb.mapping
        assert sorted(mapping) == list(range(n))
        for u in range(n):
            for v in range(u + 1, n):
                assert g.has_edge(u, v) == h.has_edge(mapping[u], mapping[v])


def test_symmetric_graphs_stay_fast():
    # cliques and complete multipartite blobs exercise the twin pruning
    assert is_isomorphic(graph_named("K13"), graph_named("K13"))
    a = graph_named("co(3P1+4P1+5P1)")
    b = graph_named("co(5P1+3P1+4P1)")
    assert is_isomorphic(a, b)


def test_large_graphs_use_search_not_canonical():
    from cwkit.witnesses import wall

    g = wall(3)
    perm = list(range(g.n))
    random.Random(5).shuffle(perm)
    assert is_isomorphic(g, permuted(g, perm))
    with pytest.raises(CapacityError):
        canonical_key(g)


def test_random_regular_graphs_agree_with_networkx():
    # Refinement cannot split a regular graph, so these are decided by the
    # vertex-map search alone: relabelled copies and independent draws.
    rng = random.Random(1)
    for n in range(17, 41):
        d = 3 if n % 2 == 0 else 4
        G = nx.random_regular_graph(d, n, seed=rng.randrange(2**32))
        g = Graph(n, list(G.edges()))
        perm = list(range(n))
        rng.shuffle(perm)
        copy = permuted(g, perm)
        K = nx.random_regular_graph(d, n, seed=rng.randrange(2**32))
        other = Graph(n, list(K.edges()))
        for h, H in ((copy, nx.relabel_nodes(G, dict(enumerate(perm)))), (other, K)):
            expected = nx.is_isomorphic(G, H)
            assert is_isomorphic(g, h) == expected
            emb = contains_induced(h, g)
            assert (emb is not None) == expected
            if emb is not None:
                mapping = emb.mapping
                assert sorted(mapping) == list(range(n))
                assert all(h.has_edge(mapping[u], mapping[v]) for u, v in g.edges)
