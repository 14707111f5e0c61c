import hashlib

import networkx as nx
import pytest

from cwkit.certificate import format_partition
from cwkit.errors import InputError
from cwkit.graphs import complement_bipartite, to_graph6
from cwkit.isomorphism import is_isomorphic
from cwkit.names import graph_named
from cwkit.patterns import has_induced, is_free, is_planar
from cwkit.witnesses import (
    FAMILIES,
    grid,
    p6_diamond_base,
    p6_diamond_witness,
    subdivided_wall,
    two_clique_grid,
    wall,
)


def is_bipartite(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return nx.is_bipartite(G)


@pytest.mark.parametrize("h,vertices", [(2, 16), (3, 30), (4, 48)])
def test_wall_shape(h, vertices):
    g = wall(h)
    assert g.n == vertices
    assert g.max_degree() == 3
    assert g.is_connected()
    assert is_bipartite(g)
    assert is_planar(g)


def test_wall_rejects_small_height():
    with pytest.raises(InputError):
        wall(1)


def test_subdivided_wall_formulas():
    for h in (2, 3, 4):
        base = wall(h)
        for k in range(0, 4):
            s = subdivided_wall(h, k)
            assert s.n == base.n + k * len(base.edges)
            assert len(s.edges) == (k + 1) * len(base.edges)
            assert s.max_degree() == 3
    assert is_isomorphic(subdivided_wall(3, 0), wall(3))


def test_subdivided_wall_kills_short_cycles():
    assert not has_induced(subdivided_wall(2, 1), graph_named("K3"))


def test_grid_fixtures():
    g, p = grid(3)
    assert g.n == 9 and len(g.edges) == 12
    assert is_bipartite(g) and is_planar(g)
    assert p.m == 1
    with pytest.raises(InputError):
        grid(2)


def test_triple_cell_counts_and_names():
    for n in (2, 3, 4):
        g, p = p6_diamond_base(n)
        assert g.n == 2 * n + 3 * n * n
        assert p.m == 0
        assert g.names[0] == "b_1"
    g, _ = p6_diamond_base(2)
    assert "r_{1,2}" in g.names.values()


def test_flip_touches_exactly_the_cell_layers():
    for n in (2, 3):
        base, _ = p6_diamond_base(n)
        flipped = p6_diamond_witness(n)
        b2 = [v for v in range(base.n) if base.names[v].startswith("b_{")]
        w2 = [v for v in range(base.n) if base.names[v].startswith("w_{")]
        assert complement_bipartite(base, b2, w2) == flipped
        diff = base.edges ^ flipped.edges
        for u, v in diff:
            names = {base.names[u][0:3], base.names[v][0:3]}
            assert names == {"b_{", "w_{"}


def test_flipped_family_freeness():
    patterns = [graph_named(x) for x in ("P6", "co(2P1+P2)")]
    for n in (2, 3, 4, 5):
        ok, hit = is_free(p6_diamond_witness(n), patterns)
        assert ok, hit
    base, _ = p6_diamond_base(3)
    ok, _ = is_free(base, [graph_named("P6")])
    assert not ok  # the flip is what buys the freeness


def test_two_clique_grid_structure():
    for n in (2, 3, 4):
        g, p = two_clique_grid(n)
        assert g.n == n * n + 2 * n
        assert p.m == 0
        b = [v for v in range(g.n) if g.names[v].startswith("b_") and "{" not in g.names[v]]
        w = [v for v in range(g.n) if g.names[v].startswith("w_") and "{" not in g.names[v]]
        x = [v for v in range(g.n) if g.names[v].startswith("x_")]
        for s in (b, w):
            assert all(g.has_edge(u, v) for u in s for v in s if u != v)
        assert not any(g.has_edge(u, v) for u in x for v in x if u < v)
        assert not any(g.has_edge(u, v) for u in b for v in w)


def test_two_clique_grid_freeness():
    patterns = [graph_named(s) for s in ("3P2", "P2+P4", "P6", "co(P1+P4)")]
    for n in (2, 3, 4, 5):
        ok, hit = is_free(two_clique_grid(n)[0], patterns)
        assert ok, hit


def test_parameter_guards():
    for build in (p6_diamond_base, p6_diamond_witness, two_clique_grid):
        with pytest.raises(InputError):
            build(1)


def test_family_members_golden():
    # ``witness --out`` writes the graph with this vertex numbering, so the
    # numbering, the names and the partitions are pinned, not just the shape
    h = hashlib.sha256()
    members = [(f, p) for f in ("thm4G", "thm4H", "thm5G", "wall") for p in range(2, 7)]
    members += [("grid", p) for p in range(3, 7)]
    for family, p in members:
        g, partition = FAMILIES[family].build(p)
        h.update(f"{family} {p}\n{to_graph6(g)}\n{sorted(g.names.items())}\n".encode())
        if partition is not None:
            h.update(format_partition(partition).encode())
    assert h.hexdigest() == "4f8c0f422e0ed7f4d5d24632f191bf5e44764e314530280364118e74f1a90aa3"
