import pytest

from conftest import frozen_graphs
from cwkit.enumeration import canonical_keys_upto, nonisomorphic_graphs, nonisomorphic_graphs_upto
from cwkit.errors import CapacityError, InputError
from cwkit.isomorphism import canonical_key, canonical_key_adj, graph_of_key, key_adjacency

# published counts of unlabelled simple graphs by vertex count
EXPECTED = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


@pytest.mark.parametrize("n,count", sorted(EXPECTED.items()))
def test_counts_up_to_seven(n, count):
    graphs = nonisomorphic_graphs(n)
    assert len(graphs) == count
    assert all(g.n == n for g in graphs)


def test_count_eight():
    assert len(nonisomorphic_graphs(8)) == 12346


def test_representatives_pairwise_distinct():
    for n in range(1, 7):
        keys = {canonical_key(g) for g in nonisomorphic_graphs(n)}
        assert len(keys) == EXPECTED[n]


def test_upto_concatenates():
    assert len(nonisomorphic_graphs_upto(6)) == sum(EXPECTED[n] for n in range(1, 7))


def test_deterministic_order():
    a = [canonical_key(g) for g in nonisomorphic_graphs(5)]
    b = [canonical_key(g) for g in nonisomorphic_graphs(5)]
    assert a == b


def test_cap():
    with pytest.raises(CapacityError):
        nonisomorphic_graphs(10)


def test_negative_vertex_counts_are_input_errors():
    for enumerate_ in (nonisomorphic_graphs, nonisomorphic_graphs_upto, canonical_keys_upto):
        with pytest.raises(InputError, match="non-negative, got -1"):
            enumerate_(-1)
    assert nonisomorphic_graphs(0) == [graph_of_key((0,))]
    assert nonisomorphic_graphs_upto(0) == []


def _reference_levels(top: int) -> dict[int, list[tuple]]:
    """Canonical keys per vertex count by the plain augmentation scheme:
    every neighbourhood of a new vertex on every representative one level
    down, deduplicated by canonical key, ordered by (edge count, key)."""
    levels = {1: [(1,)]}
    adjs = [(0,)]
    for n in range(2, top + 1):
        found = {}
        for parent in adjs:
            for nbhd in range(1 << (n - 1)):
                adj = tuple(a | (nbhd >> v & 1) << (n - 1) for v, a in enumerate(parent)) + (nbhd,)
                found.setdefault(canonical_key_adj(adj, n), adj)
        edges = {key: sum(a.bit_count() for a in adj) // 2 for key, adj in found.items()}
        levels[n] = sorted(found, key=lambda key: (edges[key], key))
        adjs = [found[key] for key in levels[n]]
    return levels


def test_augmentation_matches_the_plain_scheme():
    # same classes, same keys, same order as trying every neighbourhood
    levels = _reference_levels(7)
    assert [len(levels[n]) for n in range(1, 8)] == [EXPECTED[n] for n in range(1, 8)]
    assert canonical_keys_upto(7) == [key for n in range(1, 8) for key in levels[n]]


def test_representatives_are_their_canonical_forms():
    # each representative is the graph its key encodes, so canonicalising it
    # and decoding the key gives it back, vertex for vertex
    keys = canonical_keys_upto(7)
    graphs = nonisomorphic_graphs_upto(7)
    assert [canonical_key(g) for g in graphs] == keys
    assert [graph_of_key(canonical_key(g)) for g in graphs] == graphs


def test_key_adjacency_is_the_decoded_graphs():
    # the scan reads a key's adjacency masks without building its graph
    graphs = nonisomorphic_graphs_upto(7)
    assert [key_adjacency(canonical_key(g)) for g in graphs] == [g.adj for g in graphs]


def test_frozen_representatives_have_the_same_classes_in_the_same_order():
    # the labelled fixture the goldens read lists the same classes, in the
    # same order, as the enumeration, so graph ids are unchanged
    assert [canonical_key(g) for g in frozen_graphs()] == canonical_keys_upto(7)

