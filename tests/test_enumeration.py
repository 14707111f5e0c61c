import pytest

from cwkit.enumeration import nonisomorphic_graphs, nonisomorphic_graphs_upto
from cwkit.errors import CapacityError
from cwkit.isomorphism import canonical_key

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

