from cwkit.classifier import Status, classify_pair
from cwkit.enumeration import nonisomorphic_graphs_upto
from cwkit.scan import scan_pairs


def test_scan_cross_checks_the_pairwise_classifier():
    # the scan runs the shared pair kernel on graph ids, classify_pair runs it
    # on labelled graphs keyed by canonical form; the two must agree on every
    # pair; exhaustive up to 5 vertices
    graphs = nonisomorphic_graphs_upto(5)
    result = scan_pairs(5)
    assert not result.conflicts
    counts = {s.value: 0 for s in (Status.BOUNDED, Status.UNBOUNDED, Status.OPEN)}
    for i, a in enumerate(graphs):
        for b in graphs[i:]:
            counts[classify_pair(a, b).status.value] += 1
    assert counts == result.counts


def test_scan_at_five_sees_the_five_vertex_open_cases():
    result = scan_pairs(5)
    cases = {case for _, _, case in result.open_pairs}
    # exactly the cases both of whose graphs fit in 5 vertices
    assert cases == {"OPEN1.2", "OPEN2.2", "OPEN3.1", "OPEN3.2", "OPEN4"}
    assert result.counts[Status.OPEN.value] == 11


def test_scan_at_six_sees_the_small_open_cases():
    result = scan_pairs(6)
    cases = {case for _, _, case in result.open_pairs}
    # exactly the cases whose largest member has at most 6 vertices
    assert cases == {
        "OPEN1.1", "OPEN1.2", "OPEN1.3", "OPEN1.5", "OPEN1.6",
        "OPEN2.1", "OPEN2.2", "OPEN2.3",
        "OPEN3.1", "OPEN3.2",
        "OPEN4",
    }
    assert not result.conflicts


def test_scan_five_counts_frozen():
    # regression fixture frozen from the first run
    result = scan_pairs(5)
    assert result.counts == {"Bounded": 376, "Unbounded": 991, "Open": 11}
    assert result.pair_count == 52 * 53 // 2


def test_scan_tiny_budget_has_no_swap_partner():
    result = scan_pairs(3)
    assert not result.conflicts
    assert sum(result.counts.values()) == result.pair_count
