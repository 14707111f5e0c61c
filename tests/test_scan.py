import contextlib
import io
import json

from cwkit.classifier import PAIR_RULES, Status, classify_pair, fire
from cwkit.cli import run
from cwkit.enumeration import nonisomorphic_graphs_upto
from cwkit.scan import PHASES, _catalogue, _fired_rows, _special_rows, scan_pairs


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


def _kernel_fired(cat, i, j):
    # the shared pair kernel, exactly as classify_pair runs it
    return fire(cat.pair_class(i, j), cat.sides.__getitem__)[0]


def test_row_kernel_matches_pair_kernel():
    # every unordered pair of graphs with at most 6 vertices, the rows and
    # columns of K3, the paw and their complements included
    cat = _catalogue(6, {})
    assert len(cat.special) == 4
    rows = dict(_fired_rows(cat, _special_rows(cat)))
    n = len(cat.graphs)
    pairs = 0
    for i in range(n):
        assert len(rows[i]) == len(PAIR_RULES)
        for s in rows[i]:
            assert s >> i << i == s and s >> n == 0, "bits outside j in i..n-1"
        for j in range(i, n):
            got = sum(1 << r for r, s in enumerate(rows[i]) if s >> j & 1)
            assert got == _kernel_fired(cat, i, j), (i, j)
            pairs += 1
    assert pairs == 21736


def test_scan_json_keys_and_rule_fires():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["scan", "--max-vertices", "5", "--json"])
    assert code == 0
    doc = json.loads(out.getvalue())
    assert list(doc) == [
        "max_vertices", "pairs", "counts", "open_pairs", "conflicts", "rule_fires", "phase_seconds",
    ]
    assert list(doc["phase_seconds"]) == list(PHASES)
    assert doc["counts"] == {"Bounded": 376, "Unbounded": 991, "Open": 11}
    assert doc["pairs"] == 52 * 53 // 2 and doc["conflicts"] == []
    assert list(doc["open_pairs"][0]) == ["h1", "h2", "case"]
    assert len(doc["open_pairs"]) == 11
    # a fire count is the number of unordered pairs whose class fires the rule
    cat = _catalogue(5, {})
    want = {rule.rule_id: 0 for rule in PAIR_RULES}
    for i in range(len(cat.graphs)):
        for j in range(i, len(cat.graphs)):
            fired = _kernel_fired(cat, i, j)
            for r, rule in enumerate(PAIR_RULES):
                want[rule.rule_id] += fired >> r & 1
    assert doc["rule_fires"] == want


def test_scan_default_output_is_the_report():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["scan", "--max-vertices", "5"]) == 0
    assert out.getvalue() == scan_pairs(5).report() + "\n"
