import hashlib
import random
import time
from pathlib import Path

import pytest

from cwkit.certificate import (
    LayeredPartition,
    check_certificate,
    format_partition,
    lower_bound,
    parse_partition,
)
from cwkit.cwexact import cliquewidth
from cwkit.errors import HypothesisError, InputError, ParseError
from cwkit.graphs import Graph
from cwkit.witnesses import FAMILIES, grid, p6_diamond_base, two_clique_grid


def test_lower_bound_values():
    assert lower_bound(7, 0) == 7
    assert lower_bound(5, 1) == 3
    assert lower_bound(3, 1) == 2
    assert lower_bound(4, 0) == 4


def test_lower_bound_hypotheses():
    with pytest.raises(HypothesisError):
        lower_bound(2, 1)
    with pytest.raises(HypothesisError):
        lower_bound(5, -1)


def test_grid_certificate():
    g, p = grid(5)
    report = check_certificate(g, p)
    assert report.all_hold and report.bound == 3


@pytest.mark.parametrize("n", range(2, 7))
def test_layered_families_certify(n):
    for build in (p6_diamond_base, two_clique_grid):
        g, p = build(n)
        report = check_certificate(g, p)
        assert report.all_hold, [c for c in report.property_status if not c.holds]
        assert report.bound == n


def _misfiled_cell_partition():
    # move one cell vertex far across the array: its in-cell edges now span
    # cells at offset 2, violating the interior-offset property (m = 0)
    g, p = p6_diamond_base(3)
    cells = dict(p.cells)
    moved = min(cells[(1, 1)])
    cells[(1, 1)] = cells[(1, 1)] - {moved}
    cells[(3, 3)] = cells[(3, 3)] | {moved}
    return g, LayeredPartition(p.n, p.m, cells)


def test_misfiled_vertex_breaks_offset_property():
    g, bad = _misfiled_cell_partition()
    report = check_certificate(g, bad)
    assert not report.all_hold
    assert report.bound is None
    failed = {c.number for c in report.property_status if not c.holds}
    assert 8 in failed
    witness = next(c.witness for c in report.property_status if c.number == 8)
    assert "exceed" in witness


def test_failure_witnesses_are_deterministic():
    g, bad = _misfiled_cell_partition()
    a = check_certificate(g, bad)
    b = check_certificate(g, bad)
    assert a == b


def move_vertex(cells, vertex, src, dst):
    out = dict(cells)
    out[src] = out.get(src, frozenset()) - {vertex}
    out[dst] = out.get(dst, frozenset()) | {vertex}
    return out


def failing_properties(g, p):
    report = check_certificate(g, p)
    return {c.number for c in report.property_status if not c.holds}


def test_each_property_detects_its_own_violation():
    g, p = two_clique_grid(3)
    name_to_vertex = {g.names[v]: v for v in range(g.n)}

    # 1: two vertices in a row-border cell
    cells = move_vertex(p.cells, name_to_vertex["b_2"], (2, 0), (1, 0))
    assert 1 in failing_properties(g, LayeredPartition(p.n, p.m, cells))

    # 2: two vertices in a column-border cell
    cells = move_vertex(p.cells, name_to_vertex["w_2"], (0, 2), (0, 1))
    assert 2 in failing_properties(g, LayeredPartition(p.n, p.m, cells))

    # 3: an empty interior cell
    cells = move_vertex(p.cells, name_to_vertex["x_{1,1}"], (1, 1), (2, 2))
    assert 3 in failing_properties(g, LayeredPartition(p.n, p.m, cells))

    from cwkit.graphs import Graph

    # 6: add a row-border edge that climbs upward (b_1 into row 2)
    extra = Graph(
        g.n,
        set(g.edges) | {(name_to_vertex["b_1"], name_to_vertex["x_{2,2}"])},
        g.names,
    )
    assert failing_properties(extra, p) == {6}

    # 7: same for a column-border edge
    extra = Graph(
        g.n,
        set(g.edges) | {(name_to_vertex["w_1"], name_to_vertex["x_{2,2}"])},
        g.names,
    )
    assert failing_properties(extra, p) == {7}


def test_row_and_column_connectivity_checks():
    from cwkit.graphs import Graph

    g, p = grid(3)
    # drop one horizontal edge: its row falls apart, columns survive
    dropped = next(
        (u, v) for u, v in sorted(g.edges)
        if g.names[u][1] == g.names[v][1] and g.names[u][1] == "2"
    )
    broken = Graph(g.n, g.edges - {dropped}, g.names)
    failed = failing_properties(broken, p)
    assert 4 in failed and 5 not in failed
    # drop one vertical edge instead: a column falls apart
    dropped = next(
        (u, v) for u, v in sorted(g.edges)
        if g.names[u][3] == g.names[v][3] and g.names[u][3] == "2"
    )
    broken = Graph(g.n, g.edges - {dropped}, g.names)
    failed = failing_properties(broken, p)
    assert 5 in failed and 4 not in failed


def test_non_partition_rejected():
    g, p = grid(3)
    cells = dict(p.cells)
    cells[(1, 1)] = frozenset()
    with pytest.raises(InputError):
        check_certificate(g, LayeredPartition(p.n, p.m, cells))
    cells = dict(p.cells)
    cells[(1, 2)] = cells[(1, 1)]
    with pytest.raises(InputError):
        check_certificate(g, LayeredPartition(p.n, p.m, cells))


def test_hypothesis_rejected():
    g, p = grid(3)
    with pytest.raises(HypothesisError):
        check_certificate(g, LayeredPartition(p.n, 5, p.cells))


def test_empty_border_cells_are_legal():
    # the grid partition leaves every border cell empty and still certifies
    g, p = grid(4)
    assert all((i, 0) not in p.cells and (0, i) not in p.cells for i in range(1, 5))
    assert check_certificate(g, p).bound == 2


def test_corner_cell_policy():
    g, p = two_clique_grid(2)
    cells = dict(p.cells)
    moved = next(iter(cells[(1, 1)]))
    cells[(1, 1)] = frozenset()
    cells[(0, 0)] = frozenset({moved})
    # cell (1,1) is now empty too, but the nonempty corner is refused before
    # any property is checked
    bad = LayeredPartition(p.n, p.m, cells)
    with pytest.raises(InputError, match=r"cell \(0,0\) is nonempty"):
        check_certificate(g, bad)


def test_certified_bound_respects_oracle():
    g, p = two_clique_grid(2)  # eight vertices, inside the oracle cap
    report = check_certificate(g, p)
    assert report.bound == 2
    assert cliquewidth(g)[0] >= report.bound


def test_partition_file_round_trip():
    _, p = grid(3)
    text = format_partition(p)
    back = parse_partition(text)
    assert back == p
    with pytest.raises(ParseError):
        parse_partition("not a header\n")
    with pytest.raises(ParseError):
        parse_partition("3 0\n1 1 1 : 0\n")
    with pytest.raises(ParseError):
        parse_partition("3 0\n1 1 : 0\n1 1 : 1\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty partition input"),
        ("# only a comment\n", "empty partition input"),
        ("3\n", "partition header must be 'n m', got '3'"),
        ("3 x\n", "partition header must be two integers, got '3 x'"),
        ("3 0\n1 1 0\n", "cell line needs 'i j : vertices', got '1 1 0'"),
        ("3 0\n1 : 0\n", "cell line needs two indices, got '1 : 0'"),
        ("3 0\n1 1 : x\n", "bad cell line '1 1 : x'"),
        ("3 0\n1 1 : 0\n1 1 : 1\n", "cell (1,1) listed twice"),
    ],
)
def test_partition_reader_errors(text, message):
    with pytest.raises(ParseError) as info:
        parse_partition(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "n, cells, message",
    [
        (0, {}, "partition parameter n must be positive, got 0"),
        (3, {(4, 1): frozenset({0})}, "cell index (4,1) outside 0..3"),
        (3, {(1, -1): frozenset({0})}, "cell index (1,-1) outside 0..3"),
        (3, {(1, 1): frozenset({0, 9})}, "cell (1,1) contains vertex 9 outside 0..8"),
    ],
)
def test_partition_validation_errors(n, cells, message):
    g, _ = grid(3)
    with pytest.raises(InputError) as info:
        check_certificate(g, LayeredPartition(n, 0, cells))
    assert str(info.value) == message


# -- golden reports ------------------------------------------------------

GOLDEN_MEMBERS = [(f, k) for f in ("thm4G", "thm5G") for k in range(2, 8)]
GOLDEN_MEMBERS += [("grid", k) for k in range(3, 8)]
GOLDEN_FILE = Path(__file__).with_name("certificate_reports.sha256")


def golden_cases():
    """Each family member, then seeded corruptions of it: three moved
    vertices, two added edges and two deleted edges, one edit per case."""
    for family, k in GOLDEN_MEMBERS:
        g, p = FAMILIES[family].build(k)
        rng = random.Random(f"{family}({k})")
        yield f"{family}({k})", g, p
        for _ in range(3):
            v = rng.randrange(g.n)
            src = next(key for key, cell in sorted(p.cells.items()) if v in cell)
            dst = (rng.randint(0, p.n), rng.randint(0, p.n))
            cells = move_vertex(p.cells, v, src, dst)
            yield f"{family}({k}) move {v} {src}->{dst}", g, LayeredPartition(p.n, p.m, cells)
        for _ in range(2):
            while True:
                u, w = sorted(rng.sample(range(g.n), 2))
                if not g.has_edge(u, w):
                    break
            yield f"{family}({k}) add {u}-{w}", Graph(g.n, g.edges | {(u, w)}, g.names), p
        for _ in range(2):
            e = sorted(g.edges)[rng.randrange(len(g.edges))]
            yield f"{family}({k}) delete {e[0]}-{e[1]}", Graph(g.n, g.edges - {e}, g.names), p


def test_certificate_reports_golden():
    # Recorded from the checker that built an induced subgraph per row and
    # column and scanned every edge for properties 6-8: reports and witness
    # strings stay byte-identical.
    want = dict(line.split("  ", 1)[::-1] for line in GOLDEN_FILE.read_text().splitlines())
    got = {}
    failed = set()
    for label, g, p in golden_cases():
        report = check_certificate(g, p)
        got[label] = hashlib.sha256(repr(report).encode()).hexdigest()
        failed |= {c.number for c in report.property_status if not c.holds}
    assert [k for k in got if got[k] != want.get(k)] == []
    assert got.keys() == want.keys()
    # every fallback that words a witness is exercised
    assert failed == set(range(1, 9))


def test_check_time_does_not_depend_on_declared_n():
    # Each property walks the cells present, so a huge declared n costs nothing.
    g = Graph(2, [(0, 1)])
    start = time.perf_counter()
    report = check_certificate(g, parse_partition("1000000000 0\n1 1 : 0 1\n"))
    assert time.perf_counter() - start < 1
    assert report == check_certificate(g, parse_partition("1000 0\n1 1 : 0 1\n"))
    assert [c.number for c in report.property_status if not c.holds] == [3]
    assert report.property_status[2].witness == "V_{1,2} is empty"
    assert report.bound is None
