import functools
import hashlib
import random
from itertools import combinations, permutations

import pytest

from conftest import frozen_graphs
from cwkit.cwexact import _Search, _Tables, cliquewidth, cliquewidth_at_most
from cwkit.cwexpr import eval_cwexpr, format_cwexpr, width
from cwkit.enumeration import nonisomorphic_graphs_upto
from cwkit.errors import CapacityError, InputError
from cwkit.graphs import Graph, complement, induced_subgraph
from cwkit.isomorphism import canonical_key, is_isomorphic
from cwkit.names import graph_named
from cwkit.patterns import contains_induced


def test_path4_is_three():
    ok, _ = cliquewidth_at_most(graph_named("P4"), 2)
    assert not ok
    ok, witness = cliquewidth_at_most(graph_named("P4"), 3)
    assert ok and width(witness) <= 3
    value, witness = cliquewidth(graph_named("P4"))
    assert value == 3 and width(witness) == 3


def test_single_vertex():
    ok, witness = cliquewidth_at_most(Graph(1), 1)
    assert ok and width(witness) == 1


def test_cliques_are_two():
    ok, _ = cliquewidth_at_most(graph_named("K5"), 2)
    assert ok
    assert cliquewidth(graph_named("K6"))[0] == 2


# regression fixtures, first computed by this oracle and frozen
CYCLE_VALUES = {"C5": 3, "C6": 3, "C7": 4, "C8": 4}


@pytest.mark.parametrize("name,value", sorted(CYCLE_VALUES.items()))
def test_cycle_regressions(name, value):
    assert cliquewidth(graph_named(name))[0] == value


def test_witness_soundness_random():
    rng = random.Random(99)
    pool = nonisomorphic_graphs_upto(6)
    for _ in range(40):
        g = rng.choice(pool)
        value, witness = cliquewidth(g)
        built = eval_cwexpr(witness).graph
        assert is_isomorphic(built, g)
        assert width(witness) == value


def test_cograph_boundary_small():
    p4 = graph_named("P4")
    for g in nonisomorphic_graphs_upto(5):
        le2, _ = cliquewidth_at_most(g, 2)
        assert le2 == (contains_induced(g, p4) is None)


def test_complement_stability_at_boundary():
    p4 = graph_named("P4")
    for g in nonisomorphic_graphs_upto(5):
        a = contains_induced(g, p4) is None
        b = contains_induced(complement(g), p4) is None
        assert a == b
        if a:
            assert cliquewidth_at_most(g, 2)[0]
            assert cliquewidth_at_most(complement(g), 2)[0]


def test_degree_two_bound_small():
    for g in nonisomorphic_graphs_upto(6):
        if g.max_degree() <= 2:
            ok, _ = cliquewidth_at_most(g, 4)
            assert ok


def test_cograph_counts_match_published_sequence():
    # unlabelled cographs by vertex count: 1, 2, 4, 10, 24, 66, 180
    from cwkit.enumeration import nonisomorphic_graphs

    p4 = graph_named("P4")
    expected = {1: 1, 2: 2, 3: 4, 4: 10, 5: 24, 6: 66, 7: 180}
    for n, count in expected.items():
        got = sum(
            1 for g in nonisomorphic_graphs(n) if contains_induced(g, p4) is None
        )
        assert got == count


def test_width_distribution_small_graphs():
    # frozen from the oracle's first run; internally cross-checked: the
    # width-1 row is the edgeless graph, the width-2 rows equal the cograph
    # counts minus one, the single 4-vertex width-3 graph is P4, and the
    # single 6-vertex width-4 graph is co(C6), the triangular prism
    from collections import Counter

    from cwkit.enumeration import nonisomorphic_graphs

    expected = {
        (1, 1): 1,
        (2, 1): 1, (2, 2): 1,
        (3, 1): 1, (3, 2): 3,
        (4, 1): 1, (4, 2): 9, (4, 3): 1,
        (5, 1): 1, (5, 2): 23, (5, 3): 10,
        (6, 1): 1, (6, 2): 65, (6, 3): 89, (6, 4): 1,
    }
    dist = Counter()
    prism = None
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            value = cliquewidth(g)[0]
            dist[(n, value)] += 1
            if (n, value) == (6, 4):
                prism = g
    assert dict(dist) == expected
    assert is_isomorphic(prism, complement(graph_named("C6")))


@functools.cache
def _sweep_upto_seven() -> list[tuple[Graph, int, str]]:
    """(g, width, witness) for each of the 1,252 frozen graphs with at most 7
    vertices, computed once for the tests that read it."""
    sweep = []
    for g in frozen_graphs():
        k, expr = cliquewidth(g)
        sweep.append((g, k, format_cwexpr(expr)))
    return sweep


def test_width_distribution_seven_vertices():
    # frozen from the oracle's first full sweep; the <=2 row (1+179) equals
    # the published seven-vertex cograph count, and no seven-vertex graph
    # needs a fifth label
    from collections import Counter

    dist = Counter(k for g, k, _ in _sweep_upto_seven() if g.n == 7)
    assert dict(dist) == {1: 1, 2: 179, 3: 810, 4: 54}


def test_witnesses_golden_up_to_seven_vertices():
    # Recorded before the closure of one subset became one flat loop; any
    # change to the states explored, or to the order they are pushed in,
    # changes some witness.
    lines = [f"{k} {witness}" for _, k, witness in _sweep_upto_seven()]
    assert len(lines) == 1252
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "efb9fb2ec0d843463c9697f5b925a7b05d1508c2247f21cefc335c1c413cbe57"


def test_trees_need_at_most_three_labels():
    # published bound: every tree has clique-width at most 3
    from cwkit.enumeration import nonisomorphic_graphs

    trees = [
        g
        for g in nonisomorphic_graphs(8)
        if g.is_connected() and len(g.edges) == g.n - 1
    ]
    assert len(trees) == 23  # published count of 8-vertex trees
    for t in trees:
        ok, _ = cliquewidth_at_most(t, 3)
        assert ok, t


def test_monotone_in_k():
    rng = random.Random(3)
    pool = nonisomorphic_graphs_upto(6)
    for _ in range(25):
        g = rng.choice(pool)
        value, _ = cliquewidth(g)
        for k in range(1, value):
            assert not cliquewidth_at_most(g, k)[0]
        ok, witness = cliquewidth_at_most(g, value + 1)
        assert ok and width(witness) <= value + 1


def test_capacity_and_input_guards():
    with pytest.raises(CapacityError):
        cliquewidth(graph_named("grid(3)"))  # nine vertices over the default cap
    assert cliquewidth(graph_named("C5"), max_vertices=9)[0] == 3
    with pytest.raises(InputError):
        cliquewidth(Graph(0))
    with pytest.raises(InputError):
        cliquewidth_at_most(graph_named("P4"), 0)


def test_search_past_the_state_cap_is_refused(monkeypatch):
    import contextlib
    import io

    from cwkit import cwexact
    from cwkit.cli import run

    g = graph_named("grid(3)")  # prime; its search at 4 labels holds 851 states
    monkeypatch.setattr(cwexact, "STATE_CAP", 851)
    assert cliquewidth(g, max_vertices=9)[0] == 4
    monkeypatch.setattr(cwexact, "STATE_CAP", 850)
    with pytest.raises(CapacityError, match="capped at 850 build states"):
        cliquewidth(g, max_vertices=9)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert run(["cw", "exact", "grid(3)", "--max-n", "9"]) == 3
    assert "Traceback" not in err.getvalue()


def _is_prime(g: Graph) -> bool:
    """No vertex set M with 1 < |M| < n is a module (every vertex outside M
    sees all of M or none of it); brute force over the subsets."""
    for m in range(1, 1 << g.n):
        if 1 < m.bit_count() < g.n and all(
            g.adj[x] & m in (0, m) for x in range(g.n) if not m >> x & 1
        ):
            return False
    return True


def test_witnesses_golden_up_to_six_vertices():
    # Recorded when the search moved onto the prime quotients of the modular
    # decomposition.  A prime graph is searched as itself, so the lines of
    # the 31 prime graphs with 4 to 6 vertices are the ones recorded before
    # that, when the search ran on every connected graph whole; any change to
    # the states explored, or to the order they are pushed in, changes some
    # of them.
    lines, prime = [], []
    for g in frozen_graphs(208):  # the graphs with at most 6 vertices
        k, expr = cliquewidth(g)
        lines.append(f"{k} {format_cwexpr(expr)}")
        if g.n >= 4 and _is_prime(g):
            prime.append(lines[-1])
    assert len(lines) == 208 and len(prime) == 31
    digest = hashlib.sha256("\n".join(prime).encode()).hexdigest()
    assert digest == "c71c94238c5932521ebd72aea0348c02388615910a78fa3715ce5230b604df4e"
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "efa477a4eb802a11b63e6a6bd55f998e3aa9942f3b8e7280bb376151ff2de01a"


def _reference_at_most(g: Graph, k: int) -> bool:
    """Unpruned search for a k-label build of g: joins are separate moves,
    no state is ever dropped, a union may match any number of class pairs,
    and the graph is not split into components.  A state is a sorted tuple
    of classes (vertex bitmasks) and the bitmask of pairs built so far."""
    bit = {}
    for p, (u, v) in enumerate(combinations(range(g.n), 2)):
        bit[u, v] = bit[v, u] = 1 << p
    target = 0
    for u, v in g.edges:
        target |= bit[u, v]

    def cross(a: int, b: int) -> int:
        return sum(bit[u, v] for u in range(g.n) if a >> u & 1 for v in range(g.n) if b >> v & 1)

    full = (1 << g.n) - 1
    reach: dict[int, set] = {}
    for placed in sorted(range(1, full + 1), key=int.bit_count):
        states = set()
        if placed.bit_count() == 1:
            states.add(((placed,), 0))
        low = placed & -placed
        s1 = placed
        while s1 := (s1 - 1) & placed:
            if not s1 & low:
                continue
            for c1, e1 in reach[s1]:
                for c2, e2 in reach[placed ^ s1]:
                    for size in range(max(0, len(c1) + len(c2) - k), min(len(c1), len(c2)) + 1):
                        for picks in combinations(c1, size):
                            for perm in permutations(c2, size):
                                classes = [a | b for a, b in zip(picks, perm)]
                                classes += [c for c in c1 if c not in picks]
                                classes += [c for c in c2 if c not in perm]
                                states.add((tuple(sorted(classes)), e1 | e2))
        queue = list(states)
        while queue:
            classes, built = queue.pop()
            for i, j in combinations(range(len(classes)), 2):
                a, b = classes[i], classes[j]
                rest = [c for t, c in enumerate(classes) if t != i and t != j]
                moves = [(tuple(sorted(rest + [a | b])), built)]  # rename
                if cross(a, b) & ~target == 0:  # join, legal if it adds only edges
                    moves.append((classes, built | cross(a, b)))
                for state in moves:
                    if state not in states:
                        states.add(state)
                        queue.append(state)
        reach[placed] = states
    return any(built == target for _, built in reach[full])


def _reference_width(g: Graph) -> int:
    k = 1
    while not _reference_at_most(g, k):
        k += 1
    return k


def test_oracle_agrees_with_unpruned_reference():
    # every graph up to five vertices; at six vertices the reference takes
    # about 50 s for all 156 graphs, so only the one graph of width 4 (the
    # prism) and two of width 3
    graphs = nonisomorphic_graphs_upto(5)
    graphs += [graph_named(name) for name in ("co(C6)", "C6", "P6")]
    for g in graphs:
        assert _reference_width(g) == cliquewidth(g)[0], g


@pytest.mark.parametrize(
    "name,value",
    [("2000K1", 1), ("500K2", 2), ("co(300K1)", 2)],
)
def test_large_cographs_are_one_tree_level(name, value):
    # a parallel or series node splits all its children off at once, and
    # the tree and its expressions are walked without recursion
    g = graph_named(name)
    k, witness = cliquewidth(g, max_vertices=g.n)
    assert k == value and width(witness) == value


@pytest.mark.parametrize("name", ["P17", "P120"])
def test_large_prime_graph_is_refused(name):
    # a path with four or more vertices is prime: its one quotient is
    # itself, one vertex or more past the table cap
    g = graph_named(name)
    with pytest.raises(CapacityError):
        cliquewidth(g, max_vertices=g.n)
    with pytest.raises(CapacityError):
        cliquewidth_at_most(g, 3, max_vertices=g.n)


def _substituted(outer: Graph, inner: Graph) -> Graph:
    """outer with every vertex replaced by a copy of inner, a module."""
    m = inner.n
    edges = [(a * m + u, a * m + v) for a in range(outer.n) for u, v in inner.edges]
    edges += [(a * m + u, b * m + v) for a, b in outer.edges for u in range(m) for v in range(m)]
    return Graph(outer.n * m, edges)


# The witnesses' sha256 digests were recorded while a second pass still
# substituted each module's expression into its quotient's expression.
@pytest.mark.parametrize(
    "g,value,digest",
    [
        (
            _substituted(graph_named("C5"), graph_named("K4")),
            3,
            "c53e70934010e4394dda148e63088dbed1e411720cc140dd767807f42f8e619a",
        ),
        (graph_named("co(4K5)"), 2, "4ce327ef1cbbce8f276e4fe730529b3fe9874fe5f3fb28fff58ea3aa8ffb5715"),
        (
            _substituted(graph_named("P4"), graph_named("C5")),
            3,
            "e55d91a3c8cf72802dd8b981453f14ab38272f8a680b8b12516725b210b6cd6b",
        ),
    ],
    ids=["C5[K4]", "co(4K5)", "P4[C5]"],
)
def test_twenty_vertex_graphs_with_small_prime_quotients(g, value, digest):
    # cw is the largest width over the decomposition's quotients, so each
    # is decided though the graph is connected and past the table cap
    assert g.n == 20
    k, witness = cliquewidth(g, max_vertices=20)
    assert k == value and width(witness) == value
    assert hashlib.sha256(format_cwexpr(witness).encode()).hexdigest() == digest
    assert not cliquewidth_at_most(g, value - 1, max_vertices=20)[0]


def test_repeated_vertex_names_fall_back_to_numbers():
    # a sum gives every copy its piece's vertex names; the witness names the
    # vertices by number instead, so it still rebuilds the graph
    g = graph_named("2grid(3)")
    assert len({g.name_of(v) for v in range(g.n)}) < g.n
    k, witness = cliquewidth(g, max_vertices=18)
    assert k == 4 and width(witness) == 4
    built = eval_cwexpr(witness).graph
    assert sorted(built.names.values()) == sorted(str(v) for v in range(g.n))
    assert is_isomorphic(built, g)
    ok, witness = cliquewidth_at_most(g, 4, max_vertices=18)
    assert ok and is_isomorphic(eval_cwexpr(witness).graph, g)


def _whole_search_width(g: Graph) -> int:
    tables = _Tables(g)
    k = 1
    while not _Search(tables, k).run():
        k += 1
    return k


def test_decomposition_agrees_with_the_whole_graph_search():
    rng = random.Random(7)
    pairs = list(combinations(range(7), 2))
    graphs = nonisomorphic_graphs_upto(6)
    graphs += [Graph(7, rng.sample(pairs, rng.randint(0, len(pairs)))) for _ in range(150)]
    for g in graphs:
        assert cliquewidth(g)[0] == _whole_search_width(g), g


def test_heredity_and_complement_bounds_up_to_six_vertices():
    # cw(G - v) <= cw(G), and cw(co G) <= 2 cw(G) (Courcelle-Olariu)
    graphs = nonisomorphic_graphs_upto(6)
    value = {canonical_key(g): cliquewidth(g)[0] for g in graphs}
    for g in graphs:
        k = value[canonical_key(g)]
        assert value[canonical_key(complement(g))] <= 2 * k, g
        for v in range(g.n if g.n > 1 else 0):
            smaller = induced_subgraph(g, [u for u in range(g.n) if u != v])
            assert value[canonical_key(smaller)] <= k, (g, v)


def test_heredity_and_complement_bounds_up_to_seven_vertices():
    # as above, over every graph with at most 7 vertices
    value = {canonical_key(g): k for g, k, _ in _sweep_upto_seven()}
    assert len(value) == 1252
    for g, k, _ in _sweep_upto_seven():
        assert value[canonical_key(complement(g))] <= 2 * k, g
        for v in range(g.n if g.n > 1 else 0):
            smaller = induced_subgraph(g, [u for u in range(g.n) if u != v])
            assert value[canonical_key(smaller)] <= k, (g, v)


def _count_work(monkeypatch) -> list[int]:
    """Count ``_Search.run`` calls and ``_Tables`` builds from now on."""
    counts = [0, 0]
    run, build = _Search.run, _Tables.__init__

    def counted_run(self):
        counts[0] += 1
        return run(self)

    def counted_build(self, g):
        counts[1] += 1
        build(self, g)

    monkeypatch.setattr(_Search, "run", counted_run)
    monkeypatch.setattr(_Tables, "__init__", counted_build)
    return counts


# (width, searches, tables) per graph, frozen with the witnesses' digest.
# Each prime quotient is first searched at the largest width needed so far,
# never below 3, so a quotient that needs less than an earlier one is
# searched once, and each quotient's tables are built once.
SEVERAL_PRIME_QUOTIENTS = {
    "co(C6)+P4": (4, 3, 2),
    "P4+co(C6)": (4, 3, 2),
    "C5+co(C6)+P4": (4, 4, 3),
    "P4+P4+co(C6)+P4": (4, 5, 4),
    "co(C6)+C8": (4, 3, 2),
}


def test_several_prime_quotients(monkeypatch):
    counts = _count_work(monkeypatch)
    lines = []
    for name, expected in SEVERAL_PRIME_QUOTIENTS.items():
        g = graph_named(name)
        counts[:] = [0, 0]
        k, expr = cliquewidth(g, max_vertices=g.n)
        assert (k, *counts) == expected, name
        lines.append(f"{k} {format_cwexpr(expr)}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "d561edf708b437b4f091e96983bb4c13dae709f2738674cb99139b0688a9ebbf"


@pytest.mark.parametrize("k,ok,searches,tables", [(2, False, 0, 0), (3, False, 1, 1), (4, True, 2, 2), (5, True, 2, 2)])
def test_budget_reaches_each_prime_quotient_once(monkeypatch, k, ok, searches, tables):
    # co(C6) needs 4 labels and C8 needs 4: below 3 no quotient is searched,
    # and at 3 the first failing quotient ends the decision
    counts = _count_work(monkeypatch)
    g = graph_named("co(C6)+C8")
    assert cliquewidth_at_most(g, k, max_vertices=g.n)[0] == ok
    assert counts == [searches, tables]
