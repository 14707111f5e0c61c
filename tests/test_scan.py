import contextlib
import hashlib
import io
import json
import random
from itertools import permutations

import pytest

from cwkit.classifier import PAIR_RULES, PAIR_TABLE, Status, classify_pair, cw_facts, fire, pair_sides
from cwkit.cli import run
from cwkit.enumeration import _level, nonisomorphic_graphs, nonisomorphic_graphs_upto
from cwkit.errors import CapacityError
from cwkit.graphs import Graph, complement
from cwkit.isomorphism import canonical_key, graph_of_key
from cwkit.names import graph_named
from cwkit.patterns import has_induced
from cwkit.scan import PHASES, _catalogue, _class_pairs, _id_pairs, _level_sides
from cwkit.scan import _code_trie, _profiles, scan_pairs


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


def _kernel_fired(cat):
    """fired(i, j): the shared pair kernel, exactly as classify_pair runs it,
    on each graph's own rule sides (not the catalogue's orbit sides)."""
    graphs = [graph_of_key(key) for key in cat.keys]
    raw = [pair_sides(g, graphs[cat.co[i]]) for i, g in enumerate(graphs)]
    return lambda i, j: fire(cat.pair_class(i, j), raw.__getitem__)[0]


def test_row_kernel_matches_pair_kernel():
    # every unordered pair of graphs with at most 6 vertices, the pairs of
    # K3, the paw and their complements included, lies in exactly one pair
    # of signature classes, whose fired rules are the pair kernel's
    cat = _catalogue(6, {})
    k3, paw = (cat.keys.index(canonical_key(graph_named(name))) for name in ("K3", "paw"))
    assert cat.partner == {k3: paw, paw: k3}
    fired = _kernel_fired(cat)
    seen = set()
    weights = 0
    for ids, group, got, weight in _class_pairs(cat):
        pairs = [pair for other in group for pair in _id_pairs(ids, other)]
        assert len(pairs) == weight
        weights += weight
        for i, j in pairs:
            assert i <= j and (i, j) not in seen, (i, j)
            seen.add((i, j))
            assert got == fired(i, j), (i, j)
    n = len(cat.keys)
    assert seen == {(i, j) for i in range(n) for j in range(i, n)}
    assert len(seen) == weights == scan_pairs(6).pair_count == 21736


def _checked_ids(n: int) -> range | list[int]:
    # every graph up to 7 vertices, a seeded sample of the 12,346 at 8
    count = len(_level(n))
    return range(count) if n <= 7 else sorted(random.Random(8).sample(range(count), 600))


@pytest.mark.parametrize("n", range(1, 9))
def test_level_profiles_match_the_search(n):
    # the scan reads its >=X tokens off the level profiles; each bit must be
    # the induced-subgraph search's answer, and the rule sides built on them
    # must be cw_facts
    names = PAIR_TABLE.patterns
    assert len(names) == 15
    patterns = [graph_named(name) for name in names]
    keys = _level(n)
    profiles = _profiles(keys, n)
    sides = _level_sides(n)
    for i in _checked_ids(n):
        g = graph_of_key(keys[i])
        assert [profile >> i & 1 for profile in profiles] == [has_induced(g, x) for x in patterns], keys[i]
        assert sides[i] == cw_facts(g), keys[i]


def _key_of(g: Graph) -> tuple:
    # g's own labelling in the (n, rows) form graph_of_key reads
    return (g.n, tuple(sum(1 << (v - 1 - u) for u in range(v) if g.adj[v] >> u & 1) for v in range(g.n)))


def test_profiles_find_every_labelling_of_every_pattern():
    # canonical keys show only some labellings of a pattern, and a labelled
    # copy of X on |X| vertices is found only through its own code, so every
    # code of the trie is checked here
    patterns = [graph_named(name) for name in PAIR_TABLE.patterns]
    for x in patterns:
        copies = {Graph(x.n, [(p[u], p[v]) for u, v in x.edges]) for p in permutations(range(x.n))}
        copies = sorted(copies, key=lambda g: sorted(g.edges))
        profiles = _profiles([_key_of(g) for g in copies], x.n)
        for i, g in enumerate(copies):
            assert graph_of_key(_key_of(g)) == g
            assert [profile >> i & 1 for profile in profiles] == [has_induced(g, y) for y in patterns], g


def _permutation_trie() -> list:
    # the trie of the codes of all n! labellings of every pattern, one
    # permutation at a time, in the node form of _code_trie
    root = [None, None, 0]
    for p, name in enumerate(PAIR_TABLE.patterns):
        x = graph_named(name)
        for perm in permutations(range(x.n)):
            node = root
            for b in range(1, x.n):
                for a in range(b):
                    bit = x.adj[perm[a]] >> perm[b] & 1
                    if node[bit] is None:
                        node[bit] = [None, None, 0]
                    node = node[bit]
            node[2] |= 1 << p
    return root


def _trie_nodes(node: list, code: str = ""):
    # (code, pattern bits) of every node, depth first, non-edge child first
    yield code, node[2]
    for bit in (0, 1):
        if node[bit] is not None:
            yield from _trie_nodes(node[bit], code + str(bit))


def test_code_trie_is_the_permutation_trie():
    # the twin cut places fewer labellings but must build the same trie:
    # the same nodes, naming the same patterns
    root, top = _code_trie()
    nodes = list(_trie_nodes(_permutation_trie()))
    assert list(_trie_nodes(root)) == nodes
    assert len(nodes) == 3701
    assert sum(1 for _, bits in nodes if bits) == 971
    assert top == max(graph_named(name).n for name in PAIR_TABLE.patterns) == 6


def test_catalogue_sides_are_the_pair_sides():
    # outside the K3/paw and 3P1/P1+P3 orbits a graph's catalogue sides are
    # pair_sides(g, co g); inside, the orbit's ORed sides
    cat = _catalogue(8, {})
    orbits = {}
    for a, b in cat.partner.items():
        orbits[a], orbits[cat.co[a]] = (a, b), (cat.co[a], cat.co[b])
    offset = 0
    for n in range(1, 9):
        for i in _checked_ids(n):
            i += offset
            g = graph_of_key(cat.keys[i])
            assert canonical_key(complement(g)) == cat.keys[cat.co[i]]
            left = right = 0
            for j in orbits.get(i, (i,)):
                h = graph_of_key(cat.keys[j])
                sides = pair_sides(h, complement(h))
                left, right = left | sides[0], right | sides[1]
            assert cat.sides[i] == (left, right), cat.keys[i]
        offset += len(_level(n))
    assert offset == len(cat.keys)


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
    kernel = _kernel_fired(cat)
    want = {rule.rule_id: 0 for rule in PAIR_RULES}
    for i in range(len(cat.keys)):
        for j in range(i, len(cat.keys)):
            fired = kernel(i, j)
            for r, rule in enumerate(PAIR_RULES):
                want[rule.rule_id] += fired >> r & 1
    assert doc["rule_fires"] == want


# sha256 of scan_pairs(m).report() and of as_dict() without phase_seconds,
# dumped with sorted keys; recorded from the row-at-a-time kernel, before the
# Open rows, so their rule_fires keys are dropped (they are pinned below)
SCAN_GOLDEN = {
    0: ("ff3d89a1980be49639ebdf49282a3ca6152a57752a088269b737e8e6e1986759",
        "73d0932514ed823bdd8bd8345f3ddc60e4dcec50ae2731bb660b9d254974f851"),
    1: ("717bfb4b01d5d0d341c100b00870be991090e446ebcdbc50b639edd1b0fa2e97",
        "64980a1e35b5fdad4857cfd620e3d2659585830f1d6b551288e4d5a62b2430a8"),
    2: ("caa0f43702b2a56f41904c40b68a487f6b9e1a5396089eac591e291eab0fd213",
        "6b4e7fb8c164c5a8f16a1646213bc83c49b20fe7f0de38bde59d145f207edc50"),
    3: ("8f3a62eaa04d49e9fe14bf26e86dc846583d4a123374933114dec1ae2a947e11",
        "63cd152393ecedd0db8a7783aa57b75f0e6bab9e6b25f3b4f46800f6a77c7d8f"),
    4: ("372b3234e54a9f3f795bf5ed69d269b29c5a96a13fd83af7bfe88d9ed89c296c",
        "4029903ac8515280967855612860f847fe39a058b563a6667d09764bb2ad4eca"),
    5: ("2d93d4312fff6fb700c26ec7eb1776788dec57764429f646ce22fd976e12e5a9",
        "d71a7afb82b4a535b9c25f91f97286fe0a9ff2b9711faf05c0d7eced03fa7fab"),
    6: ("7e70bc6f077fb4dd4518e57d4b351c63c4516add8af1f44211e633237ad22859",
        "bd47b4ec868dad3cc8b9280a98a80318f6ebb1e5297ed54c7764631b910d01ba"),
    7: ("ddcbb6197173e1fd6047e9a4114c5a49187cb142b6c33fffe886bb359f6453b3",
        "0341b2662221f352089d5a22080893aff62a2317e019f144d857e0fba36e8c12"),
}


@pytest.mark.parametrize("m", sorted(SCAN_GOLDEN))
def test_scan_output_golden(m):
    # the whole report and every JSON field but the timings, rule_fires included
    result = scan_pairs(m)
    doc = result.as_dict()
    del doc["phase_seconds"]
    doc["rule_fires"] = {rule: n for rule, n in doc["rule_fires"].items() if not rule.startswith("OPEN")}
    got = (
        hashlib.sha256(result.report().encode()).hexdigest(),
        hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest(),
    )
    assert got == SCAN_GOLDEN[m]


OPEN_FIRES = {
    5: {"OPEN1.2": 4, "OPEN2.2": 2, "OPEN3.1": 2, "OPEN3.2": 2, "OPEN4": 1},
    # every case graph has at most 7 vertices, so these are the counts at 8 and 9 too
    7: {
        **{f"OPEN1.{t}": 4 for t in range(1, 8)},
        "OPEN2.1": 2, "OPEN2.2": 2, "OPEN2.3": 2, "OPEN3.1": 2, "OPEN3.2": 2, "OPEN4": 1,
    },
}


@pytest.mark.parametrize("m", sorted(OPEN_FIRES))
def test_scan_open_counts_are_the_open_rows_fires(m):
    # each open pair fires exactly one Open row, so the rows' fire counts
    # sum to the Open count
    result = scan_pairs(m)
    fires = {rule: n for rule, n in result.rule_fires.items() if rule.startswith("OPEN") and n}
    assert fires == OPEN_FIRES[m]
    assert sum(fires.values()) == result.counts["Open"]


def test_scan_default_output_is_the_report():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["scan", "--max-vertices", "5"]) == 0
    assert out.getvalue() == scan_pairs(5).report() + "\n"


def test_scan_past_the_enumeration_cap_builds_no_level():
    # the cap is checked before any level below it is enumerated
    before = _level.cache_info()
    with pytest.raises(CapacityError, match="at most 9 vertices, got 10"):
        scan_pairs(10)
    with pytest.raises(CapacityError, match="at most 9 vertices, got 10"):
        nonisomorphic_graphs(10)
    assert _level.cache_info() == before


def test_class_pair_and_kernel_disagreement_is_a_conflict(monkeypatch):
    # the class pairs claim no rule fires anywhere; the kernel re-fires
    # every pair, and each pair where it fires a rule is a conflict, not a
    # silently recounted verdict
    real = _class_pairs

    def nothing_fires(cat):
        for ids, group, _, weight in real(cat):
            yield ids, group, 0, weight

    monkeypatch.setattr("cwkit.scan._class_pairs", nothing_fires)
    result = scan_pairs(3)
    assert result.conflicts
    assert all("the pair kernel fires" in c for c in result.conflicts)
    assert result.counts["Bounded"] == result.counts["Unbounded"] == 0
