"""Exhaustive classification scan over all small forbidden pairs.

Enumerates the canonical keys of the non-isomorphic graphs up to a vertex
budget, decides each graph's rule sides once, and then classifies every
unordered pair of graph ids.  The sides are ``cw_facts``'s, from the
classifier's one evaluator, ``decide_sides``: the scan decides the pair
table's ``>=X`` patterns for all graphs of one order at once (the level
profiles below) and passes each graph's profile to it.  A graph is built
from its key only for that call and to name an open pair or a conflict; no
list of graphs is kept.  Each graph's complement id comes with the
enumeration, which builds the dense half of each level as the complements
of its sparse half.  The scan doubles as the consistency harness: it
reports any pair on which a bounded rule and an unbounded rule both fire,
and any pair that neither matches a rule nor is equivalent to a listed open
case.

A pair's class is closed under complementing both graphs and under swapping
K3 with the paw at either position.  The swap acts on one position at a
time, and so does its conjugate by complementation (3P1 with P1+P3), so the
class of (i, j) is

    orbit(i) x orbit(j)  united with  orbit(co i) x orbit(co j),

where orbit(K3) = {K3, paw}, orbit(3P1) = {3P1, P1+P3} and every other
orbit is {i}.  Over a product of orbits, some member fires rule r exactly
when some member of the first orbit has r's left side and some member of
the second its right side.  So with each graph's rule sides ORed over its
orbit (its orbit sides), rule r fires on the class of (i, j) exactly when

    L_r(i) R_r(j)  or  L_r(j) R_r(i)  or  L_r(co i) R_r(co j)  or  L_r(co j) R_r(co i).

So a pair's fired rules depend only on each graph's signature: its orbit
sides followed by its complement's.  The graphs fall into far fewer
signature classes than there are graphs (683 classes for the 13,598 graphs
with at most 8 vertices), and for classes A and B with signatures
(lA, rA, lcA, rcA) and (lB, rB, lcB, rcB) every pair across them fires

    lA & rB  |  lB & rA  |  lcA & rcB  |  lcB & rcA.

Each unordered pair of classes stands for |A|·|B| unordered pairs of graph
ids, or s(s+1)/2 when a class of size s is paired with itself; these
weights, summed per fired bitmask into one histogram, give the Bounded and
Unbounded counts and every rule's fire count.  Only where no rule fires
(the open-case lookup) or both statuses fire (the conflicts) are a class
pair's graph-id pairs listed; sorted, they go through the shared pair kernel
``classify_pair`` uses (``pair_class``, ``fire`` and ``open_case``).  Over a
whole class ``fire`` gives the same bits with orbit sides as with a graph's
own.  Every open line and every conflict therefore comes from that kernel,
and the class pairs only count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from time import perf_counter
from typing import Iterator, NamedTuple, Sequence

from .classifier import BOUNDED_BITS, PAIR_RULES, PAIR_TABLE, UNBOUNDED_BITS, Status, decide_sides, display_name
from .classifier import _pattern, fire, open_case, pair_class
from .enumeration import _complement_ids, _level, canonical_keys_upto
from .isomorphism import canonical_key, graph_of_key
from .names import graph_named

__all__ = ["ScanResult", "scan_pairs"]

PHASES = ("enumerate", "keys", "sides", "kernel", "fallback")


@dataclass
class ScanResult:
    max_vertices: int
    pair_count: int
    counts: dict[str, int]
    open_pairs: list[tuple[str, str, str]]  # (name1, name2, case id)
    conflicts: list[str] = field(default_factory=list)
    rule_fires: dict[str, int] = field(default_factory=dict)  # unordered pairs firing each rule
    phase_seconds: dict[str, float] = field(default_factory=dict)

    def report(self) -> str:
        lines = [
            f"scanned unordered pairs over graphs with <= {self.max_vertices} vertices: {self.pair_count}"
        ]
        for status in (Status.BOUNDED, Status.UNBOUNDED, Status.OPEN):
            lines.append(f"  {status.value}: {self.counts.get(status.value, 0)}")
        lines.append(f"  open pairs ({len(self.open_pairs)}):")
        for n1, n2, case in self.open_pairs:
            lines.append(f"    ({n1}, {n2})  case {case}")
        for c in self.conflicts:
            lines.append(f"  CONFLICT: {c}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "max_vertices": self.max_vertices,
            "pairs": self.pair_count,
            "counts": self.counts,
            "open_pairs": [{"h1": n1, "h2": n2, "case": case} for n1, n2, case in self.open_pairs],
            "conflicts": self.conflicts,
            "rule_fires": self.rule_fires,
            "phase_seconds": self.phase_seconds,
        }


class _Catalogue(NamedTuple):
    """The scanned graphs by id, with what the pair kernel reads per id; a
    graph is built from its key only where it is needed."""

    keys: list[tuple]
    co: list[int]  # id of the complement
    sides: list[tuple[int, int]]  # orbit sides, complement's facts included
    partner: dict[int, int]  # K3 <-> paw, when both are in range

    def pair_class(self, i: int, j: int) -> list[tuple[int, int]]:
        # ids are their own keys
        return pair_class(i, j, int, self.co.__getitem__, self.partner.get)


def _class_pairs(cat: _Catalogue) -> Iterator[tuple[list[int], list[list[int]], int, int]]:
    """Per signature class A, the classes B (A itself, then the later ones)
    grouped by the rules f fired on every pair across A and B; per group,
    A's ids, the group's id lists, f and the group's unordered pairs."""
    classes: dict[tuple[int, int, int, int], list[int]] = {}
    for i, c in enumerate(cat.co):
        classes.setdefault(cat.sides[i] + cat.sides[c], []).append(i)
    sigs = list(classes.items())
    for a, ((la, ra, lca, rca), ids) in enumerate(sigs):
        by_fired: dict[int, list[list[int]]] = {}
        for (lb, rb, lcb, rcb), other in sigs[a:]:
            by_fired.setdefault(la & rb | lb & ra | lca & rcb | lcb & rca, []).append(other)
        s = len(ids)
        for fired, group in by_fired.items():
            # A with itself, first in its group, has s(s+1)/2 pairs, not s*s
            weight = s * sum(map(len, group)) - (s * (s - 1) // 2 if group[0] is ids else 0)
            yield ids, group, fired, weight


def _id_pairs(ids: list[int], other: list[int]) -> list[tuple[int, int]]:
    """The unordered pairs (i, j), i <= j, with one id from each list; a
    class paired with itself is passed as the same list twice."""
    return [(min(i, j), max(i, j)) for i in ids for j in other if ids is not other or i <= j]


# -- level profiles ---------------------------------------------------------
#
# The scan decides the pair table's >=X tokens for all graphs of one order at
# once.  Graph i of a level is bit i of a Python int: a level's plane for the
# vertex pair (u, v) has bit i set when graph i has the edge uv, and its
# profile for pattern X has bit i set when graph i contains X induced.
#
# A labelled graph on vertices 0..k-1 has the edge code
# e(0,1) e(0,2) e(1,2) e(0,3) ... e(k-2,k-1): the adjacency of each vertex to
# the earlier ones, in turn.  So the code of a graph on k+1 vertices extends
# the code of its first k.  A trie holds the codes of every labelling of every
# pattern; a node whose code is a whole labelled pattern names it.  The walk
# grows each vertex subset in increasing order, one vertex (and one row of
# edges) at a time, carrying the mask of the graphs whose induced labelled
# subgraph on the subset is the node's code: the edge bit splits a mask into
# mask & plane and the rest, and a branch stops when its mask is 0 or the
# trie has no child.  A node that names X ORs its mask into X's profile.  The
# subsets of a graph with an induced X include one that induces it in the
# order of some labelling of X, so the profile is exactly has_induced(g, X).


@lru_cache(maxsize=None)
def _code_trie() -> tuple[list, int]:
    """(root, the patterns' largest order).  A node is [child on a non-edge,
    child on an edge, the profile bits of the patterns its code names]."""
    root: list = [None, None, 0]
    top = 0
    for p, name in enumerate(PAIR_TABLE.patterns):
        x = _pattern(name)
        top = max(top, x.n)
        for perm in permutations(range(x.n)):
            node = root
            for b in range(1, x.n):
                for a in range(b):
                    bit = x.adj[perm[a]] >> perm[b] & 1
                    if node[bit] is None:
                        node[bit] = [None, None, 0]
                    node = node[bit]
            node[2] |= 1 << p
    return root, top


def _planes(keys: Sequence[tuple], n: int) -> list[list[int]]:
    """planes[v][u], u < v: the plane of the n-vertex graphs ``keys`` for the
    vertex pair (u, v).

    A key's rows, written out in order, are its edge code (vertex 0 in each
    row's highest bit), so the codes of all graphs, joined, are read one
    vertex pair at a time by striding over the text."""
    width = n * (n - 1) // 2
    codes = []
    for key in keys:
        code = 0
        for v, row in enumerate(key[1]):
            code = code << v | row
        codes.append(code)
    text = "".join([format(code, f"0{width}b") for code in codes])
    # reversed, so that graph i is bit i of the plane
    return [[int(text[v * (v - 1) // 2 + u :: width][::-1], 2) for u in range(v)] for v in range(n)]


def _profiles(keys: Sequence[tuple], n: int) -> list[int]:
    """Per pattern of ``PAIR_TABLE``, the bits of the n-vertex graphs that
    contain it induced; graph i is given as ``keys[i]``, in the form ``graph_of_key``
    reads."""
    profiles = [0] * len(PAIR_TABLE.patterns)
    if n < 3:  # no pattern has fewer than three vertices
        return profiles
    root, top = _code_trie()
    rows = _planes(keys, n)

    def grow(node: list, mask: int, chosen: tuple[int, ...]) -> None:
        hits = node[2]
        while hits:
            low = hits & -hits
            profiles[low.bit_length() - 1] |= mask
            hits ^= low
        if len(chosen) < top:
            for v in range(chosen[-1] + 1 if chosen else 0, n):
                join(node, mask, chosen + (v,), rows[v], 0)

    def join(node: list, mask: int, chosen: tuple[int, ...], row: list[int], a: int) -> None:
        # the edge between chosen[a] and the new vertex, the last one chosen
        if a == len(chosen) - 1:
            grow(node, mask, chosen)
            return
        off, on, _ = node
        present = mask & row[chosen[a]]
        if on is not None and present:
            join(on, present, chosen, row, a + 1)
        if off is not None and mask != present:
            join(off, mask ^ present, chosen, row, a + 1)

    grow(root, (1 << len(keys)) - 1, ())
    return profiles


def _level_sides(n: int) -> list[tuple[int, int, int, int]]:
    """``cw_facts`` of each graph of ``_level(n)``, in its order, with the
    >=X tokens read off the level profiles."""
    keys = _level(n)
    # one int per graph, bit p for pattern p
    texts = [format(profile, f"0{len(keys)}b") for profile in reversed(_profiles(keys, n))]
    profiles = [int("".join(bits), 2) for bits in zip(*texts)][::-1]
    return [decide_sides(PAIR_TABLE, graph_of_key(key), profile) for key, profile in zip(keys, profiles)]


def _catalogue(max_vertices: int, clock: dict[str, float]) -> _Catalogue:
    t = perf_counter()
    keys = canonical_keys_upto(max_vertices)
    clock["enumerate"] = perf_counter() - t
    t = perf_counter()
    # the enumeration records each graph's complement within its level
    co: list[int] = []
    for n in range(1, max_vertices + 1):
        offset = len(co)
        co += [offset + c for c in _complement_ids(n)]

    def id_of(name: str) -> int | None:
        key = canonical_key(graph_named(name))
        return keys.index(key) if key[0] <= max_vertices else None

    # K3 and the paw swap only when both are in range.
    k3, paw = id_of("K3"), id_of("paw")
    partner = {k3: paw, paw: k3} if k3 is not None and paw is not None else {}
    clock["keys"] = perf_counter() - t
    t = perf_counter()
    facts: list[tuple[int, int, int, int]] = []
    for n in range(1, max_vertices + 1):
        facts += _level_sides(n)
    # pair_sides: the graph's own sides and its complement's dual ones
    sides = [(f[0] | facts[c][2], f[1] | facts[c][3]) for f, c in zip(facts, co)]
    # orbit sides: each orbit's two members share their ORed sides
    for a, b in ((k3, paw), (co[k3], co[paw])) if partner else ():
        sides[a] = sides[b] = (sides[a][0] | sides[b][0], sides[a][1] | sides[b][1])
    clock["sides"] = perf_counter() - t
    return _Catalogue(keys, co, sides, partner)


def scan_pairs(max_vertices: int = 7) -> ScanResult:
    """Classify every unordered pair of non-isomorphic graphs, exhaustively."""
    clock: dict[str, float] = {}
    cat = _catalogue(max_vertices, clock)

    def name(i: int) -> str:
        return display_name(graph_of_key(cat.keys[i]))

    counts = {s.value: 0 for s in (Status.BOUNDED, Status.UNBOUNDED, Status.OPEN)}
    open_pairs: list[tuple[str, str, str]] = []
    conflicts: list[str] = []
    t = perf_counter()
    weights: dict[int, int] = {}  # fired rules -> unordered pairs of graph ids
    undecided: list[tuple[int, int]] = []
    for ids, group, fired, weight in _class_pairs(cat):
        weights[fired] = weights.get(fired, 0) + weight
        if not fired or fired & BOUNDED_BITS and fired & UNBOUNDED_BITS:
            undecided += [pair for other in group for pair in _id_pairs(ids, other)]
    for fired, weight in weights.items():
        bounded, unbounded = fired & BOUNDED_BITS, fired & UNBOUNDED_BITS
        if bounded and not unbounded:
            counts[Status.BOUNDED.value] += weight
        elif unbounded and not bounded:
            counts[Status.UNBOUNDED.value] += weight
    rule_fires = {
        rule.rule_id: sum(w for fired, w in weights.items() if fired >> r & 1) for r, rule in enumerate(PAIR_RULES)
    }
    clock["kernel"] = perf_counter() - t
    t = perf_counter()
    for i, j in sorted(undecided):
        members = cat.pair_class(i, j)
        fired, _ = fire(members, cat.sides.__getitem__)
        if fired & BOUNDED_BITS and fired & UNBOUNDED_BITS:
            conflicts.append(f"bounded and unbounded rules both fire on ({name(i)}, {name(j)})")
        elif fired:
            counts[(Status.BOUNDED if fired & BOUNDED_BITS else Status.UNBOUNDED).value] += 1
        elif case := open_case(members, cat.keys.__getitem__):
            counts[Status.OPEN.value] += 1
            open_pairs.append((name(i), name(j), case[0]))
        else:
            conflicts.append(f"no rule and no open case matches ({name(i)}, {name(j)})")
    clock["fallback"] = perf_counter() - t
    conflicts.sort()
    total = len(cat.keys) * (len(cat.keys) + 1) // 2
    phases = {phase: clock[phase] for phase in PHASES}
    return ScanResult(max_vertices, total, counts, open_pairs, conflicts, rule_fires, phases)
