"""Exhaustive classification scan over all small forbidden pairs.

Enumerates the non-isomorphic graphs up to a vertex budget, compiles each
graph's rule sides once, and then classifies every unordered pair of graph
ids.  The scan doubles as the consistency harness: it reports any pair on
which a bounded rule and an unbounded rule both fire, and any pair that
neither matches a rule nor is equivalent to a listed open case.

The pairs are decided a row at a time.  Let T hold K3, the paw and their
complements.  A pair (i, j) with neither graph in T has the class
{(i, j), (co i, co j)}, so rule r fires on it exactly when

    L_r(i) R_r(j)  or  L_r(j) R_r(i)  or  L_r(co i) R_r(co j)  or  L_r(co j) R_r(co i),

where L_r and R_r say that the rule's left and right sides hold.  With four
bitsets over graph ids per rule (own left, own right, complement's left,
complement's right), the ids j whose pair with i fires r are the OR of at
most four of them, chosen by i's own and its complement's sides.  The pairs
touching T, whose class also swaps K3 with the paw, take their fired rules
from the shared pair kernel ``classify_pair`` uses (``pair_class`` and
``fire``); so do the pairs on which no rule fires (the open-case lookup) and
those on which both statuses fire (the conflicts).  Every open line and
every conflict therefore comes from that kernel, and the row sets only
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator, NamedTuple

from .classifier import BOUNDED_BITS, PAIR_RULES, UNBOUNDED_BITS, Status, display_name
from .classifier import fire, open_case, pair_class, pair_facts, rule_sides
from .enumeration import nonisomorphic_graphs_upto
from .graphs import Graph, complement
from .isomorphism import canonical_key
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
    """The scanned graphs by id, with what the pair kernel reads per id."""

    graphs: list[Graph]
    keys: list[tuple]
    co: list[int]  # id of the complement
    sides: list[tuple[int, int]]  # rule sides, complement's facts included
    partner: dict[int, int]  # K3 <-> paw, when both are in range
    special: frozenset[int]  # T: K3, the paw and their complements

    def pair_class(self, i: int, j: int) -> list[tuple[int, int]]:
        # ids are their own keys
        return pair_class(i, j, int, self.co.__getitem__, self.partner.get)

    def fire(self, i: int, j: int) -> int:
        return fire(self.pair_class(i, j), self.sides.__getitem__)[0]


def _bitset(ids, n: int) -> int:
    """The int with bit j set for every j in ids, all below n."""
    buf = bytearray(n // 8 + 1)
    for j in ids:
        buf[j >> 3] |= 1 << (j & 7)
    return int.from_bytes(buf, "little")


def _columns(cat: _Catalogue) -> list[tuple[int, int, int, int]]:
    """Per rule, the ids whose own left side, own right side, complement's
    left side and complement's right side hold."""
    n = len(cat.graphs)
    out = []
    for r in range(len(PAIR_RULES)):
        left = [j for j, (lj, _) in enumerate(cat.sides) if lj >> r & 1]
        right = [j for j, (_, rj) in enumerate(cat.sides) if rj >> r & 1]
        co_left = [j for j, c in enumerate(cat.co) if cat.sides[c][0] >> r & 1]
        co_right = [j for j, c in enumerate(cat.co) if cat.sides[c][1] >> r & 1]
        out.append((_bitset(left, n), _bitset(right, n), _bitset(co_left, n), _bitset(co_right, n)))
    return out


def _special_rows(cat: _Catalogue) -> dict[int, list[int]]:
    """Per row i, per rule, the ids j >= i with i or j in T whose pair fires
    the rule, from the shared pair kernel."""
    hits: dict[int, list[list[int]]] = {}
    n = len(cat.graphs)
    for i in range(n):
        for j in range(i, n) if i in cat.special else sorted(t for t in cat.special if t >= i):
            fired = cat.fire(i, j)
            row = hits.setdefault(i, [[] for _ in PAIR_RULES])
            while fired:
                low = fired & -fired
                row[low.bit_length() - 1].append(j)
                fired ^= low
    return {i: [_bitset(js, n) for js in row] for i, row in hits.items()}


def _fired_rows(cat: _Catalogue, special: dict[int, list[int]]) -> Iterator[tuple[int, list[int]]]:
    """Per row i, per rule r, the bitset of ids j >= i whose pair with i
    fires r: the row identity off T, ``special`` (``_special_rows``) on it."""
    cols = _columns(cat)
    n = len(cat.graphs)
    plain = ((1 << n) - 1) & ~_bitset(cat.special, n)
    for i in range(n):
        if i in cat.special:
            yield i, special[i]
            continue
        li, ri = cat.sides[i]
        lc, rc = cat.sides[cat.co[i]]
        above = plain >> i << i
        extra = special.get(i)
        sets = []
        for r, (own_l, own_r, co_l, co_r) in enumerate(cols):
            s = 0
            if li >> r & 1:
                s |= own_r
            if ri >> r & 1:
                s |= own_l
            if lc >> r & 1:
                s |= co_r
            if rc >> r & 1:
                s |= co_l
            s &= above
            if extra:
                s |= extra[r]
            sets.append(s)
        yield i, sets


def _catalogue(max_vertices: int, clock: dict[str, float]) -> _Catalogue:
    t = perf_counter()
    graphs = nonisomorphic_graphs_upto(max_vertices)
    clock["enumerate"] = perf_counter() - t
    t = perf_counter()
    keys = [canonical_key(g) for g in graphs]
    ids = {k: i for i, k in enumerate(keys)}
    co = [ids[canonical_key(complement(g))] for g in graphs]
    # K3 and the paw swap only when both are in range.
    k3 = ids.get(canonical_key(graph_named("K3")))
    paw = ids.get(canonical_key(graph_named("paw")))
    partner = {k3: paw, paw: k3} if k3 is not None and paw is not None else {}
    clock["keys"] = perf_counter() - t
    t = perf_counter()
    sides = [rule_sides(PAIR_RULES, pair_facts(g, graphs[co[i]])) for i, g in enumerate(graphs)]
    clock["sides"] = perf_counter() - t
    special = frozenset(partner) | {co[x] for x in partner}
    return _Catalogue(graphs, keys, co, sides, partner, special)


def scan_pairs(max_vertices: int = 7) -> ScanResult:
    """Classify every unordered pair of non-isomorphic graphs, exhaustively."""
    clock: dict[str, float] = {}
    cat = _catalogue(max_vertices, clock)
    graphs = cat.graphs

    def where(i: int, j: int) -> str:
        return f"({display_name(graphs[i])}, {display_name(graphs[j])})"

    counts = {s.value: 0 for s in (Status.BOUNDED, Status.UNBOUNDED, Status.OPEN)}
    open_pairs: list[tuple[str, str, str]] = []
    conflicts: list[str] = []
    fires = [0] * len(PAIR_RULES)
    t = perf_counter()
    special = _special_rows(cat)
    clock["fallback"] = perf_counter() - t
    t = perf_counter()
    in_rows = 0.0  # fallback time spent inside the row loop
    everything = (1 << len(graphs)) - 1
    for i, sets in _fired_rows(cat, special):
        bounded = unbounded = 0
        for r, s in enumerate(sets):
            if s:
                fires[r] += s.bit_count()
                if BOUNDED_BITS >> r & 1:
                    bounded |= s
                else:
                    unbounded |= s
        both = bounded & unbounded
        counts[Status.BOUNDED.value] += (bounded ^ both).bit_count()
        counts[Status.UNBOUNDED.value] += (unbounded ^ both).bit_count()
        rest = (everything >> i << i) & ~(bounded | unbounded) | both
        if not rest:
            continue
        t_rest = perf_counter()
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            rest ^= low
            members = cat.pair_class(i, j)
            fired, _ = fire(members, cat.sides.__getitem__)
            if fired & BOUNDED_BITS and fired & UNBOUNDED_BITS:
                conflicts.append(f"bounded and unbounded rules both fire on {where(i, j)}")
            elif fired:
                counts[(Status.BOUNDED if fired & BOUNDED_BITS else Status.UNBOUNDED).value] += 1
            elif case := open_case(members, cat.keys.__getitem__):
                counts[Status.OPEN.value] += 1
                open_pairs.append((display_name(graphs[i]), display_name(graphs[j]), case[0]))
            else:
                conflicts.append(f"no rule and no open case matches {where(i, j)}")
        in_rows += perf_counter() - t_rest
    clock["kernel"] = perf_counter() - t - in_rows
    clock["fallback"] += in_rows
    conflicts.sort()
    total = len(graphs) * (len(graphs) + 1) // 2
    rule_fires = {rule.rule_id: fires[r] for r, rule in enumerate(PAIR_RULES)}
    phases = {phase: clock[phase] for phase in PHASES}
    return ScanResult(max_vertices, total, counts, open_pairs, conflicts, rule_fires, phases)
