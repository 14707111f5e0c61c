"""Exhaustive classification scan over all small forbidden pairs.

Enumerates the non-isomorphic graphs up to a vertex budget, compiles each
graph's rule sides once, and then classifies every unordered pair of graph
ids.  The scan doubles as the consistency harness: it reports any pair on
which a bounded rule and an unbounded rule both fire, and any pair that
neither matches a rule nor is equivalent to a listed open case.

The pairs are decided a row at a time.  A pair's class is closed under
complementing both graphs and under swapping K3 with the paw at either
position.  The swap acts on one position at a time, and so does its
conjugate by complementation (3P1 with P1+P3), so the class of (i, j) is

    orbit(i) x orbit(j)  united with  orbit(co i) x orbit(co j),

where orbit(K3) = {K3, paw}, orbit(3P1) = {3P1, P1+P3} and every other
orbit is {i}.  Over a product of orbits, some member fires rule r exactly
when some member of the first orbit has r's left side and some member of
the second its right side.  So with each graph's rule sides ORed over its
orbit (its orbit sides), rule r fires on the class of (i, j) exactly when

    L_r(i) R_r(j)  or  L_r(j) R_r(i)  or  L_r(co i) R_r(co j)  or  L_r(co j) R_r(co i).

With four bitsets over graph ids per rule (own left, own right,
complement's left, complement's right), the ids j whose pair with i fires r
are the OR of at most four of them, chosen by i's own and its complement's
sides.  The pairs on which no rule fires (the open-case lookup) and those on
which both statuses fire (the conflicts) go through the shared pair kernel
``classify_pair`` uses (``pair_class``, ``fire`` and ``open_case``); over a
whole class ``fire`` gives the same bits with orbit sides as with a graph's
own.  Every open line and every conflict therefore comes from that kernel,
and the row sets only count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator, NamedTuple

from .classifier import BOUNDED_BITS, PAIR_RULES, UNBOUNDED_BITS, Status, display_name
from .classifier import fire, open_case, pair_class, pair_facts, rule_sides
from .enumeration import canonical_keys_upto, nonisomorphic_graphs_upto
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
    sides: list[tuple[int, int]]  # orbit sides, complement's facts included
    partner: dict[int, int]  # K3 <-> paw, when both are in range

    def pair_class(self, i: int, j: int) -> list[tuple[int, int]]:
        # ids are their own keys
        return pair_class(i, j, int, self.co.__getitem__, self.partner.get)


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


def _fired_rows(cat: _Catalogue) -> Iterator[tuple[int, list[int]]]:
    """Per row i, per rule r, the bitset of ids j >= i whose pair with i
    fires r."""
    cols = _columns(cat)
    everything = (1 << len(cat.graphs)) - 1
    for i in range(len(cat.graphs)):
        li, ri = cat.sides[i]
        lc, rc = cat.sides[cat.co[i]]
        above = everything >> i << i
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
            sets.append(s & above)
        yield i, sets


def _catalogue(max_vertices: int, clock: dict[str, float]) -> _Catalogue:
    t = perf_counter()
    graphs = nonisomorphic_graphs_upto(max_vertices)
    keys = canonical_keys_upto(max_vertices)
    clock["enumerate"] = perf_counter() - t
    t = perf_counter()
    ids = {k: i for i, k in enumerate(keys)}
    co = [ids[canonical_key(complement(g))] for g in graphs]
    # K3 and the paw swap only when both are in range.
    k3 = ids.get(canonical_key(graph_named("K3")))
    paw = ids.get(canonical_key(graph_named("paw")))
    partner = {k3: paw, paw: k3} if k3 is not None and paw is not None else {}
    clock["keys"] = perf_counter() - t
    t = perf_counter()
    sides = [rule_sides(PAIR_RULES, pair_facts(g, graphs[co[i]])) for i, g in enumerate(graphs)]
    # orbit sides: each orbit's two members share their ORed sides
    for a, b in ((k3, paw), (co[k3], co[paw])) if partner else ():
        sides[a] = sides[b] = (sides[a][0] | sides[b][0], sides[a][1] | sides[b][1])
    clock["sides"] = perf_counter() - t
    return _Catalogue(graphs, keys, co, sides, partner)


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
    in_rows = 0.0  # fallback time spent inside the row loop
    everything = (1 << len(graphs)) - 1
    for i, sets in _fired_rows(cat):
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
    clock["fallback"] = in_rows
    conflicts.sort()
    total = len(graphs) * (len(graphs) + 1) // 2
    rule_fires = {rule.rule_id: fires[r] for r, rule in enumerate(PAIR_RULES)}
    phases = {phase: clock[phase] for phase in PHASES}
    return ScanResult(max_vertices, total, counts, open_pairs, conflicts, rule_fires, phases)
