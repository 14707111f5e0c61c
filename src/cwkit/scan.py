"""Exhaustive classification scan over all small forbidden pairs.

Enumerates the non-isomorphic graphs up to a vertex budget, compiles each
graph's rule sides once, and then classifies every unordered pair with the
pair kernel ``classify_pair`` uses (closure, firing and open-case lookup),
run on integer graph ids instead of labelled graphs.  The scan doubles as the
consistency harness: it reports any pair on which a bounded rule and an
unbounded rule both fire, and any pair that neither matches a rule nor is
equivalent to a listed open case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .classifier import BOUNDED_BITS, PAIR_RULES, UNBOUNDED_BITS, Status, display_name
from .classifier import fire, open_case, pair_class, pair_facts, rule_sides
from .enumeration import nonisomorphic_graphs_upto
from .graphs import complement
from .isomorphism import canonical_key
from .names import graph_named

__all__ = ["ScanResult", "scan_pairs"]


@dataclass
class ScanResult:
    max_vertices: int
    pair_count: int
    counts: dict[str, int]
    open_pairs: list[tuple[str, str, str]]  # (name1, name2, case id)
    conflicts: list[str] = field(default_factory=list)

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


def scan_pairs(max_vertices: int = 7) -> ScanResult:
    """Classify every unordered pair of non-isomorphic graphs, exhaustively."""
    graphs = nonisomorphic_graphs_upto(max_vertices)
    keys = [canonical_key(g) for g in graphs]
    ids = {k: i for i, k in enumerate(keys)}
    co = [ids[canonical_key(complement(g))] for g in graphs]
    sides = [rule_sides(PAIR_RULES, pair_facts(g, graphs[co[i]])) for i, g in enumerate(graphs)]
    # Ids are their own keys; K3 and the paw swap only when both are in range.
    k3 = ids.get(canonical_key(graph_named("K3")))
    paw = ids.get(canonical_key(graph_named("paw")))
    partner = {k3: paw, paw: k3} if k3 is not None and paw is not None else {}

    def where(i: int, j: int) -> str:
        return f"({display_name(graphs[i])}, {display_name(graphs[j])})"

    counts = {s.value: 0 for s in (Status.BOUNDED, Status.UNBOUNDED, Status.OPEN)}
    open_pairs: list[tuple[str, str, str]] = []
    conflicts: list[str] = []
    for i in range(len(graphs)):
        for j in range(i, len(graphs)):
            members = pair_class(i, j, int, co.__getitem__, partner.get)
            fired, _ = fire(members, sides.__getitem__)
            if fired & BOUNDED_BITS and fired & UNBOUNDED_BITS:
                conflicts.append(f"bounded and unbounded rules both fire on {where(i, j)}")
            elif fired:
                counts[(Status.BOUNDED if fired & BOUNDED_BITS else Status.UNBOUNDED).value] += 1
            elif case := open_case(members, keys.__getitem__):
                counts[Status.OPEN.value] += 1
                open_pairs.append((display_name(graphs[i]), display_name(graphs[j]), case[0]))
            else:
                conflicts.append(f"no rule and no open case matches {where(i, j)}")
    conflicts.sort()
    total = len(graphs) * (len(graphs) + 1) // 2
    return ScanResult(max_vertices, total, counts, open_pairs, conflicts)
