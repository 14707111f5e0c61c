"""Verifier for layered-partition lower-bound certificates.

A partition of V(G) into cells V_{i,j} (0 <= i,j <= n) that satisfies eight
structural properties forces every build expression for G to use at least
floor((n-1)/(m+1)) + 1 labels.  The checker tests each property literally and
reports a concrete witness for every failure; the bound is emitted only when
all eight hold.

Partition file format: a header line "n m", then one line per nonempty cell,
"i j : v1 v2 ...".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import HypothesisError, InputError, ParseError
from .graphs import Graph, induced_subgraph

__all__ = [
    "LayeredPartition",
    "PropertyCheck",
    "CertificateReport",
    "lower_bound",
    "check_certificate",
    "parse_partition",
    "format_partition",
]


@dataclass(frozen=True)
class LayeredPartition:
    """Cells V_{i,j} for i,j in 0..n; absent keys are empty cells."""

    n: int
    m: int
    cells: dict[tuple[int, int], frozenset[int]]

    def cell(self, i: int, j: int) -> frozenset[int]:
        return self.cells.get((i, j), frozenset())

    def row(self, i: int) -> frozenset[int]:
        out: set[int] = set()
        for j in range(self.n + 1):
            out |= self.cell(i, j)
        return frozenset(out)

    def column(self, j: int) -> frozenset[int]:
        out: set[int] = set()
        for i in range(self.n + 1):
            out |= self.cell(i, j)
        return frozenset(out)


@dataclass(frozen=True)
class PropertyCheck:
    number: int
    description: str
    holds: bool
    witness: Optional[str] = None


@dataclass(frozen=True)
class CertificateReport:
    property_status: tuple[PropertyCheck, ...]
    bound: Optional[int]

    @property
    def all_hold(self) -> bool:
        return all(p.holds for p in self.property_status)


def lower_bound(n: int, m: int) -> int:
    """floor((n-1)/(m+1)) + 1, defined for m >= 0 and n > m+1."""
    if m < 0:
        raise HypothesisError(f"m must be non-negative, got {m}")
    if n <= m + 1:
        raise HypothesisError(f"need n > m+1, got n={n}, m={m}")
    return (n - 1) // (m + 1) + 1


def _validate_partition(g: Graph, p: LayeredPartition) -> None:
    if p.n < 1:
        raise InputError(f"partition parameter n must be positive, got {p.n}")
    seen: dict[int, tuple[int, int]] = {}
    for (i, j), cell in p.cells.items():
        if not (0 <= i <= p.n and 0 <= j <= p.n):
            raise InputError(f"cell index ({i},{j}) outside 0..{p.n}")
        for v in cell:
            if not (0 <= v < g.n):
                raise InputError(f"cell ({i},{j}) contains vertex {v} outside 0..{g.n - 1}")
            if v in seen:
                raise InputError(
                    f"vertex {g.name_of(v)} appears in cells {seen[v]} and ({i},{j})"
                )
            seen[v] = (i, j)
    if len(seen) != g.n:
        missing = sorted(set(range(g.n)) - set(seen))
        raise InputError(f"cells do not cover vertices {missing}: not a partition")


def _connected_in(g: Graph, vertices: frozenset[int]) -> bool:
    return induced_subgraph(g, vertices).is_connected()


def check_certificate(g: Graph, p: LayeredPartition) -> CertificateReport:
    """Check the eight certificate properties of (g, p) and emit the bound."""
    _validate_partition(g, p)
    if p.n <= p.m + 1:
        raise HypothesisError(f"need n > m+1, got n={p.n}, m={p.m}")
    if p.cell(0, 0):
        raise InputError("cell (0,0) is nonempty; the certificate argument never inspects it")

    checks: list[PropertyCheck] = []

    def add(number: int, description: str, witness: Optional[str]) -> None:
        checks.append(PropertyCheck(number, description, witness is None, witness))

    cell_of = {}
    for (i, j), cell in p.cells.items():
        for v in cell:
            cell_of[v] = (i, j)

    w = None
    for i in range(1, p.n + 1):
        if len(p.cell(i, 0)) > 1:
            w = f"|V_{{{i},0}}| = {len(p.cell(i, 0))}"
            break
    add(1, "|V_{i,0}| <= 1 for all i >= 1", w)

    w = None
    for j in range(1, p.n + 1):
        if len(p.cell(0, j)) > 1:
            w = f"|V_{{0,{j}}}| = {len(p.cell(0, j))}"
            break
    add(2, "|V_{0,j}| <= 1 for all j >= 1", w)

    w = None
    for i in range(1, p.n + 1):
        for j in range(1, p.n + 1):
            if not p.cell(i, j):
                w = f"V_{{{i},{j}}} is empty"
                break
        if w:
            break
    add(3, "|V_{i,j}| >= 1 for all i,j >= 1", w)

    w = None
    for i in range(1, p.n + 1):
        if not _connected_in(g, p.row(i)):
            w = f"row {i} induces a disconnected subgraph"
            break
    add(4, "every row R_i (i >= 1) induces a connected subgraph", w)

    w = None
    for j in range(1, p.n + 1):
        if not _connected_in(g, p.column(j)):
            w = f"column {j} induces a disconnected subgraph"
            break
    add(5, "every column C_j (j >= 1) induces a connected subgraph", w)

    def border_witness(border_axis: int) -> Optional[str]:
        # border_axis 0: cells V_{k,0} constrain row index; 1: V_{0,k} / column
        for u, v in g.edges:
            for a, b in ((u, v), (v, u)):
                ia, ja = cell_of[a]
                ib, jb = cell_of[b]
                if border_axis == 0 and ia >= 1 and ja == 0 and ib >= 1 and jb >= 1:
                    if ib > ia:
                        return (
                            f"edge {g.name_of(a)}-{g.name_of(b)} joins V_{{{ia},0}} "
                            f"to V_{{{ib},{jb}}} with {ib} > {ia}"
                        )
                if border_axis == 1 and ia == 0 and ja >= 1 and ib >= 1 and jb >= 1:
                    if jb > ja:
                        return (
                            f"edge {g.name_of(a)}-{g.name_of(b)} joins V_{{0,{ja}}} "
                            f"to V_{{{ib},{jb}}} with {jb} > {ja}"
                        )
        return None

    add(6, "a V_{k,0} vertex adjacent to V_{i,j} (i,j>=1) forces i <= k", border_witness(0))
    add(7, "a V_{0,k} vertex adjacent to V_{i,j} (i,j>=1) forces j <= k", border_witness(1))

    w = None
    for u, v in sorted(g.edges):
        iu, ju = cell_of[u]
        iv, jv = cell_of[v]
        if min(iu, ju) >= 1 and min(iv, jv) >= 1:
            if abs(iu - iv) > p.m or abs(ju - jv) > p.m:
                w = (
                    f"edge {g.name_of(u)}-{g.name_of(v)} joins V_{{{iu},{ju}}} to "
                    f"V_{{{iv},{jv}}}, exceeding offset {p.m}"
                )
                break
    add(8, "interior adjacency moves at most m rows and m columns", w)

    bound = lower_bound(p.n, p.m) if all(c.holds for c in checks) else None
    return CertificateReport(tuple(checks), bound)


# -- partition files -----------------------------------------------------


def format_partition(p: LayeredPartition) -> str:
    lines = [f"{p.n} {p.m}"]
    for (i, j) in sorted(p.cells):
        cell = p.cells[(i, j)]
        if cell:
            lines.append(f"{i} {j} : " + " ".join(str(v) for v in sorted(cell)))
    return "\n".join(lines) + "\n"


def parse_partition(text: str) -> LayeredPartition:
    rows = [ln for ln in (line.strip() for line in text.splitlines()) if ln and not ln.startswith("#")]
    if not rows:
        raise ParseError("empty partition input")
    head = rows[0].split()
    if len(head) != 2:
        raise ParseError(f"partition header must be 'n m', got {rows[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"partition header must be two integers, got {rows[0]!r}") from None
    cells: dict[tuple[int, int], frozenset[int]] = {}
    for ln in rows[1:]:
        if ":" not in ln:
            raise ParseError(f"cell line needs 'i j : vertices', got {ln!r}")
        left, right = ln.split(":", 1)
        idx = left.split()
        if len(idx) != 2:
            raise ParseError(f"cell line needs two indices, got {ln!r}")
        try:
            i, j = int(idx[0]), int(idx[1])
            verts = frozenset(int(tok) for tok in right.split())
        except ValueError:
            raise ParseError(f"bad cell line {ln!r}") from None
        if (i, j) in cells:
            raise ParseError(f"cell ({i},{j}) listed twice")
        cells[(i, j)] = verts
    return LayeredPartition(n, m, cells)
