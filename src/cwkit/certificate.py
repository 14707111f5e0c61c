"""Verifier for layered-partition lower-bound certificates.

A partition of V(G) into cells V_{i,j} (0 <= i,j <= n) that satisfies eight
structural properties forces every build expression for G to use at least
floor((n-1)/(m+1)) + 1 labels.  The checker decides each property exactly,
on vertex bitmasks: rows and columns are searched breadth-first inside their
own vertex mask, and a vertex breaks an adjacency property exactly when its
neighbourhood meets a mask of the cells it may not see.  The loop over the
edges runs only to word a failure as a concrete witness edge.  No step walks
the indices 1..n, so the cost depends on the cells present and on the
graph, not on the declared n.  The bound is emitted only when all eight hold.

Partition file format: a header line "n m", then one line per nonempty cell,
"i j : v1 v2 ...".
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import Callable, Optional

from .errors import HypothesisError, InputError, ParseError
from .graphs import Graph, _read_header

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


def _validate_partition(g: Graph, p: LayeredPartition) -> dict[int, tuple[int, int]]:
    """Check that p's cells partition V(g) within 0..n; return each
    vertex's cell."""
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
    return seen


def _outside(lines: dict[int, int]) -> Callable[[int, int], int]:
    """For vertex masks keyed by row (or column) index, a function giving the
    union of the masks whose index lies below lo or above hi."""
    keys = sorted(lines)
    prefix = [0, *accumulate((lines[k] for k in keys), or_)]
    suffix = [*accumulate((lines[k] for k in reversed(keys)), or_)][::-1] + [0]
    return lambda lo, hi: prefix[bisect_left(keys, lo)] | suffix[bisect_right(keys, hi)]


def check_certificate(g: Graph, p: LayeredPartition) -> CertificateReport:
    """Check the eight certificate properties of (g, p) and emit the bound."""
    cell_of = _validate_partition(g, p)
    if p.n <= p.m + 1:
        raise HypothesisError(f"need n > m+1, got n={p.n}, m={p.m}")
    if p.cell(0, 0):
        raise InputError("cell (0,0) is nonempty; the certificate argument never inspects it")

    checks: list[PropertyCheck] = []

    def add(number: int, description: str, witness: Optional[str]) -> None:
        checks.append(PropertyCheck(number, description, witness is None, witness))

    # Every step walks the nonempty cells, never the indices 1..n.
    cells = {key: cell for key, cell in p.cells.items() if cell}
    # R_i and C_j include their border cells; the interior lines do not.
    rows: dict[int, int] = {}
    columns: dict[int, int] = {}
    inner_rows: dict[int, int] = {}
    inner_columns: dict[int, int] = {}
    filled: dict[int, set[int]] = {}
    for (i, j), cell in cells.items():
        mask = sum(1 << v for v in cell)
        rows[i] = rows.get(i, 0) | mask
        columns[j] = columns.get(j, 0) | mask
        if i and j:
            inner_rows[i] = inner_rows.get(i, 0) | mask
            inner_columns[j] = inner_columns.get(j, 0) | mask
            filled.setdefault(i, set()).add(j)

    def crowded(axis: int) -> Optional[str]:
        # border cells V_{i,0} (axis 1) or V_{0,j} (axis 0); V_{0,0} is empty
        keys = [key for key, cell in cells.items() if key[axis] == 0 and len(cell) > 1]
        if not keys:
            return None
        i, j = min(keys)
        return f"|V_{{{i},{j}}}| = {len(cells[i, j])}"

    add(1, "|V_{i,0}| <= 1 for all i >= 1", crowded(1))
    add(2, "|V_{0,j}| <= 1 for all j >= 1", crowded(0))

    w = None
    # a full row holds n cells, so this stops within |cells|/n + 1 rows
    for i in range(1, p.n + 1):
        js = filled.get(i, ())
        if len(js) < p.n:
            j = next(j for j in range(1, p.n + 1) if j not in js)
            w = f"V_{{{i},{j}}} is empty"
            break
    add(3, "|V_{i,j}| >= 1 for all i,j >= 1", w)

    def disconnected(lines: dict[int, int]) -> Optional[int]:
        # a line without cells is empty, hence connected
        return next((k for k in sorted(lines) if k and len(g.component_masks(lines[k])) > 1), None)

    i = disconnected(rows)
    w = None if i is None else f"row {i} induces a disconnected subgraph"
    add(4, "every row R_i (i >= 1) induces a connected subgraph", w)
    j = disconnected(columns)
    w = None if j is None else f"column {j} induces a disconnected subgraph"
    add(5, "every column C_j (j >= 1) induces a connected subgraph", w)

    rows_outside = _outside(inner_rows)
    columns_outside = _outside(inner_columns)

    def border_witness(axis: int) -> Optional[str]:
        # axis 0: a cell V_{k,0} bounds the rows it sees; 1: V_{0,k}, columns.
        # A border vertex fails exactly when it sees an interior line above k;
        # the edge loop runs only to word the failure.
        above = (rows_outside, columns_outside)[axis]
        if not any(
            g.adj[v] & above(0, key[axis])
            for key, cell in cells.items()
            if key[1 - axis] == 0
            for v in cell
        ):
            return None
        for u, v in g.edges:
            for a, b in ((u, v), (v, u)):
                ka, kb = cell_of[a], cell_of[b]
                if ka[1 - axis] == 0 and 1 <= ka[axis] < kb[axis] and min(kb) >= 1:
                    return (
                        f"edge {g.name_of(a)}-{g.name_of(b)} joins V_{{{ka[0]},{ka[1]}}} "
                        f"to V_{{{kb[0]},{kb[1]}}} with {kb[axis]} > {ka[axis]}"
                    )
        return None

    add(6, "a V_{k,0} vertex adjacent to V_{i,j} (i,j>=1) forces i <= k", border_witness(0))
    add(7, "a V_{0,k} vertex adjacent to V_{i,j} (i,j>=1) forces j <= k", border_witness(1))

    # A vertex of interior cell (i,j) may see interior vertices only in rows
    # i-m..i+m and columns j-m..j+m; the edge loop runs only to word a failure.
    w = None
    m = p.m
    if any(
        g.adj[v] & (rows_outside(i - m, i + m) | columns_outside(j - m, j + m))
        for (i, j), cell in cells.items()
        if i and j
        for v in cell
    ):
        for u, v in sorted(g.edges):
            iu, ju = cell_of[u]
            iv, jv = cell_of[v]
            if min(iu, ju) >= 1 and min(iv, jv) >= 1:
                if abs(iu - iv) > m or abs(ju - jv) > m:
                    w = (
                        f"edge {g.name_of(u)}-{g.name_of(v)} joins V_{{{iu},{ju}}} to "
                        f"V_{{{iv},{jv}}}, exceeding offset {m}"
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
    n, m, rows = _read_header(text, "partition")
    cells: dict[tuple[int, int], frozenset[int]] = {}
    for ln in rows:
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
