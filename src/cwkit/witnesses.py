"""Generators for the unbounded-clique-width witness families.

Each generator returns a concrete graph with provenance vertex names, and the
layered families also return the canonical partition certifying their
lower bound, so the proof object ships with the graph instead of being
recomputed.

Families:

* ``wall(h)`` / ``subdivided_wall(h, k)``: the brick-wall graphs (max degree
  3, planar, bipartite) and their uniform edge subdivisions.
* ``grid(n)``: the n-by-n grid with its singleton-cell partition (offset 1).
* ``p6_diamond_base(n)`` / ``p6_diamond_witness(n)``: a layered construction
  of b-r-w cell paths tied to border vertices by staircase adjacencies;
  complementing the edges between the cell b-layer and the cell w-layer
  yields the (P6, co(2P1+P2))-free member.
* ``two_clique_grid(n)``: two cliques plus an independent n-by-n cell array
  with staircase adjacencies; (3P2, P2+P4, P6, co(P1+P4))-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .certificate import LayeredPartition
from .errors import InputError
from .graphs import Graph, complement_bipartite

__all__ = [
    "wall",
    "subdivided_wall",
    "grid",
    "p6_diamond_base",
    "p6_diamond_witness",
    "two_clique_grid",
    "WitnessFamily",
    "FAMILIES",
]


def wall(h: int) -> Graph:
    """The brick wall of height h (h+1 rows of bricks drawn as a grid).

    Construction: vertices at (x, y) for 0 <= y <= h, 0 <= x <= 2h+1;
    horizontal edges along each row; a vertical edge between (x, y) and
    (x, y+1) exactly when x+y is odd; finally the two degree-1 corners are
    removed.  Heights 2, 3, 4 have 16, 30, 48 vertices.
    """
    if h < 2:
        raise InputError(f"wall height must be at least 2, got {h}")
    width = 2 * h + 2
    drop = {(0, 0), (0, h) if h % 2 else (width - 1, h)}
    coords = [
        (x, y) for y in range(h + 1) for x in range(width) if (x, y) not in drop
    ]
    index = {c: i for i, c in enumerate(coords)}
    edges = []
    for (x, y), i in index.items():
        if (x + 1, y) in index:
            edges.append((i, index[(x + 1, y)]))
        if (x + y) % 2 == 1 and (x, y + 1) in index:
            edges.append((i, index[(x, y + 1)]))
    names = {i: f"({x},{y})" for (x, y), i in index.items()}
    return Graph(len(coords), edges, names)


def subdivided_wall(h: int, k: int) -> Graph:
    """wall(h) with every edge subdivided exactly k times."""
    if k < 0:
        raise InputError(f"subdivision count must be non-negative, got {k}")
    base = wall(h)
    if k == 0:
        return base
    edges = []
    names = dict(base.names)
    nxt = base.n
    for u, v in sorted(base.edges):
        prev = u
        for t in range(k):
            names[nxt] = f"{base.name_of(u)}~{base.name_of(v)}#{t + 1}"
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, v))
    return Graph(nxt, edges, names)


def grid(n: int) -> tuple[Graph, LayeredPartition]:
    """The n-by-n grid graph with its singleton-cell partition (m = 1)."""
    if n < 3:
        raise InputError(f"grid side must be at least 3, got {n}")
    index = {(i, j): (i - 1) * n + (j - 1) for i in range(1, n + 1) for j in range(1, n + 1)}
    edges = []
    for (i, j), v in index.items():
        if i < n:
            edges.append((v, index[(i + 1, j)]))
        if j < n:
            edges.append((v, index[(i, j + 1)]))
    names = {v: f"({i},{j})" for (i, j), v in index.items()}
    g = Graph(n * n, edges, names)
    cells = {(i, j): frozenset({index[(i, j)]}) for (i, j) in index}
    return g, LayeredPartition(n, 1, cells)


def p6_diamond_base(n: int) -> tuple[Graph, LayeredPartition]:
    """The layered triple-cell construction with clique-width at least n.

    Border vertices b_1..b_n and w_1..w_n; each interior cell (i,j) holds a
    path b_{i,j} - r_{i,j} - w_{i,j}; b_k sees w_{i,j} for i <= k and w_k
    sees b_{i,j} for j <= k.  The partition uses offset m = 0.
    """
    if n < 2:
        raise InputError(f"family parameter must be at least 2, got {n}")
    names: dict[int, str] = {}
    b = {}
    w = {}
    for i in range(1, n + 1):
        b[i] = len(names)
        names[b[i]] = f"b_{i}"
    for j in range(1, n + 1):
        w[j] = len(names)
        names[w[j]] = f"w_{j}"
    cb, cr, cw = {}, {}, {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            cb[(i, j)] = len(names)
            names[cb[(i, j)]] = f"b_{{{i},{j}}}"
            cr[(i, j)] = len(names)
            names[cr[(i, j)]] = f"r_{{{i},{j}}}"
            cw[(i, j)] = len(names)
            names[cw[(i, j)]] = f"w_{{{i},{j}}}"
    edges = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            edges.append((cb[(i, j)], cr[(i, j)]))
            edges.append((cr[(i, j)], cw[(i, j)]))
            for k in range(i, n + 1):
                edges.append((b[k], cw[(i, j)]))
            for k in range(j, n + 1):
                edges.append((w[k], cb[(i, j)]))
    g = Graph(len(names), edges, names)
    cells = {(i, 0): frozenset({b[i]}) for i in range(1, n + 1)}
    cells |= {(0, j): frozenset({w[j]}) for j in range(1, n + 1)}
    cells |= {
        (i, j): frozenset({cb[(i, j)], cr[(i, j)], cw[(i, j)]})
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    }
    return g, LayeredPartition(n, 0, cells)


def p6_diamond_witness(n: int) -> Graph:
    """p6_diamond_base(n) with the cell b-layer/w-layer adjacencies flipped.

    The flip is a bipartite complementation, so the family keeps unbounded
    clique-width while becoming (P6, co(2P1+P2))-free.
    """
    g, _ = p6_diamond_base(n)
    b2 = [v for v in range(g.n) if g.names[v].startswith("b_{")]
    w2 = [v for v in range(g.n) if g.names[v].startswith("w_{")]
    return complement_bipartite(g, b2, w2)


def two_clique_grid(n: int) -> tuple[Graph, LayeredPartition]:
    """Two cliques B, W plus an independent cell array X with staircase ties.

    b_k sees x_{i,j} for i <= k, w_k sees x_{i,j} for j <= k; B and W are
    complete, X is independent, and no B-W edges exist.  The family is
    (3P2, P2+P4, P6, co(P1+P4))-free with clique-width at least n (m = 0).
    """
    if n < 2:
        raise InputError(f"family parameter must be at least 2, got {n}")
    names: dict[int, str] = {}
    b = {}
    w = {}
    x = {}
    for i in range(1, n + 1):
        b[i] = len(names)
        names[b[i]] = f"b_{i}"
    for j in range(1, n + 1):
        w[j] = len(names)
        names[w[j]] = f"w_{j}"
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            x[(i, j)] = len(names)
            names[x[(i, j)]] = f"x_{{{i},{j}}}"
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            edges.append((b[i], b[j]))
            edges.append((w[i], w[j]))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(i, n + 1):
                edges.append((b[k], x[(i, j)]))
            for k in range(j, n + 1):
                edges.append((w[k], x[(i, j)]))
    g = Graph(len(names), edges, names)
    cells = {(i, 0): frozenset({b[i]}) for i in range(1, n + 1)}
    cells |= {(0, j): frozenset({w[j]}) for j in range(1, n + 1)}
    cells |= {(i, j): frozenset({x[(i, j)]}) for i in range(1, n + 1) for j in range(1, n + 1)}
    return g, LayeredPartition(n, 0, cells)


@dataclass(frozen=True)
class WitnessFamily:
    """CLI-facing registry entry for one witness family."""

    family_id: str
    arity: int
    build: Callable
    freeness: tuple[str, ...] = ()  # name-DSL patterns the members avoid


def _wall_entry(h: int):
    return wall(h), None


def _swall_entry(h: int, k: int):
    return subdivided_wall(h, k), None


def _grid_entry(n: int):
    return grid(n)


def _thm4g_entry(n: int):
    return p6_diamond_base(n)


def _thm4h_entry(n: int):
    return p6_diamond_witness(n), None


def _thm5g_entry(n: int):
    return two_clique_grid(n)


FAMILIES: dict[str, WitnessFamily] = {
    f.family_id: f
    for f in (
        WitnessFamily("wall", 1, _wall_entry),
        WitnessFamily("swall", 2, _swall_entry),
        WitnessFamily("grid", 1, _grid_entry),
        WitnessFamily("thm4G", 1, _thm4g_entry),
        WitnessFamily("thm4H", 1, _thm4h_entry, ("P6", "co(2P1+P2)")),
        WitnessFamily("thm5G", 1, _thm5g_entry, ("3P2", "P2+P4", "P6", "co(P1+P4)")),
    )
}
