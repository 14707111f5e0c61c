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

Both staircase families are built by one helper, ``_staircase``.  Every
generator checks the closed-form size of its graph against the ceilings in
``graphs`` before building anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .certificate import LayeredPartition
from .errors import InputError
from .graphs import Graph, check_size, complement_bipartite

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
    check_size(*_wall_size(h), f"wall({h})")
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


def _wall_size(h: int) -> tuple[int, int]:
    """(vertices, edges) of wall(h)."""
    return 2 * (h + 1) ** 2 - 2, (h + 1) * (3 * h + 1) - 2


def subdivided_wall(h: int, k: int) -> Graph:
    """wall(h) with every edge subdivided exactly k times."""
    if k < 0:
        raise InputError(f"subdivision count must be non-negative, got {k}")
    n, m = _wall_size(h)
    check_size(n + k * m, (k + 1) * m, f"swall({h},{k})")
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
    check_size(n * n, 2 * n * (n - 1), f"grid({n})")
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


def _staircase(n: int, cell: str, cliques: bool = False) -> tuple[Graph, LayeredPartition]:
    """Border vertices b_1..b_n, w_1..w_n and an n-by-n array of cells.

    Cell (i,j) is a path on one vertex per letter of ``cell``, named
    ``<letter>_{i,j}``; b_k sees the cell's last vertex for k >= i and w_k
    its first vertex for k >= j.  With ``cliques`` the b's and the w's each
    form a clique.  Vertices are numbered b's, w's, then the cells row by
    row; the partition has offset m = 0.
    """
    if n < 2:
        raise InputError(f"family parameter must be at least 2, got {n}")
    edge_count = n * n * (n + len(cell)) + (n * (n - 1) if cliques else 0)
    check_size(2 * n + len(cell) * n * n, edge_count, f"the layered graph with parameter {n}")
    b, w = list(range(n)), list(range(n, 2 * n))
    names = {v: f"b_{k}" for k, v in enumerate(b, 1)} | {v: f"w_{k}" for k, v in enumerate(w, 1)}
    cells = {(k, 0): frozenset({v}) for k, v in enumerate(b, 1)}
    cells |= {(0, k): frozenset({v}) for k, v in enumerate(w, 1)}
    edges = [e for side in (b, w) for e in combinations(side, 2)] if cliques else []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            vs = list(range(len(names), len(names) + len(cell)))
            names |= {v: f"{letter}_{{{i},{j}}}" for v, letter in zip(vs, cell)}
            edges += zip(vs, vs[1:])
            edges += [(u, vs[-1]) for u in b[i - 1 :]]
            edges += [(u, vs[0]) for u in w[j - 1 :]]
            cells[(i, j)] = frozenset(vs)
    return Graph(len(names), edges, names), LayeredPartition(n, 0, cells)


def p6_diamond_base(n: int) -> tuple[Graph, LayeredPartition]:
    """The layered triple-cell construction with clique-width at least n.

    Border vertices b_1..b_n and w_1..w_n; each interior cell (i,j) holds a
    path b_{i,j} - r_{i,j} - w_{i,j}; b_k sees w_{i,j} for i <= k and w_k
    sees b_{i,j} for j <= k.  The partition uses offset m = 0.
    """
    return _staircase(n, "brw")


def p6_diamond_witness(n: int) -> Graph:
    """p6_diamond_base(n) with the cell b-layer/w-layer adjacencies flipped.

    The flip is a bipartite complementation, so the family keeps unbounded
    clique-width while becoming (P6, co(2P1+P2))-free.
    """
    check_size(2 * n + 3 * n * n, n * n * (n + 3) + n**4, f"the layered graph with parameter {n}")
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
    return _staircase(n, "x", cliques=True)


@dataclass(frozen=True)
class WitnessFamily:
    """CLI-facing registry entry for one witness family."""

    family_id: str
    arity: int
    build: Callable
    freeness: tuple[str, ...] = ()  # name-DSL patterns the members avoid


FAMILIES: dict[str, WitnessFamily] = {
    f.family_id: f
    for f in (
        WitnessFamily("wall", 1, lambda h: (wall(h), None)),
        WitnessFamily("swall", 2, lambda h, k: (subdivided_wall(h, k), None)),
        WitnessFamily("grid", 1, grid),
        WitnessFamily("thm4G", 1, p6_diamond_base),
        WitnessFamily("thm4H", 1, lambda n: (p6_diamond_witness(n), None), ("P6", "co(2P1+P2)")),
        WitnessFamily("thm5G", 1, two_clique_grid, ("3P2", "P2+P4", "P6", "co(P1+P4)")),
    )
}
