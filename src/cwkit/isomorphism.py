"""Canonical forms for small graphs, and isomorphism tests for any order.

``canonical_key`` computes an exact canonical form by maximising the
adjacency bitstring over permutations that respect colour-refinement classes,
with prefix branch-and-bound.  It serves the enumeration and the scan, and is
guarded by a vertex cap.

Isomorphism has no search of its own: two graphs of the same order and edge
count are isomorphic exactly when one embeds in the other as an induced
subgraph, so ``is_isomorphic`` calls the pattern search of ``patterns`` after
cheap invariant checks (degree sequence and refinement colours).  A pair
with more than half of all possible edges is searched through its
complements.
"""

from __future__ import annotations

from typing import Optional

from .errors import CapacityError
from .graphs import Graph, _bits, complement

__all__ = ["canonical_key", "graph_of_key", "is_isomorphic", "refine_colours"]

CANONICAL_CAP = 16


def refine_colours(adj: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Stable colour refinement; colours are isomorphism-invariant ints."""
    nbrs = [_bits(adj[v]) for v in range(n)]
    colours = [len(nbr) for nbr in nbrs]
    classes = len(set(colours))
    while True:
        sigs = [(colours[v], tuple(sorted([colours[u] for u in nbr]))) for v, nbr in enumerate(nbrs)]
        order = sorted(set(sigs))
        relabel = {s: i for i, s in enumerate(order)}
        new = [relabel[s] for s in sigs]
        # A round only splits classes, and ranks the signatures by the old
        # colour first; once no class splits (or every class is a single
        # vertex), the next round would return these colours unchanged.
        if len(order) == classes or len(order) == n:
            return tuple(new)
        colours, classes = new, len(order)


def canonical_key(g: Graph) -> tuple:
    """A hashable value equal exactly for isomorphic graphs (small n only)."""
    return canonical_key_adj(g.adj, g.n)


def canonical_key_adj(adj: tuple[int, ...], n: int, colours: Optional[tuple[int, ...]] = None) -> tuple:
    """The canonical key of the graph with adjacency masks ``adj``; a caller
    that has already refined it passes ``refine_colours(adj, n)``."""
    if n > CANONICAL_CAP:
        raise CapacityError(f"canonical form supports at most {CANONICAL_CAP} vertices, got {n}")
    if n <= 1:
        return (n,)
    if colours is None:
        colours = refine_colours(adj, n)
    # Position blocks: vertices of equal colour are interchangeable; the
    # block order (by colour) is itself isomorphism-invariant.
    by_colour: dict[int, list[int]] = {}
    for v in range(n):
        by_colour.setdefault(colours[v], []).append(v)
    blocks = [by_colour[c] for c in sorted(by_colour)]
    slot_block: list[int] = []
    for bi, block in enumerate(blocks):
        slot_block += [bi] * len(block)

    # Twin classes: swapping two vertices with the same neighbourhood away
    # from each other is an automorphism, so within a search node one
    # representative per twin class is enough.  This collapses the factorial
    # blow-up on cliques, independent sets and similar blobs.
    twin_id = list(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if twin_id[v] == v and adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                twin_id[v] = twin_id[u]

    best: Optional[list[int]] = None

    perm: list[int] = []
    rows: list[int] = []
    used = [False] * n

    # DFS maximising the per-position adjacency rows lexicographically.
    # ``tight`` = current prefix equals the best prefix; only then may we
    # prune candidates whose row falls below the best row at this slot.
    # Best updates always happen inside the live subtree, so a tight flag
    # never goes stale.
    def rec(i: int, tight: bool) -> None:
        nonlocal best
        if i == n:
            if best is None or rows > best:
                best = rows[:]
            return
        scored = []
        seen_twins = set()
        for v in blocks[slot_block[i]]:
            if used[v]:
                continue
            if twin_id[v] in seen_twins:
                continue
            seen_twins.add(twin_id[v])
            row = 0
            av = adj[v]
            for p in perm:
                row = row << 1 | (av >> p & 1)
            scored.append((row, v))
        scored.sort(reverse=True)
        for row, v in scored:
            t = tight
            if best is not None and tight:
                if row < best[i]:
                    break  # sorted descending: the rest are smaller too
                if row > best[i]:
                    t = False
            perm.append(v)
            rows.append(row)
            used[v] = True
            rec(i + 1, t)
            used[v] = False
            rows.pop()
            perm.pop()

    rec(0, True)
    assert best is not None
    return (n, tuple(best))


def _key_edges(key: tuple) -> list[tuple[int, int]]:
    """The edges (j, i), j < i, of the graph a canonical key encodes: row i
    of ``(n, rows)`` holds vertex i's adjacency to vertices 0..i-1, vertex 0
    in its highest bit."""
    edges = []
    for i, row in enumerate(key[1] if key[0] > 1 else ()):
        j = i - 1  # the vertex of the row's lowest bit
        while row:
            if row & 1:
                edges.append((j, i))
            row >>= 1
            j -= 1
    return edges


def key_adjacency(key: tuple) -> tuple[int, ...]:
    """The adjacency masks of the graph a canonical key encodes, without
    building the graph."""
    adj = [0] * key[0]
    for j, i in _key_edges(key):
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return tuple(adj)


def graph_of_key(key: tuple) -> Graph:
    """The graph a canonical key encodes."""
    return Graph(key[0], _key_edges(key))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """True iff an adjacency-preserving bijection exists."""
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    if sorted(refine_colours(g.adj, g.n)) != sorted(refine_colours(h.adj, h.n)):
        return False
    # The search prunes on the edges of the pattern far better than on its
    # non-edges, so a dense pair is compared through its complements, which
    # are isomorphic exactly when the graphs are.
    if 4 * len(g.edges) > g.n * (g.n - 1):
        g, h = complement(g), complement(h)
    from .patterns import has_induced  # patterns imports this module's cap

    return has_induced(h, g)
