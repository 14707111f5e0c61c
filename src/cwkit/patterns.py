"""Pattern containment and class-recognition predicates.

The central operation is induced-subgraph search.  It backtracks over the
pattern's vertices in breadth-first order, entering each component at its
highest-degree vertex.  Each pattern vertex's candidates are one host
bitmask: the host vertices whose degree and co-degree are large enough,
ANDed with the neighbourhood of the image of every earlier adjacent pattern
vertex and the non-neighbourhood of every earlier non-adjacent one, less the
images already used.  There are two entry points: ``has_induced`` stops at
the first embedding, and ``contains_induced`` goes on to return the
lexicographically least one by pinning pattern vertices 0, 1, ... in turn.
Only callers that report the embedding should pay for that second pass.

On top of the search sit the freeness test, the recognisers consumed by the
rule tables (class S membership, shape flags, planarity) and the induced
cycle/path probes.  The exponential probes carry a configurable vertex cap
and raise ``CapacityError`` rather than ever returning a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import CapacityError, InputError
from .graphs import Graph, complement

__all__ = [
    "Embedding",
    "contains_induced",
    "has_induced",
    "is_free",
    "in_class_S",
    "ShapeReport",
    "shape_tests",
    "is_planar",
    "has_triangle",
    "has_induced_cycle_at_least",
    "longest_induced_path",
]

PROBE_CAP = 16


@dataclass(frozen=True)
class Embedding:
    """An injective map pattern-vertex -> host-vertex with induced semantics."""

    mapping: tuple[int, ...]

    def is_valid(self, host: Graph, pattern: Graph) -> bool:
        m = self.mapping
        if len(m) != pattern.n or len(set(m)) != pattern.n:
            return False
        for u in range(pattern.n):
            for v in range(u + 1, pattern.n):
                if pattern.has_edge(u, v) != host.has_edge(m[u], m[v]):
                    return False
        return True


def _search_order(pattern: Graph) -> list[int]:
    """Breadth-first order, each component entered at its highest-degree vertex."""
    deg = [a.bit_count() for a in pattern.adj]
    rank = sorted(range(pattern.n), key=lambda v: (-deg[v], v))
    seen = 0
    order: list[int] = []
    for root in rank:
        if seen >> root & 1:
            continue
        seen |= 1 << root
        head = len(order)
        order.append(root)
        while head < len(order):
            p = order[head]
            head += 1
            for q in rank:
                if pattern.adj[p] >> q & 1 and not seen >> q & 1:
                    seen |= 1 << q
                    order.append(q)
    return order


def _steps(pattern: Graph, placed: list[int], rest: list[int]) -> list[tuple[int, list[int], list[int]]]:
    """One step per vertex of ``rest``: (p, earlier neighbours, earlier non-neighbours).

    ``placed`` vertices are mapped before the first step.
    """
    steps = []
    before = list(placed)
    for p in rest:
        pa = pattern.adj[p]
        steps.append((p, [q for q in before if pa >> q & 1], [q for q in before if not pa >> q & 1]))
        before.append(p)
    return steps


def _candidate_bases(host: Graph, pattern: Graph) -> Optional[list[int]]:
    """Per pattern vertex, the host vertices that pass the degree and co-degree filter.

    None when some pattern vertex has no candidate at all.
    """
    hn, pn = host.n, pattern.n
    by_degree = [0] * hn
    for w, a in enumerate(host.adj):
        by_degree[a.bit_count()] |= 1 << w
    at_least = by_degree[:]  # at_least[d]: host vertices of degree >= d
    at_most = by_degree[:]  # at_most[d]: host vertices of degree <= d
    for d in range(hn - 2, -1, -1):
        at_least[d] |= at_least[d + 1]
    for d in range(1, hn):
        at_most[d] |= at_most[d - 1]
    bases = []
    for a in pattern.adj:
        d = a.bit_count()
        # degree >= d, and co-degree hn-1-deg >= pn-1-d
        base = at_least[d] & at_most[hn - pn + d]
        if not base:
            return None
        bases.append(base)
    return bases


def _extend(adj, nadj, steps, bases: list[int], image: list[int], used: int) -> bool:
    """Map the pattern vertices of ``steps`` in turn, trying host vertices in
    increasing order.

    ``adj`` and ``nadj`` are the host's neighbourhood and non-neighbourhood
    masks.  ``image`` holds the images of the vertices placed before the
    first step and, on success, of every vertex; ``used`` is the mask of
    those images.
    """
    depth = len(steps)
    if not depth:
        return True
    cands = [0] * depth
    taken = [0] * depth
    i = 0
    while True:
        p, ins, outs = steps[i]
        c = bases[p] & ~used
        for q in ins:
            c &= adj[image[q]]
        for q in outs:
            c &= nadj[image[q]]
        taken[i] = used
        while not c:
            i -= 1
            if i < 0:
                return False
            c = cands[i]
            used = taken[i]
        low = c & -c
        cands[i] = c ^ low
        image[steps[i][0]] = low.bit_length() - 1
        used |= low
        i += 1
        if i == depth:
            return True


def _first_embedding(host: Graph, pattern: Graph):
    """(search order, candidate bases, host non-neighbourhoods, some induced
    embedding), or None."""
    pn, hn = pattern.n, host.n
    pe, he = len(pattern.edges), len(host.edges)
    if pn > hn or pe > he or pn * (pn - 1) // 2 - pe > hn * (hn - 1) // 2 - he:
        return None
    bases = _candidate_bases(host, pattern)
    if bases is None:
        return None
    full = (1 << hn) - 1
    nadj = [full ^ a for a in host.adj]
    order = _search_order(pattern)
    image = [-1] * pn
    if not _extend(host.adj, nadj, _steps(pattern, [], order), bases, image, 0):
        return None
    return order, bases, nadj, image


def has_induced(host: Graph, pattern: Graph) -> bool:
    """True iff pattern embeds in host as an induced subgraph."""
    return pattern.n == 0 or _first_embedding(host, pattern) is not None


def contains_induced(host: Graph, pattern: Graph) -> Optional[Embedding]:
    """An induced embedding of pattern into host, or None.

    On success the returned mapping is the lexicographically least one,
    obtained by pinning pattern vertices 0, 1, ... to their smallest feasible
    images in turn.  Callers that only need to know whether an embedding
    exists should use ``has_induced``, which skips that pass.
    """
    if pattern.n == 0:
        return Embedding(())
    first = _first_embedding(host, pattern)
    if first is None:
        return None
    order, bases, nadj, found = first
    adj = host.adj
    pinned: list[int] = []
    used = 0
    # Lexicographic minimisation, one pattern vertex at a time: the current
    # embedding is feasible, so only images below found[p] need a search.
    for p in range(pattern.n):
        pa = pattern.adj[p]
        c = bases[p] & ~used & ((1 << found[p]) - 1)
        for q in pinned:
            c &= adj[found[q]] if pa >> q & 1 else nadj[found[q]]
        pinned.append(p)
        steps = _steps(pattern, pinned, [v for v in order if v > p]) if c else []
        while c:
            low = c & -c
            trial = found[:]
            trial[p] = low.bit_length() - 1
            if _extend(adj, nadj, steps, bases, trial, used | low):
                found = trial
                break
            c ^= low
        used |= 1 << found[p]
    return Embedding(tuple(found))


def is_free(g: Graph, patterns: list[Graph]) -> tuple[bool, Optional[tuple[int, Embedding]]]:
    """True iff no listed pattern embeds induced; else (False, (index, where))."""
    for i, pat in enumerate(patterns):
        emb = contains_induced(g, pat)
        if emb is not None:
            return False, (i, emb)
    return True, None


# -- class S and shape recognisers --------------------------------------


def _component_is_path(g: Graph, comp: list[int]) -> bool:
    degs = sorted(g.degree(v) for v in comp)
    if len(comp) == 1:
        return True
    edges_inside = sum(degs) // 2
    return edges_inside == len(comp) - 1 and degs[-1] <= 2


def _component_is_subdivided_claw(g: Graph, comp: list[int]) -> bool:
    degs = sorted(g.degree(v) for v in comp)
    edges_inside = sum(degs) // 2
    if edges_inside != len(comp) - 1:  # not a tree
        return False
    return degs.count(1) == 3 and degs[-1] == 3 and degs[-2] <= 2


def in_class_S(g: Graph) -> bool:
    """Every component is a path or a subdivided claw (one degree-3 centre)."""
    return all(
        _component_is_path(g, comp) or _component_is_subdivided_claw(g, comp)
        for comp in g.components()
    )


@dataclass(frozen=True)
class ShapeReport:
    is_edgeless: bool
    is_complete: bool
    is_linear_forest: bool
    is_forest: bool
    is_complete_multipartite: bool


def shape_tests(g: Graph) -> ShapeReport:
    edgeless = not g.edges
    full = g.n * (g.n - 1) // 2
    comp = len(g.edges) == full and g.n >= 1
    forest = len(g.edges) == g.n - len(g.component_masks())
    linear = forest and g.max_degree() <= 2
    # Complete multipartite iff the complement is a disjoint union of cliques.
    co = complement(g)
    cm = g.n >= 1 and all(
        len(c) * (len(c) - 1) // 2 == sum(co.degree(v) for v in c) // 2
        for c in co.components()
    )
    return ShapeReport(
        is_edgeless=edgeless,
        is_complete=comp,
        is_linear_forest=linear,
        is_forest=forest,
        is_complete_multipartite=cm,
    )


# -- planarity -----------------------------------------------------------


def is_planar(g: Graph) -> bool:
    """Exact planarity by networkx's left-right planarity test."""
    # Euler's bound rejects a dense graph before it is copied into networkx.
    if g.n >= 3 and len(g.edges) > 3 * g.n - 6:
        return False
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return nx.check_planarity(G)[0]


# -- induced cycle and path probes ---------------------------------------


def has_triangle(g: Graph) -> bool:
    return any(g.adj[u] & g.adj[v] for u, v in g.edges)


def _probe_guard(g: Graph, cap: Optional[int]) -> None:
    limit = PROBE_CAP if cap is None else cap
    if g.n > limit:
        raise CapacityError(
            f"induced cycle/path probe capped at {limit} vertices, got {g.n}; raise max_vertices to override"
        )


def has_induced_cycle_at_least(g: Graph, length: int, max_vertices: Optional[int] = None) -> bool:
    """True iff some chordless cycle has at least ``length`` vertices."""
    if length < 3:
        raise InputError("cycle length threshold must be at least 3")
    _probe_guard(g, max_vertices)

    # Grow induced paths from a least start vertex; close into a cycle when
    # long enough.  The path is chordless by construction, so a closing edge
    # with no other adjacencies to the interior gives an induced cycle.
    def rec(path: list[int], path_set: int) -> bool:
        v = path[-1]
        if len(path) >= length and g.has_edge(path[0], v):
            return True
        for w in g.neighbors(v):
            if w <= path[0] or path_set >> w & 1:
                continue
            # w may touch only the last vertex (and possibly path[0] to close)
            bad = g.adj[w] & path_set & ~(1 << v)
            if bad & ~(1 << path[0]):
                continue
            if bad and len(path) + 1 < length:
                continue  # would close a too-short cycle; adjacency to start forbidden
            if rec(path + [w], path_set | 1 << w):
                return True
        return False

    for s in range(g.n):
        if rec([s], 1 << s):
            return True
    return False


def longest_induced_path(g: Graph, max_vertices: Optional[int] = None) -> int:
    """The largest r such that the r-vertex path embeds induced (0 if empty)."""
    _probe_guard(g, max_vertices)
    best = 1 if g.n else 0

    def rec(path_set: int, v: int, length: int) -> None:
        nonlocal best
        if length > best:
            best = length
        for w in g.neighbors(v):
            if path_set >> w & 1:
                continue
            if g.adj[w] & path_set & ~(1 << v):
                continue
            rec(path_set | 1 << w, w, length + 1)

    for s in range(g.n):
        rec(1 << s, s, 1)
    return best
