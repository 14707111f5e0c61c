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
That second pass reuses the first pass's steps: the images of the pinned
vertices are ANDed into the candidate bases of the later ones, and the
steps of pinned vertices are skipped.  Only callers that report the
embedding should pay for it.

Two caches keep the search from redoing work that depends on one graph only.
Both are keyed by ``Graph``, which compares edges and ignores vertex names,
and both hold tuples, so no search can change them.

- ``_plan`` holds a pattern's degrees and the first pass's steps, about
  n*n/2 references for an n-vertex pattern.  The two rule tables name 40
  patterns; 256 entries keep them cached while the fresh graphs of one-off
  queries and of the ``<=X`` facts (where the queried graph is the pattern)
  pass through.
- ``_host`` holds a host's degree masks and non-neighbourhood masks.  Its 8
  entries serve the ``>=X`` facts of one-off queries, in which one graph is
  the host of every pattern in turn.  The ``<=X`` facts use the table
  patterns as hosts, and those are rebuilt when they fall out.  The scan
  decides its ``>=X`` facts without this search, so in ``scan_pairs(7)``
  only its ``<=X`` facts and the naming of its open pairs reach the cache:
  250 calls, for 18 distinct hosts built 46 times; 32 entries would save
  28 of those builds of graphs of at most 7 vertices.  Each of its three tables of a big host takes as much
  memory as the host's adjacency, so the cache stays small.

On top of the search sit the freeness test, the recognisers consumed by the
rule tables (class S membership, planarity) and the induced cycle probe.  The
probe is exponential, so it carries a configurable vertex cap and raises
``CapacityError`` rather than ever returning a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import CapacityError, InputError
from .graphs import Graph

__all__ = [
    "Embedding",
    "contains_induced",
    "has_induced",
    "is_free",
    "in_class_S",
    "is_planar",
    "has_induced_cycle_at_least",
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


def _steps(pattern: Graph, placed: list[int], rest: list[int]) -> tuple:
    """One step per vertex of ``rest``: (p, earlier neighbours, earlier
    non-neighbours), all tuples.

    ``placed`` vertices are mapped before the first step.
    """
    steps = []
    before = list(placed)
    for p in rest:
        pa = pattern.adj[p]
        steps.append((p, tuple(q for q in before if pa >> q & 1), tuple(q for q in before if not pa >> q & 1)))
        before.append(p)
    return tuple(steps)


@lru_cache(maxsize=256)
def _plan(pattern: Graph) -> tuple:
    """(degrees, steps): the pattern's degrees and the first pass's steps."""
    return tuple(a.bit_count() for a in pattern.adj), _steps(pattern, [], _search_order(pattern))


@lru_cache(maxsize=8)
def _host(host: Graph) -> tuple:
    """(at_least, at_most, non-neighbourhoods): at_least[d] and at_most[d]
    are the host vertices of degree >= d and <= d."""
    hn = host.n
    by_degree = [0] * hn
    for w, a in enumerate(host.adj):
        by_degree[a.bit_count()] |= 1 << w
    at_least = by_degree[:]
    at_most = by_degree[:]
    for d in range(hn - 2, -1, -1):
        at_least[d] |= at_least[d + 1]
    for d in range(1, hn):
        at_most[d] |= at_most[d - 1]
    full = (1 << hn) - 1
    return tuple(at_least), tuple(at_most), tuple(full ^ a for a in host.adj)


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
    """(steps, candidate bases, host non-neighbourhoods, some induced
    embedding), or None."""
    pn, hn = pattern.n, host.n
    pe, he = len(pattern.edges), len(host.edges)
    if pn > hn or pe > he or pn * (pn - 1) // 2 - pe > hn * (hn - 1) // 2 - he:
        return None
    degrees, steps = _plan(pattern)
    at_least, at_most, nadj = _host(host)
    # degree >= d, and co-degree hn-1-deg >= pn-1-d
    bases = [at_least[d] & at_most[hn - pn + d] for d in degrees]
    if not all(bases):
        return None
    image = [-1] * pn
    if not _extend(host.adj, nadj, steps, bases, image, 0):
        return None
    return steps, bases, nadj, image


def has_induced(host: Graph, pattern: Graph) -> bool:
    """True iff pattern embeds in host as an induced subgraph."""
    return pattern.n == 0 or _first_embedding(host, pattern) is not None


def _pin(bases: list[int], pattern: Graph, p: int, adj, nadj, w: int) -> list[int]:
    """``bases`` with the later pattern vertices held to the neighbourhood or
    non-neighbourhood of w, the image of pattern vertex p."""
    pa = pattern.adj[p]
    return bases[: p + 1] + [b & (adj[w] if pa >> v & 1 else nadj[w]) for v, b in enumerate(bases[p + 1 :], p + 1)]


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
    steps, bases, nadj, found = first
    adj = host.adj
    used = 0
    # Lexicographic minimisation, one pattern vertex at a time: the current
    # embedding is feasible, so only images below found[p] need a search.
    # Vertices 0..p-1 are pinned; their images are ANDed into the bases of
    # the later vertices, so the first pass's steps, less those of pinned
    # vertices, extend a trial image of p.
    for p in range(pattern.n):
        c = bases[p] & ~used & ((1 << found[p]) - 1)
        rest = [s for s in steps if s[0] > p] if c else []
        while c:
            low = c & -c
            trial = found[:]
            trial[p] = low.bit_length() - 1
            if _extend(adj, nadj, rest, _pin(bases, pattern, p, adj, nadj, trial[p]), trial, used | low):
                found = trial
                break
            c ^= low
        used |= 1 << found[p]
        bases = _pin(bases, pattern, p, adj, nadj, found[p])
    return Embedding(tuple(found))


def is_free(g: Graph, patterns: list[Graph]) -> tuple[bool, Optional[tuple[int, Embedding]]]:
    """True iff no listed pattern embeds induced; else (False, (index, where))."""
    for i, pat in enumerate(patterns):
        emb = contains_induced(g, pat)
        if emb is not None:
            return False, (i, emb)
    return True, None


# -- class S --------------------------------------------------------------


def in_class_S(g: Graph) -> bool:
    """Every component is a path or a subdivided claw (one degree-3 centre).

    Equivalently, g is a forest of maximum degree 3 in which no component
    holds two degree-3 vertices: a tree with one such vertex has three
    leaves, and a tree with none is a path.
    """
    if g.max_degree() > 3:
        return False
    comps = g.component_masks()
    if len(g.edges) != g.n - len(comps):  # not a forest
        return False
    centres = sum(1 << v for v, nbrs in enumerate(g.adj) if nbrs.bit_count() == 3)
    return all((comp & centres).bit_count() <= 1 for comp in comps)


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


# -- induced cycle probe ------------------------------------------------


def has_induced_cycle_at_least(g: Graph, length: int, max_vertices: Optional[int] = None) -> bool:
    """True iff some chordless cycle has at least ``length`` vertices."""
    if length < 3:
        raise InputError("cycle length threshold must be at least 3")
    limit = PROBE_CAP if max_vertices is None else max_vertices
    if g.n > limit:
        raise CapacityError(
            f"induced cycle probe capped at {limit} vertices, got {g.n}; raise max_vertices to override"
        )
    adj = g.adj
    # Grow induced paths from their least vertex s, one stack frame per path
    # vertex holding the mask of its neighbours not yet tried.  The path is
    # chordless by construction, so a next vertex that touches the path only
    # at its last vertex and at s closes an induced cycle.
    for s in range(g.n):
        later = -1 << (s + 1)
        path = [s]
        used = 1 << s
        untried = [adj[s] & later]
        while untried:
            c = untried[-1]
            if not c:
                untried.pop()
                used ^= 1 << path.pop()
                continue
            low = c & -c
            untried[-1] = c ^ low
            w = low.bit_length() - 1
            bad = adj[w] & used & ~(1 << path[-1])
            if bad:
                if bad == 1 << s and len(path) + 1 >= length:
                    return True
                continue
            path.append(w)
            used |= low
            untried.append(adj[w] & later & ~used)
    return False
