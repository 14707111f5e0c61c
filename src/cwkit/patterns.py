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
That second pass reuses the steps of ``_plan``: the images of the pinned
vertices are ANDed into the candidate bases of the later ones, and the
steps of pinned vertices are skipped.  Only callers that report the
embedding should pay for it.

On a host of more than ``CANONICAL_CAP`` (16) vertices, the first pass of a
pattern of at most that many takes the plan of ``_pruned`` instead.  It
finds one embedding of each orbit under the pattern's automorphisms, which
is enough to decide existence: it enters each component at a vertex of the
highest degree and the least eccentricity, and adds orbit inequalities
f(v_i) < f(w), for each w in the orbit of v_i under the automorphisms that
fix the vertices before it.  A step ANDs in the host vertices above the
images its inequalities name.  The patterns of the witness families'
freeness lists have 48 automorphisms (3P2), 4 (P2+P4, co(2P1+P2)) or 2 (P6,
co(P1+P4)).  The lexicographic pass never sees the inequalities: the first
pass's embedding only bounds it from above, so the least embedding is the
same.  A pruned plan costs a search of the pattern in itself for each
candidate orbit member, so small hosts keep ``_plan``: one-off queries and
the scan search many fresh patterns on hosts of a few vertices.  So do
patterns of more than 16 vertices, such as the big patterns of isomorphism
tests.

Three caches keep the search from redoing work that depends on one graph
only.  All are keyed by ``Graph``, which compares edges and ignores vertex
names, and all hold tuples, so no search can change them.

- ``_plan`` holds a pattern's degrees and the first pass's steps, about
  n*n/2 references for an n-vertex pattern.  The two rule tables name 40
  patterns; 256 entries keep them cached while the fresh graphs of one-off
  queries and of the ``<=X`` facts (where the queried graph is the pattern)
  pass through.
- ``_pruned`` holds the pruned plans: degrees, steps and each step's
  inequalities.  Its 64 entries hold the patterns searched on big hosts:
  the table patterns of the ``>=X`` facts and the families' freeness lists.
- ``_host`` holds a host's degree masks and non-neighbourhood masks.  Its 8
  entries serve the ``>=X`` facts of one-off queries, in which one graph is
  the host of every pattern in turn.  The ``<=X`` facts use the table
  patterns as hosts, and those are rebuilt when they fall out.  The scan
  decides its ``>=X`` facts without this search, so in ``scan_pairs(7)``
  only its ``<=X`` facts and the naming of its open pairs reach the cache:
  250 calls, for 18 distinct hosts built 46 times; 32 entries would save
  28 of those builds of graphs of at most 7 vertices.  Each of its three
  tables of a big host takes as much memory as the host's adjacency, so the
  cache stays small.

On top of the search sit the freeness test, the recognisers consumed by the
rule tables (class S membership, planarity, chordality) and the induced long
cycle test.  That test checks each induced path of L-3 vertices for an
induced cycle of at least L vertices through it, so it is polynomial for a
fixed L but not in L; it carries a configurable vertex cap and raises
``CapacityError`` rather than ever returning a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import CapacityError, InputError
from .graphs import Graph, _bits, _component_masks
from .isomorphism import CANONICAL_CAP

__all__ = [
    "Embedding",
    "contains_induced",
    "has_induced",
    "is_free",
    "in_class_S",
    "is_planar",
    "has_induced_cycle_at_least",
    "is_chordal",
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


def _search_order(pattern: Graph, rank: list[int]) -> list[int]:
    """Breadth-first order: each component is entered at its first vertex in
    ``rank``, and each vertex's unseen neighbours follow in ``rank`` order."""
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


def _eccentricity(adj, v: int) -> int:
    """The greatest distance from v to a vertex of its component."""
    seen = frontier = 1 << v
    far = 0
    while True:
        ring = 0
        for u in _bits(frontier):
            ring |= adj[u]
        frontier = ring & ~seen
        if not frontier:
            return far
        seen |= frontier
        far += 1


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
    """(degrees, steps): the pattern's degrees and the first pass's steps,
    each component entered at its highest-degree vertex."""
    degrees = tuple(a.bit_count() for a in pattern.adj)
    rank = sorted(range(pattern.n), key=lambda v: (-degrees[v], v))
    return degrees, _steps(pattern, [], _search_order(pattern, rank))


def _orbit(v: int, maps: list[list[int]]) -> int:
    """The orbit of v under the group that the permutations ``maps``
    generate, as a mask."""
    orbit, grown = 0, 1 << v
    while grown != orbit:
        fresh = grown & ~orbit
        orbit = grown
        for image in maps:
            for u in _bits(fresh):
                grown |= 1 << image[u]
    return orbit


@lru_cache(maxsize=64)
def _pruned(pattern: Graph) -> tuple:
    """(degrees, steps, below): a first pass that finds one embedding of each
    orbit under the pattern's automorphisms.

    The order is breadth-first, each component entered at a vertex of the
    highest degree and, among those, of the least eccentricity, so a path
    starts at its centre.  ``below[i]`` lists the earlier pattern vertices
    whose images must lie below the image of step i's vertex.  For the
    order v_1, v_2, ..., each vertex w != v_i in the orbit of v_i under the
    automorphisms fixing v_1 ... v_{i-1} requires f(v_i) < f(w) (Grochow–
    Kellis, RECOMB 2007).  Every embedding f has a composite f∘a with an
    automorphism a that meets them all: pick a at each level among the
    automorphisms fixing the earlier vertices, to give v_i the least image
    in its orbit.

    The orbits come from the search itself: an embedding of the pattern in
    itself that pins v_1 ... v_{i-1} and maps v_i to w is an automorphism.
    Levels are taken last to first, so every automorphism found so far fixes
    the current level's pinned vertices, and the orbit it generates needs no
    search.
    """
    n, adj = pattern.n, pattern.adj
    degrees = tuple(a.bit_count() for a in adj)
    rank = sorted(range(n), key=lambda v: (-degrees[v], _eccentricity(adj, v), v))
    order = _search_order(pattern, rank)
    steps = _steps(pattern, [], order)
    full = (1 << n) - 1
    nadj = [full ^ a for a in adj]
    of_degree = [0] * n
    for v, d in enumerate(degrees):
        of_degree[d] |= 1 << v
    found: list[list[int]] = []
    below: list[list[int]] = [[] for _ in range(n)]
    for i in range(n - 1, -1, -1):
        v = order[i]
        orbit = _orbit(v, found)
        for w in order[i + 1 :]:
            if degrees[w] != degrees[v] or orbit >> w & 1:
                continue
            bases = [of_degree[d] for d in degrees]
            for u in order[:i]:
                bases[u] = 1 << u
            bases[v] = 1 << w
            image = [-1] * n
            if _extend(adj, nadj, steps, bases, image, 0):
                found.append(image)
                orbit = _orbit(v, found)
        for j in range(i + 1, n):
            if orbit >> order[j] & 1:
                below[j].append(v)
    return degrees, steps, tuple(tuple(b) for b in below)


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


def _extend(adj, nadj, steps, bases: list[int], image: list[int], used: int, below=None) -> bool:
    """Map the pattern vertices of ``steps`` in turn, trying host vertices in
    increasing order.

    ``adj`` and ``nadj`` are the host's neighbourhood and non-neighbourhood
    masks.  ``image`` holds the images of the vertices placed before the
    first step and, on success, of every vertex; ``used`` is the mask of
    those images.  ``below``, if given, lists for each step the pattern
    vertices whose images must lie below the image of the step's vertex.
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
        if below:
            for q in below[i]:
                c &= -(2 << image[q])
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
    """(candidate bases, host non-neighbourhoods, some induced embedding),
    or None.

    A pattern of at most ``CANONICAL_CAP`` vertices in a host of more takes
    the plan of ``_pruned``; any other search takes the plan of ``_plan``.
    """
    pn, hn = pattern.n, host.n
    pe, he = len(pattern.edges), len(host.edges)
    if pn > hn or pe > he or pn * (pn - 1) // 2 - pe > hn * (hn - 1) // 2 - he:
        return None
    if pn <= CANONICAL_CAP < hn:
        degrees, steps, below = _pruned(pattern)
    else:
        (degrees, steps), below = _plan(pattern), None
    at_least, at_most, nadj = _host(host)
    # degree >= d, and co-degree hn-1-deg >= pn-1-d
    bases = [at_least[d] & at_most[hn - pn + d] for d in degrees]
    if not all(bases):
        return None
    image = [-1] * pn
    if not _extend(host.adj, nadj, steps, bases, image, 0, below):
        return None
    return bases, nadj, image


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
    bases, nadj, found = first
    steps = _plan(pattern)[1]
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


# -- chordality ----------------------------------------------------------


def is_chordal(g: Graph) -> bool:
    """No induced cycle has four or more vertices.

    Maximum cardinality search visits next an unvisited vertex with the most
    visited neighbours; g is chordal iff the reverse of its visiting order is
    a perfect elimination order (Tarjan–Yannakakis 1984).  That holds iff,
    for every vertex v, the visited neighbours it had when visited, less the
    last visited of them u, are all adjacent to u.  ``bucket[i]`` masks the
    unvisited vertices with i visited neighbours, so the search runs in
    O(n + m) bitmask steps.
    """
    adj = g.adj
    count = [0] * g.n
    bucket = [0] * (g.n + 1)
    bucket[0] = (1 << g.n) - 1
    when = [0] * g.n
    top = visited = 0
    for step in range(g.n):
        while not bucket[top]:
            top -= 1
        low = bucket[top] & -bucket[top]
        v = low.bit_length() - 1
        bucket[top] ^= low
        earlier = adj[v] & visited
        if earlier:
            u = max(_bits(earlier), key=when.__getitem__)
            if earlier & ~adj[u] & ~(1 << u):
                return False
        when[v] = step
        visited |= low
        for w in _bits(adj[v] & ~visited):
            bit = 1 << w
            bucket[count[w]] ^= bit
            count[w] += 1
            bucket[count[w]] |= bit
        top += 1
    return True


# -- induced cycle probe ------------------------------------------------


def has_induced_cycle_at_least(g: Graph, length: int, max_vertices: Optional[int] = None) -> bool:
    """True iff some chordless cycle has at least ``length`` vertices.

    A graph has a cycle exactly when it has a chordless one, so length 3
    asks whether g is a forest.  For length L >= 4 (Nikolopoulos–Palios,
    Algorithmica 2007), such a cycle exists exactly when some induced path
    Q = q1 ... q_{L-3} has two distinct, non-adjacent outside vertices a and
    d, a adjacent to q1 and to no other vertex of Q, d to q_{L-3} and to no
    other, that both touch one component C of G - N[Q]: a shortest path
    from a to d through C closes an induced cycle with Q, and conversely
    L-3 consecutive vertices of a long induced cycle, the two vertices
    beside them and the rest of the cycle give Q, a, d and C.  Each induced
    path of L-3 vertices is checked once, in O(n + m) bitmask steps, so for
    a fixed L the test takes polynomial time.
    """
    if length < 3:
        raise InputError("cycle length threshold must be at least 3")
    limit = PROBE_CAP if max_vertices is None else max_vertices
    if g.n > limit:
        raise CapacityError(
            f"induced cycle probe capped at {limit} vertices, got {g.n}; raise max_vertices to override"
        )
    if length == 3:
        return len(g.edges) > g.n - len(g.component_masks())
    adj = g.adj
    closed = [a | 1 << v for v, a in enumerate(adj)]
    full = (1 << g.n) - 1
    # Depth first over the induced paths of L-3 vertices.  An entry holds a
    # path and the closed neighbourhoods of the path less its last vertex
    # (``before``, which the next vertex must avoid), of the whole path
    # (``around``) and of the path less its first vertex (``tail``).
    stack = [((v,), 0, closed[v], 0) for v in range(g.n)]
    while stack:
        path, before, around, tail = stack.pop()
        if len(path) < length - 3:
            for w in _bits(adj[path[-1]] & ~before):
                stack.append((path + (w,), around, around | closed[w], tail | closed[w]))
        # each path once, from its lesser end; a is beside its first vertex
        # only, d beside its last only
        elif path[0] <= path[-1]:
            if _linked(adj, closed, full & ~around, adj[path[0]] & ~tail, adj[path[-1]] & ~before):
                return True
    return False


def _linked(adj, closed, rest: int, firsts: int, lasts: int) -> bool:
    """Whether some a in ``firsts`` and d in ``lasts``, distinct and not
    adjacent, both have a neighbour in one component of the vertex set
    ``rest``."""
    if not any(lasts & ~closed[a] for a in _bits(firsts)):
        return False
    for comp in _component_masks(adj, rest):
        touch = 0
        for v in _bits(comp):
            touch |= adj[v]
        if any(lasts & touch & ~closed[a] for a in _bits(firsts & touch)):
            return True
    return False
