"""Hermetic enumeration of non-isomorphic simple graphs on up to 9 vertices.

Canonical augmentation (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 1998).  Level n is built from the stored representatives of
level n-1: a child is a parent with a new vertex n-1 joined to some
neighbourhood.  A child is kept only when its new vertex has the maximal
colour under ``refine_colours``, and the kept children are deduplicated by
canonical key.  Refined colours are ordered consistently with degrees, so a
new vertex of less than maximal degree cannot have the maximal colour; that
test reads only the parent's degrees and the neighbourhood mask, and rejects
most children before any adjacency is built.

Only the sparse half of a level, the graphs with 2m <= n(n-1)/2 edges, is
built this way.  The dense half is its complements: the canonical key of
each sparse graph's complemented masks, one key per complement pair, which
also gives every graph's complement id (``_complement_ids``).

Why nothing is missed: let G be a sparse n-vertex graph and v a vertex of G
of maximal colour.  G - v is isomorphic to some stored parent P; carry N(v)
over to P along that isomorphism and the child of P with that neighbourhood
is isomorphic to G, with v as its new vertex.  Colours are invariant under
isomorphism, so the new vertex has the maximal colour of the child and the
child passes both tests.  Its canonical key is G's.  Three cuts skip
children without losing that one:

* Parent cut.  v has maximal colour, so maximal degree, which is at least
  the average 2m/n.  So P has m - deg v <= m(n-2)/n <= (n-1)(n-2)/4 edges:
  it lies in the sparse half of level n-1.  That level is ordered by edge
  count, so the loop over parents stops at the first with more.
* Child cut.  A parent with m' edges and a new vertex of degree d give a
  child with m' + d edges, so the degree loop stops once
  2(m' + d) > n(n-1)/2.
* Twin cut.  Vertices u < w of P are twins when
  N(u) - {w} = N(w) - {u}.  Being twins is an equivalence, and any
  permutation inside a twin class is an automorphism of P, which carries
  each child to an isomorphic child whose new vertex is again the new
  vertex.  Of the neighbourhoods in one orbit, the least as an int holds
  the lowest members of each class, so a neighbourhood holding w but not
  the nearest twin below w is skipped.  The degree test, the test against
  P's vertices of maximal degree and the maximal-colour test give the same
  answer on every member of an orbit, so the least member passes them
  exactly when the skipped ones would.

Each class's representative is the graph its canonical key encodes
(``graph_of_key``), and a level lists its classes by (edge count, key).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CapacityError, InputError
from .graphs import Graph
from .isomorphism import canonical_key_adj, graph_of_key, key_adjacency, refine_colours

__all__ = ["canonical_keys_upto", "nonisomorphic_graphs", "nonisomorphic_graphs_upto"]

ENUMERATION_CAP = 9


@lru_cache(maxsize=None)
def _level(n: int) -> tuple[tuple, ...]:
    """Canonical keys of all non-isomorphic n-vertex graphs, ordered by
    (edge count, key)."""
    return _classes(n)[0]


def _complement_ids(n: int) -> tuple[int, ...]:
    """Per graph of ``_level(n)``, the index there of its complement."""
    return _classes(n)[1]


def _edge_count(key: tuple) -> int:
    # a key's rows hold each edge once
    return sum(row.bit_count() for row in key[1]) if key[0] > 1 else 0


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    """``_level(n)`` and ``_complement_ids(n)``: the sparse half by
    augmentation, the dense half as its complements."""
    if n <= 1:
        return ((n,),), (0,)
    pairs = n * (n - 1) // 2  # a sparse graph has 2m <= pairs edges
    new_bit = 1 << (n - 1)
    by_degree: list[list[int]] = [[] for _ in range(n)]
    for nbhd in range(new_bit):
        by_degree[nbhd.bit_count()].append(nbhd)
    found = set()
    for parent in _level(n - 1):
        m = _edge_count(parent)
        if 4 * m > (n - 1) * (n - 2):
            break  # parent cut: _level(n - 1) is ordered by edge count
        adj = key_adjacency(parent)
        top = max(a.bit_count() for a in adj)
        # The parent's vertices of degree ``top`` reach top + 1 in the child
        # when joined to the new vertex; a new vertex of degree top must
        # therefore avoid them, and one of degree top + 1 or more ties or wins.
        busy = sum(1 << v for v, a in enumerate(adj) if a.bit_count() == top)
        # twin cut: w's nearest twin u below it; a neighbourhood holding w
        # but not u is the swap of one that is tried
        links = []
        for w in range(1, n - 1):
            for u in range(w - 1, -1, -1):
                if adj[u] & ~(1 << w) == adj[w] & ~(1 << u):
                    links.append((1 << u, 1 << w))
                    break
        for degree in range(top, n):
            if 2 * (m + degree) > pairs:
                break  # child cut
            for nbhd in by_degree[degree]:
                if degree == top and nbhd & busy:
                    continue
                if any(nbhd & high and not nbhd & low for low, high in links):
                    continue
                child = tuple(a | new_bit if nbhd >> v & 1 else a for v, a in enumerate(adj)) + (nbhd,)
                colours = refine_colours(child, n)
                if colours[-1] == max(colours):
                    found.add(canonical_key_adj(child, n, colours))
    # one canonical key per complement pair, from the complemented masks
    co: dict[tuple, tuple] = {}
    full = (1 << n) - 1
    for key in found:
        if key not in co:
            other = canonical_key_adj(tuple(full ^ a ^ 1 << v for v, a in enumerate(key_adjacency(key))), n)
            co[key], co[other] = other, key
    keys = tuple(sorted(co, key=lambda key: (_edge_count(key), key)))
    index = {key: i for i, key in enumerate(keys)}
    return keys, tuple(index[co[key]] for key in keys)


def _check_cap(n: int) -> None:
    # checked up front: the levels below the cap take about 30 s to build
    if n < 0:
        raise InputError(f"vertex count must be non-negative, got {n}")
    if n > ENUMERATION_CAP:
        raise CapacityError(f"enumeration supports at most {ENUMERATION_CAP} vertices, got {n}")


def nonisomorphic_graphs(n: int) -> list[Graph]:
    """All non-isomorphic graphs on exactly n vertices, deterministically ordered."""
    _check_cap(n)
    return [graph_of_key(key) for key in _level(n)]


def canonical_keys_upto(n: int) -> list[tuple]:
    """The canonical keys of ``nonisomorphic_graphs_upto(n)``, in its order."""
    _check_cap(n)
    return [key for k in range(1, n + 1) for key in _level(k)]


def nonisomorphic_graphs_upto(n: int) -> list[Graph]:
    """All non-isomorphic graphs on 1..n vertices."""
    return [graph_of_key(key) for key in canonical_keys_upto(n)]
