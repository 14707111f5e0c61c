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

Why nothing is missed: let G be an n-vertex graph and v a vertex of G of
maximal colour.  G - v is isomorphic to some stored parent P; carry N(v)
over to P along that isomorphism and the child of P with that neighbourhood
is isomorphic to G, with v as its new vertex.  Colours are invariant under
isomorphism, so the new vertex has the maximal colour of the child and the
child passes both tests.  Its canonical key is G's.

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
    if n <= 1:
        return ((n,),)
    new_bit = 1 << (n - 1)
    by_degree: list[list[int]] = [[] for _ in range(n)]
    for nbhd in range(new_bit):
        by_degree[nbhd.bit_count()].append(nbhd)
    found = set()
    for parent in _level(n - 1):
        adj = key_adjacency(parent)
        top = max(a.bit_count() for a in adj)
        # The parent's vertices of degree ``top`` reach top + 1 in the child
        # when joined to the new vertex; a new vertex of degree top must
        # therefore avoid them, and one of degree top + 1 or more ties or wins.
        busy = sum(1 << v for v, a in enumerate(adj) if a.bit_count() == top)
        for degree in range(top, n):
            for nbhd in by_degree[degree]:
                if degree == top and nbhd & busy:
                    continue
                child = tuple(a | new_bit if nbhd >> v & 1 else a for v, a in enumerate(adj)) + (nbhd,)
                colours = refine_colours(child, n)
                if colours[-1] == max(colours):
                    found.add(canonical_key_adj(child, n, colours))
    # a key's rows hold each edge once
    return tuple(sorted(found, key=lambda key: (sum(row.bit_count() for row in key[1]), key)))


def _check_cap(n: int) -> None:
    # checked up front: the levels below the cap take about 20 s to build
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
