"""Hermetic enumeration of non-isomorphic simple graphs on up to ~8 vertices.

Augmentation scheme: every n-vertex graph arises from an (n-1)-vertex graph by
adding a new vertex with some neighbourhood, so extending the canonical
representatives of level n-1 by all 2^(n-1) neighbourhoods and deduplicating
by canonical form yields exactly the level-n representatives.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CapacityError
from .graphs import Graph
from .isomorphism import canonical_key_adj

__all__ = ["nonisomorphic_graphs", "nonisomorphic_graphs_upto"]

ENUMERATION_CAP = 9


@lru_cache(maxsize=None)
def _level(n: int) -> tuple[tuple[int, ...], ...]:
    """Canonical adjacency-mask tuples of all non-isomorphic n-vertex graphs."""
    if n == 0:
        return ((),)
    if n == 1:
        return ((0,),)
    out: dict[tuple, tuple[int, ...]] = {}
    for parent in _level(n - 1):
        for nbhd in range(1 << (n - 1)):
            adj = tuple(
                parent[v] | ((nbhd >> v & 1) << (n - 1)) for v in range(n - 1)
            ) + (nbhd,)
            key = canonical_key_adj(adj, n)
            if key not in out:
                out[key] = adj
    ordered = sorted(out.items(), key=lambda kv: (sum(a.bit_count() for a in kv[1]) // 2, kv[0]))
    return tuple(adj for _, adj in ordered)


def _check_cap(n: int) -> None:
    # checked up front: the levels below the cap take minutes to build
    if n > ENUMERATION_CAP:
        raise CapacityError(f"enumeration supports at most {ENUMERATION_CAP} vertices, got {n}")


def _to_graph(adj: tuple[int, ...]) -> Graph:
    n = len(adj)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1]
    return Graph(n, edges)


def nonisomorphic_graphs(n: int) -> list[Graph]:
    """All non-isomorphic graphs on exactly n vertices, deterministically ordered."""
    _check_cap(n)
    return [_to_graph(adj) for adj in _level(n)]


def nonisomorphic_graphs_upto(n: int) -> list[Graph]:
    """All non-isomorphic graphs on 1..n vertices."""
    _check_cap(n)
    out: list[Graph] = []
    for k in range(1, n + 1):
        out.extend(nonisomorphic_graphs(k))
    return out

