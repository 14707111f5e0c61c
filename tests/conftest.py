"""Shared helpers: tiny independent oracles and catalog shortcuts.

The oracles here are deliberately naive (exhaustive enumeration over
injective maps or vertex subsets) so the fast implementations can be checked
against something that is obviously correct.
"""

from itertools import permutations
from pathlib import Path

import pytest

from cwkit.graphs import Graph, from_graph6
from cwkit.names import graph_named

FROZEN_GRAPHS = Path(__file__).with_name("graphs_upto_7.g6")


def frozen_graphs(count: int = 1252) -> list[Graph]:
    """The first ``count`` of the 1,252 graphs with 1..7 vertices in
    ``graphs_upto_7.g6``: the representatives the enumeration listed before
    it moved to canonical augmentation, frozen with their labels so that
    goldens over labelled output keep their inputs."""
    lines = FROZEN_GRAPHS.read_text(encoding="ascii").split()
    return [from_graph6(line) for line in lines[:count]]


@pytest.fixture(scope="session")
def named():
    return graph_named


def naive_contains_induced(host: Graph, pattern: Graph):
    """First (lexicographically least) induced embedding by brute force."""
    if pattern.n > host.n:
        return None
    for image in permutations(range(host.n), pattern.n):
        ok = True
        for u in range(pattern.n):
            for v in range(u + 1, pattern.n):
                if pattern.has_edge(u, v) != host.has_edge(image[u], image[v]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return image
    return None


def naive_has_induced_cycle_at_least(g: Graph, length: int) -> bool:
    from cwkit.names import graph_named as gn

    for r in range(length, g.n + 1):
        if naive_contains_induced(g, gn(f"C{r}")) is not None:
            return True
    return False
