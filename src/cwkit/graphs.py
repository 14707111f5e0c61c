"""Simple undirected graphs and the elementary operations everything else builds on.

Vertices are dense integers 0..n-1.  An optional name map carries provenance
labels (for example ``b_{2,3}`` in the generated witness families) so that
failure reports stay legible.  All values are immutable after construction and
every operation returns a fresh graph.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .errors import CapacityError, InputError, ParseError

__all__ = [
    "Graph",
    "complement",
    "disjoint_union",
    "induced_subgraph",
    "delete_vertex",
    "subdivide_edge",
    "contract_edge",
    "dissolve_vertex",
    "complement_subgraph",
    "complement_bipartite",
    "check_size",
    "to_graph6",
    "from_graph6",
    "to_edge_list",
    "from_edge_list",
]


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise InputError(f"self-loop at vertex {u} is not allowed")
    return (u, v) if u < v else (v, u)


class Graph:
    """A finite simple undirected graph on vertices 0..n-1.

    Immutable by convention: the edge set is a frozenset and the adjacency
    bitmasks are computed once.  Equality and hashing use (n, edges) only;
    vertex names are carried along but never compared.
    """

    __slots__ = ("n", "edges", "names", "adj", "_hash")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        names: Optional[Mapping[int, str]] = None,
    ):
        if n < 0:
            raise InputError("vertex count must be non-negative")
        norm = frozenset(_norm_edge(u, v) for u, v in edges)
        for u, v in norm:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        adj = [0] * n
        for u, v in norm:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", norm)
        object.__setattr__(self, "names", dict(names) if names else None)
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "_hash", hash((n, norm)))

    def __setattr__(self, *_):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"

    # -- basic queries -------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        return _bits(self.adj[v])

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        return max((m.bit_count() for m in self.adj), default=0)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(m.bit_count() for m in self.adj))

    def name_of(self, v: int) -> str:
        if self.names and v in self.names:
            return self.names[v]
        return str(v)

    def component_masks(self) -> list[int]:
        """Connected components as vertex bitmasks, ordered by least vertex."""
        seen = 0
        out = []
        for v in range(self.n):
            if seen >> v & 1:
                continue
            comp = 1 << v
            frontier = comp
            while frontier:
                nxt = 0
                for u in _bits(frontier):
                    nxt |= self.adj[u]
                frontier = nxt & ~comp
                comp |= nxt
            out.append(comp)
            seen |= comp
        return out

    def components(self) -> list[list[int]]:
        return [_bits(m) for m in self.component_masks()]

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.component_masks()) == 1

    def bipartition(self) -> Optional[tuple[list[int], list[int]]]:
        """A 2-colouring (B, W) if the graph is bipartite, else None."""
        colour = {}
        for comp in self.component_masks():
            root = (comp & -comp).bit_length() - 1
            colour[root] = 0
            queue = [root]
            while queue:
                u = queue.pop()
                for w in _bits(self.adj[u]):
                    if w not in colour:
                        colour[w] = colour[u] ^ 1
                        queue.append(w)
                    elif colour[w] == colour[u]:
                        return None
        black = [v for v in range(self.n) if colour.get(v, 0) == 0]
        white = [v for v in range(self.n) if colour.get(v, 0) == 1]
        return black, white

    def is_bipartite(self) -> bool:
        return self.bipartition() is not None


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _check_vertex(g: Graph, v: int) -> None:
    if not (0 <= v < g.n):
        raise InputError(f"vertex {v} outside 0..{g.n - 1}")


# Fixed ceilings on every graph read from an edge list, generated by a family
# or realised from a name.  Callers pass the graph's closed-form size before
# any list is built, so a huge parameter is refused instead of exhausting
# memory; no flag lifts them.  The adjacency bitmasks of an n-vertex graph
# take up to n*n/8 bytes, 50 MB at the vertex ceiling.
EDGE_LIST_CAP = 20_000
EDGE_CAP = 1_000_000


def check_size(n: int, m: int, what: str) -> None:
    """Raise CapacityError unless a graph with n vertices and m edges fits."""
    if n > EDGE_LIST_CAP:
        raise CapacityError(f"{what} has {n} vertices; graphs support at most {EDGE_LIST_CAP} vertices")
    if m > EDGE_CAP:
        raise CapacityError(f"{what} has {m} edges; graphs support at most {EDGE_CAP} edges")


# -- elementary operations ---------------------------------------------


def complement(g: Graph) -> Graph:
    """Same vertices; distinct u,v adjacent iff they were not adjacent."""
    edges = [
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
    ]
    return Graph(g.n, edges, g.names)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's vertices are shifted up by g.n."""
    edges = list(g.edges) + [(u + g.n, v + g.n) for u, v in h.edges]
    names = {}
    if g.names:
        names.update(g.names)
    if h.names:
        names.update({v + g.n: s for v, s in h.names.items()})
    return Graph(g.n + h.n, edges, names or None)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """The subgraph induced by ``vertices``, renumbered order-preservingly."""
    keep = sorted(set(vertices))
    for v in keep:
        _check_vertex(g, v)
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    names = None
    if g.names:
        names = {index[v]: s for v, s in g.names.items() if v in index} or None
    return Graph(len(keep), edges, names)


# -- local edit operations ---------------------------------------------


def delete_vertex(g: Graph, v: int) -> Graph:
    _check_vertex(g, v)
    return induced_subgraph(g, [u for u in range(g.n) if u != v])


def subdivide_edge(g: Graph, u: int, v: int) -> Graph:
    """Replace edge uv by a path u-w-v through a new vertex w (index n)."""
    if not g.has_edge(u, v):
        raise InputError(f"cannot subdivide: ({u},{v}) is not an edge")
    w = g.n
    edges = [e for e in g.edges if e != _norm_edge(u, v)]
    edges += [(u, w), (v, w)]
    return Graph(g.n + 1, edges, g.names)


def contract_edge(g: Graph, u: int, v: int) -> Graph:
    """Merge the endpoints of edge uv into one vertex (at position min(u,v)).

    The merged vertex is adjacent to every former neighbour of u or v; the
    result is simple by construction (no self-loops, no parallel edges).
    """
    if not g.has_edge(u, v):
        raise InputError(f"cannot contract: ({u},{v}) is not an edge")
    lo, hi = min(u, v), max(u, v)
    merged_nbrs = (g.adj[u] | g.adj[v]) & ~(1 << u) & ~(1 << v)
    edges = set()
    for a, b in g.edges:
        if hi in (a, b):
            continue
        edges.add((a, b))
    for w in _bits(merged_nbrs):
        edges.add(_norm_edge(lo, w))
    names = dict(g.names) if g.names else {}
    names.pop(hi, None)
    names.pop(lo, None)
    h = Graph(g.n, edges, names or None)
    return delete_vertex(h, hi)


def dissolve_vertex(g: Graph, v: int) -> Graph:
    """Remove a degree-2 vertex with non-adjacent neighbours, joining them."""
    _check_vertex(g, v)
    nbrs = g.neighbors(v)
    if len(nbrs) != 2:
        raise InputError(f"cannot dissolve vertex {v}: degree is {len(nbrs)}, not 2")
    a, b = nbrs
    if g.has_edge(a, b):
        raise InputError(f"cannot dissolve vertex {v}: its neighbours are adjacent")
    edges = set(g.edges) | {_norm_edge(a, b)}
    return delete_vertex(Graph(g.n, edges, g.names), v)


def complement_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    inside = frozenset(vertices)
    for v in inside:
        _check_vertex(g, v)
    edges = set(g.edges)
    for u in inside:
        for v in inside:
            if u < v:
                e = (u, v)
                if e in edges:
                    edges.remove(e)
                else:
                    edges.add(e)
    return Graph(g.n, edges, g.names)


def complement_bipartite(g: Graph, x: Iterable[int], y: Iterable[int]) -> Graph:
    """Flip every adjacency with one end in x and the other in y."""
    xs, ys = frozenset(x), frozenset(y)
    if xs & ys:
        raise InputError(f"bipartite complementation requires disjoint sets; both contain {sorted(xs & ys)}")
    for v in xs | ys:
        _check_vertex(g, v)
    edges = set(g.edges)
    for u in xs:
        for v in ys:
            e = _norm_edge(u, v)
            if e in edges:
                edges.remove(e)
            else:
                edges.add(e)
    return Graph(g.n, edges, g.names)


# -- graph6 ------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def _g6_size_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise InputError("graph6 encoding supports at most 258047 vertices")


_SEXTETS = {format(i, "06b"): chr(i + 63) for i in range(64)}
_SEXTET_BITS = {ord(ch): bits for bits, ch in _SEXTETS.items()}


def to_graph6(g: Graph) -> str:
    """Standard graph6 string (column-major upper triangle, 6-bit groups)."""
    # Column v lists the pairs (u, v) for u < v, which are the bits of adj[v]
    # below bit v, lowest first.
    bits = "".join(format(a & ((1 << v) - 1), f"0{v}b")[::-1] for v, a in enumerate(g.adj) if v)
    bits += "0" * (-len(bits) % 6)
    body = "".join(_SEXTETS[bits[i : i + 6]] for i in range(0, len(bits), 6))
    return _g6_size_bytes(g.n).decode("ascii") + body


def from_graph6(text: str) -> Graph:
    """Decode a graph6 string; a leading '>>graph6<<' header is accepted."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :]
    if not s:
        raise ParseError("empty graph6 string")
    raw = s.encode("ascii", errors="replace")
    for ch in raw:
        if not (63 <= ch <= 126):
            raise ParseError(f"invalid graph6 byte {ch}")
    if raw[0] == 126:
        if len(raw) >= 4 and raw[1] == 126:
            raise ParseError("graph6 inputs beyond 258047 vertices are not supported")
        if len(raw) < 4:
            raise ParseError("truncated graph6 size field")
        n = ((raw[1] - 63) << 12) | ((raw[2] - 63) << 6) | (raw[3] - 63)
        body = raw[4:]
    else:
        n = raw[0] - 63
        body = raw[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ParseError(f"graph6 body has {len(body)} bytes, expected {need} for n={n}")
    # Column v is the v bits after the first v(v-1)/2, with u = 0 first, as
    # to_graph6 writes them.
    bits = "".join(map(_SEXTET_BITS.__getitem__, body))
    edges = []
    for v in range(1, n):
        start = v * (v - 1) // 2
        column = int(bits[start : start + v][::-1], 2)
        edges += [(u, v) for u in _bits(column)]
    return Graph(n, edges)


# -- edge-list text ----------------------------------------------------


def to_edge_list(g: Graph) -> str:
    """Text form: first line "n m", then one "u v" line per edge (sorted)."""
    lines = [f"{g.n} {len(g.edges)}"]
    lines += [f"{u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> Graph:
    rows = [ln for ln in (line.strip() for line in text.splitlines()) if ln and not ln.startswith("#")]
    if not rows:
        raise ParseError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise ParseError(f"edge-list header must be 'n m', got {rows[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"edge-list header must be two integers, got {rows[0]!r}") from None
    check_size(n, m, "the edge list")
    if len(rows) - 1 != m:
        raise ParseError(f"edge-list declares {m} edges but has {len(rows) - 1} edge lines")
    edges = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad edge line {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"bad edge line {ln!r}") from None
    return Graph(n, edges)
