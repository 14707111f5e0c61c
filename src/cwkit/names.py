"""A small name language for graphs: "P5", "2P1+P3", "co(S_1_2_3)", "wall(3)".

ASCII-only concrete syntax: ``co(...)`` complements, underscores mark
subscripts, an integer prefix repeats a summand.  Grammar::

    expr := term ('+' term)*
    term := [int] atom
    atom := 'P'n | 'C'n | 'K'n | 'K1_'r | 'S_'i'_'j'_'k
          | 'co(' expr ')' | 'wall(' h ')' | 'swall(' h ',' k ')' | 'grid(' n ')'
          | 'paw' | 'diamond' | 'claw' | 'bull' | 'hammer' | 'gem'

Whitespace is ignored.  The grammar is the stable public surface.  Nesting of
``co(...)`` deeper than ``NESTING_CAP`` is a parse error.  ``realize`` checks
the named graph's closed-form size against the ceilings in ``graphs`` before
building anything.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from .errors import InputError, ParseError, _Tokens
from .graphs import EDGE_CAP, Graph, _bits, _component_masks, check_size, complement, induced_subgraph
from .witnesses import _wall_size, grid, subdivided_wall, wall

__all__ = [
    "Path",
    "Cycle",
    "Complete",
    "Star",
    "SubdividedClaw",
    "Named",
    "Sum",
    "Complement",
    "Wall",
    "SubdividedWall",
    "Grid",
    "NameExpr",
    "parse_name",
    "realize",
    "recognize",
    "format_name",
    "graph_named",
]


@dataclass(frozen=True)
class Path:
    r: int

    def __post_init__(self):
        if self.r < 1:
            raise InputError(f"P{self.r}: paths need at least one vertex")


@dataclass(frozen=True)
class Cycle:
    r: int

    def __post_init__(self):
        if self.r < 3:
            raise InputError(f"C{self.r}: cycles need at least three vertices")


@dataclass(frozen=True)
class Complete:
    r: int

    def __post_init__(self):
        if self.r < 1:
            raise InputError(f"K{self.r}: complete graphs need at least one vertex")


@dataclass(frozen=True)
class Star:
    r: int  # K_{1,r}

    def __post_init__(self):
        if self.r < 1:
            raise InputError(f"K1_{self.r}: stars need at least one leaf")


@dataclass(frozen=True)
class SubdividedClaw:
    i: int
    j: int
    k: int

    def __post_init__(self):
        if not (1 <= self.i <= self.j <= self.k):
            raise InputError(
                f"S_{self.i}_{self.j}_{self.k}: leg lengths must satisfy 1 <= i <= j <= k"
            )


NAMED_IDS = ("paw", "diamond", "claw", "bull", "hammer", "gem")


@dataclass(frozen=True)
class Named:
    id: str

    def __post_init__(self):
        if self.id not in NAMED_IDS:
            raise InputError(f"unknown named graph {self.id!r}")


@dataclass(frozen=True)
class Complement:
    inner: "NameExpr"


@dataclass(frozen=True)
class Sum:
    parts: tuple[tuple[int, "NameExpr"], ...]

    def __post_init__(self):
        if not self.parts:
            raise InputError("empty sum")
        for mult, _ in self.parts:
            if mult < 1:
                raise InputError(f"summand multiplier {mult} must be at least 1")


@dataclass(frozen=True)
class Wall:
    h: int

    def __post_init__(self):
        if self.h < 2:
            raise InputError(f"wall({self.h}): height must be at least 2")


@dataclass(frozen=True)
class SubdividedWall:
    h: int
    k: int

    def __post_init__(self):
        if self.h < 2 or self.k < 0:
            raise InputError(f"swall({self.h},{self.k}): need height >= 2 and k >= 0")


@dataclass(frozen=True)
class Grid:
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise InputError(f"grid({self.n}): side must be at least 3")


NameExpr = Union[
    Path, Cycle, Complete, Star, SubdividedClaw, Named, Complement, Sum, Wall, SubdividedWall, Grid
]


# -- parser --------------------------------------------------------------

NESTING_CAP = 100

_WORD = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_SYMBOLS = ("+", "(", ")", ",")


_WORD_ATOM = re.compile(r"^(?:P(\d+)|C(\d+)|K1_(\d+)|K(\d+)|S_(\d+)_(\d+)_(\d+))$")


def _parse_atom(toks: _Tokens, depth: int) -> NameExpr:
    kind, value, pos = toks.next()
    if kind != "word":
        raise ParseError("expected a graph name", toks.text, pos)
    if value == "co":
        toks.expect("sym", "(")
        if depth >= NESTING_CAP:
            raise ParseError(f"co(...) nested deeper than {NESTING_CAP}", toks.text, pos)
        inner = _parse_expr(toks, depth + 1)
        toks.expect("sym", ")")
        return Complement(inner)
    if value in ("wall", "swall", "grid"):
        toks.expect("sym", "(")
        args = [int(toks.expect("int")[1])]
        while toks.peek() and toks.peek()[1] == ",":
            toks.next()
            args.append(int(toks.expect("int")[1]))
        toks.expect("sym", ")")
        try:
            if value == "wall" and len(args) == 1:
                return Wall(args[0])
            if value == "swall" and len(args) == 2:
                return SubdividedWall(args[0], args[1])
            if value == "grid" and len(args) == 1:
                return Grid(args[0])
        except InputError as exc:
            raise ParseError(str(exc), toks.text, pos) from None
        raise ParseError(f"wrong number of arguments for {value}", toks.text, pos)
    m = _WORD_ATOM.match(value)
    try:
        if m:
            if m.group(1):
                return Path(int(m.group(1)))
            if m.group(2):
                return Cycle(int(m.group(2)))
            if m.group(3):
                return Star(int(m.group(3)))
            if m.group(4):
                return Complete(int(m.group(4)))
            return SubdividedClaw(int(m.group(5)), int(m.group(6)), int(m.group(7)))
        if value in NAMED_IDS:
            return Named(value)
    except InputError as exc:
        raise ParseError(str(exc), toks.text, pos) from None
    raise ParseError(f"unknown graph name {value!r}", toks.text, pos)


def _parse_term(toks: _Tokens, depth: int) -> tuple[int, NameExpr]:
    mult = 1
    tok = toks.peek()
    if tok is not None and tok[0] == "int":
        toks.next()
        mult = int(tok[1])
        if mult < 1:
            raise ParseError("multiplier must be at least 1", toks.text, tok[2])
    return mult, _parse_atom(toks, depth)


def _parse_expr(toks: _Tokens, depth: int = 0) -> NameExpr:
    """An expression inside ``depth`` open ``co(``."""
    parts = [_parse_term(toks, depth)]
    while toks.peek() is not None and toks.peek()[1] == "+":
        toks.next()
        parts.append(_parse_term(toks, depth))
    if len(parts) == 1 and parts[0][0] == 1:
        return parts[0][1]
    return Sum(tuple(parts))


def parse_name(text: str) -> NameExpr:
    toks = _Tokens(text, _SYMBOLS, _WORD)
    expr = _parse_expr(toks)
    extra = toks.peek()
    if extra is not None:
        raise ParseError("trailing input after graph name", text, extra[2])
    return expr


# -- realisation ---------------------------------------------------------


def _path_graph(r: int) -> Graph:
    return Graph(r, [(i, i + 1) for i in range(r - 1)])


def realize(expr: NameExpr) -> Graph:
    """The graph a name denotes, with deterministic vertex numbering."""
    check_size(*_size(expr), format_name(expr))
    return _build(expr)


def _size(expr: NameExpr) -> tuple[int, int]:
    """The vertex and edge counts of the graph a name denotes, unbuilt."""
    match expr:
        case Path(r):
            return r, r - 1
        case Cycle(r):
            return r, r
        case Complete(r):
            return r, r * (r - 1) // 2
        case Star(r):
            return r + 1, r
        case SubdividedClaw(i, j, k):
            return i + j + k + 1, i + j + k
        case Named(name):
            return _named_size(name)
        case Complement(inner):
            n, m = _size(inner)
            return n, n * (n - 1) // 2 - m
        case Sum(parts):
            sizes = [(mult, _size(sub)) for mult, sub in parts]
            return sum(mult * n for mult, (n, _) in sizes), sum(mult * m for mult, (_, m) in sizes)
        case Wall(h):
            return _wall_size(h)
        case SubdividedWall(h, k):
            n, m = _wall_size(h)
            return n + k * m, (k + 1) * m
        case Grid(n):
            return n * n, 2 * n * (n - 1)
    raise InputError(f"cannot realize {expr!r}")


@lru_cache(maxsize=None)
def _named_size(name: str) -> tuple[int, int]:
    g = _build(Named(name))
    return g.n, len(g.edges)


def _build(expr: NameExpr) -> Graph:
    match expr:
        case Path(r):
            return _path_graph(r)
        case Cycle(r):
            return Graph(r, [(i, (i + 1) % r) for i in range(r)])
        case Complete(r):
            return Graph(r, [(i, j) for i in range(r) for j in range(i + 1, r)])
        case Star(r):
            return Graph(r + 1, [(0, i) for i in range(1, r + 1)])
        case SubdividedClaw(i, j, k):
            edges = []
            v = 1
            for leg in (i, j, k):
                prev = 0
                for _ in range(leg):
                    edges.append((prev, v))
                    prev = v
                    v += 1
            return Graph(v, edges)
        case Named("paw"):
            return complement(_build(parse_name("P1+P3")))
        case Named("diamond"):
            return complement(_build(parse_name("2P1+P2")))
        case Named("gem"):
            return complement(_build(parse_name("P1+P4")))
        case Named("claw"):
            return _build(Star(3))
        case Named("bull"):
            return Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4)])
        case Named("hammer"):
            return Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)])
        case Complement(inner):
            # The complement may fit where the inner graph does not.
            check_size(*_size(inner), format_name(inner))
            return complement(_build(inner))
        case Sum(parts):
            # one pass with vertex offsets, as repeated disjoint_union would
            # number them, but without copying the graph built so far
            n, edges, names = 0, [], {}
            for mult, sub in parts:
                piece = _build(sub)
                for _ in range(mult):
                    edges += [(u + n, v + n) for u, v in piece.edges]
                    if piece.names:
                        names.update({v + n: s for v, s in piece.names.items()})
                    n += piece.n
            return Graph(n, edges, names or None)
        case Wall(h):
            return wall(h)
        case SubdividedWall(h, k):
            return subdivided_wall(h, k)
        case Grid(n):
            return grid(n)[0]
    raise InputError(f"cannot realize {expr!r}")


def graph_named(text: str) -> Graph:
    """Parse-and-realize convenience."""
    return realize(parse_name(text))


# -- pretty-printing and recognition --------------------------------------


def format_name(expr: NameExpr) -> str:
    match expr:
        case Path(r):
            return f"P{r}"
        case Cycle(r):
            return f"C{r}"
        case Complete(r):
            return f"K{r}"
        case Star(r):
            return f"K1_{r}"
        case SubdividedClaw(i, j, k):
            return f"S_{i}_{j}_{k}"
        case Named(name):
            return name
        case Complement(inner):
            return f"co({format_name(inner)})"
        case Wall(h):
            return f"wall({h})"
        case SubdividedWall(h, k):
            return f"swall({h},{k})"
        case Grid(n):
            return f"grid({n})"
        case Sum(parts):
            bits = []
            for mult, sub in parts:
                if isinstance(sub, Sum):
                    # the grammar has no brackets: k(A+B) is written kA+kB
                    bits.append(format_name(Sum(tuple((mult * m, s) for m, s in sub.parts))))
                else:
                    s = format_name(sub)
                    bits.append(f"{mult}{s}" if mult > 1 else s)
            return "+".join(bits)
    raise InputError(f"cannot format {expr!r}")


def _recognize_connected(g: Graph) -> Optional[NameExpr]:
    """Catalog lookup for a connected graph.

    Order: paths, cliques, cycles, stars, subdivided claws, then the named
    five-or-fewer-vertex specials.
    """
    n = g.n
    degs = g.degree_sequence()
    m = len(g.edges)
    if n == 1:
        return Path(1)
    if m == n - 1 and degs[-1] <= 2:
        return Path(n)
    if m == n * (n - 1) // 2:
        return Complete(n)
    if degs[0] == 2 and degs[-1] == 2 and m == n:
        return Cycle(n)
    if m == n - 1 and degs[-1] == n - 1 and n >= 4:
        return Star(n - 1)
    if m == n - 1 and degs.count(1) == 3 and degs[-1] == 3 and degs[-2] <= 2:
        legs = sorted(_claw_leg_lengths(g))
        return SubdividedClaw(*legs)
    from .isomorphism import is_isomorphic

    for name, model in _named_models():
        if n == model.n and is_isomorphic(g, model):
            return Named(name)
    return None


@lru_cache(maxsize=None)
def _named_models() -> tuple[tuple[str, Graph], ...]:
    names = ("paw", "diamond", "bull", "hammer", "gem")
    return tuple((name, realize(Named(name))) for name in names)


def _claw_leg_lengths(g: Graph) -> list[int]:
    centre = max(range(g.n), key=g.degree)
    lengths = []
    for start in g.neighbors(centre):
        prev, cur, dist = centre, start, 1
        while g.degree(cur) == 2:
            nxt = [w for w in g.neighbors(cur) if w != prev][0]
            prev, cur, dist = cur, nxt, dist + 1
        lengths.append(dist)
    return lengths


def _recognize_direct(g: Graph) -> Optional[NameExpr]:
    if g.n == 0:
        return None
    parts: list[tuple[int, str, NameExpr]] = []
    for comp in g.components():
        node = _recognize_connected(induced_subgraph(g, comp))
        if node is None:
            return None
        parts.append((len(comp), format_name(node), node))
    parts.sort(key=lambda part: part[:2])
    grouped: list[tuple[int, NameExpr]] = []
    for _, _, node in parts:
        if grouped and grouped[-1][1] == node:
            grouped[-1] = (grouped[-1][0] + 1, node)
        else:
            grouped.append((1, node))
    if len(grouped) == 1 and grouped[0][0] == 1:
        return grouped[0][1]
    return Sum(tuple(grouped))


def _complement_may_be_named(g: Graph) -> bool:
    """False when some component of g's complement has no catalogue name.

    ``_recognize_connected`` names complete graphs, graphs with at most |C|
    edges (paths, cycles, stars, subdivided claws) and the specials of
    ``_named_models``, so a component with more edges than |C| plus the
    specials' largest surplus has no name.  The components and their edges
    are read off g's non-adjacency masks, so a graph with no ``co(...)``
    name never has its complement built.
    """
    surplus = max(0, *(len(model.edges) - model.n for _, model in _named_models()))
    full = (1 << g.n) - 1
    nadj = [full ^ a ^ (1 << v) for v, a in enumerate(g.adj)]
    for comp in _component_masks(nadj, full):
        size = comp.bit_count()
        edges = sum((nadj[v] & comp).bit_count() for v in _bits(comp)) // 2
        if edges > size + surplus and edges != size * (size - 1) // 2:
            return False
    return True


def recognize(g: Graph) -> Optional[NameExpr]:
    """A catalog name realising a graph isomorphic to g, or None."""
    direct = _recognize_direct(g)
    if direct is not None:
        return direct
    # co(X) names no graph whose complement X is past the edge ceiling:
    # realising the name would build X first.
    if g.n * (g.n - 1) // 2 - len(g.edges) > EDGE_CAP or not _complement_may_be_named(g):
        return None
    co = _recognize_direct(complement(g))
    if co is not None:
        return Complement(co)
    return None
