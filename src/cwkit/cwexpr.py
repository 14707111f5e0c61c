"""Label-expression terms: parse, validate, evaluate, and count labels.

A term builds a labelled graph from four operations: create a labelled vertex
("3(a)"), disjoint union ("e1 + e2"), join every label-i vertex to every
label-j vertex ("eta(i,j; e)", i != j), and rename a label ("rho(i->j; e)").
The number of distinct labels appearing anywhere in a term is its width; the
least width over all terms building a graph is that graph's clique-width.

A vertex name is written bare when it is an identifier other than ``eta``
and ``rho``, or a run of digits, and in double quotes otherwise
(``2("x_{2,2}")``), so every name that ``Create`` accepts survives a round
trip through text; a name may hold no double quote and no line break.

Expression files are UTF-8 text in this grammar, one expression per file;
'#' begins a comment line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Optional

from .errors import InputError, ParseError, _Tokens
from .graphs import Graph

__all__ = [
    "Create",
    "Union",
    "Join",
    "Rename",
    "CwExpr",
    "LabelledGraph",
    "parse_cwexpr",
    "parse_cwexpr_file",
    "eval_cwexpr",
    "width",
    "format_cwexpr",
]


class _Term:
    """Structural ``==``, ``hash`` and ``repr`` for the term classes, with
    the meaning of the dataclass-generated ones (same node types, same
    labels, same vertex names) but walked with explicit stacks, so terms of
    any depth compare, hash and print without recursion."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if not isinstance(a, _Term):
                if a != b:
                    return False
            elif a.__class__ is not b.__class__:
                return False
            else:
                stack.extend(zip(a._fields(), b._fields()))
        return True

    def __hash__(self) -> int:
        done: dict[int, int] = {}
        for e in _postorder(self):
            parts = (done[id(v)] if isinstance(v, _Term) else v for v in e._fields())
            done[id(e)] = hash((e.__class__.__name__, *parts))
        return done[id(self)]

    def __repr__(self) -> str:
        # Strings on the stack are finished text; terms are still to print.
        out: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            parts: list = [f"{item.__class__.__qualname__}("]
            for t, f in enumerate(fields(item)):
                value = getattr(item, f.name)
                parts.append(f"{', ' if t else ''}{f.name}=")
                parts.append(value if isinstance(value, _Term) else repr(value))
            parts.append(")")
            stack.extend(reversed(parts))
        return "".join(out)


@dataclass(frozen=True, eq=False, repr=False)
class Create(_Term):
    label: int
    vertex: str

    def __post_init__(self):
        if self.label < 1:
            raise InputError(f"label {self.label} must be a positive integer")
        if not self.vertex:
            raise InputError("vertex names must be non-empty")
        if '"' in self.vertex or self.vertex.splitlines() != [self.vertex]:
            raise InputError(f"vertex name {self.vertex!r} holds a double quote or a line break")


@dataclass(frozen=True, eq=False, repr=False)
class Union(_Term):
    left: "CwExpr"
    right: "CwExpr"


@dataclass(frozen=True, eq=False, repr=False)
class Join(_Term):
    i: int
    j: int
    sub: "CwExpr"

    def __post_init__(self):
        if self.i < 1 or self.j < 1:
            raise InputError("labels must be positive integers")
        if self.i == self.j:
            raise InputError(f"eta({self.i},{self.j}): join labels must differ")


@dataclass(frozen=True, eq=False, repr=False)
class Rename(_Term):
    i: int
    j: int
    sub: "CwExpr"

    def __post_init__(self):
        if self.i < 1 or self.j < 1:
            raise InputError("labels must be positive integers")


CwExpr = Create | Union | Join | Rename


@dataclass(frozen=True)
class LabelledGraph:
    """A graph together with one positive label per vertex."""

    graph: Graph
    label_of: tuple[int, ...]


def _postorder(expr: CwExpr) -> list[CwExpr]:
    """Every node of the term, children before parents and left before right.

    An explicit stack, so terms of any depth (a flat union of thousands of
    vertices is a left-deep chain) are walked without recursion.
    """
    out: list[CwExpr] = []
    stack = [expr]
    while stack:
        e = stack.pop()
        out.append(e)
        match e:
            case Create():
                pass
            case Union(left, right):
                stack.append(left)
                stack.append(right)
            case Join(_, _, sub) | Rename(_, _, sub):
                stack.append(sub)
            case _:
                raise InputError(f"unknown expression node {e!r}")
    out.reverse()
    return out


def validate(expr: CwExpr) -> None:
    """Reject duplicate vertex names (union operands must be disjoint)."""
    seen = set()
    for e in _postorder(expr):
        if isinstance(e, Create):
            if e.vertex in seen:
                raise InputError(f"vertex name {e.vertex!r} appears more than once")
            seen.add(e.vertex)


def eval_cwexpr(expr: CwExpr) -> LabelledGraph:
    """Evaluate to a labelled graph; vertices are numbered in creation order."""
    validate(expr)
    names: list[str] = []
    labels: list[int] = []
    edges: set[tuple[int, int]] = set()
    # Each finished subterm owns the contiguous range [start, end) of vertex
    # numbers, because creations are met left to right.
    spans: list[tuple[int, int]] = []
    for e in _postorder(expr):
        match e:
            case Create(label, name):
                spans.append((len(names), len(names) + 1))
                names.append(name)
                labels.append(label)
            case Union():
                _, end = spans.pop()
                start, _ = spans.pop()
                spans.append((start, end))
            case Join(i, j, _):
                start, end = spans[-1]
                left = [v for v in range(start, end) if labels[v] == i]
                right = [v for v in range(start, end) if labels[v] == j]
                for u in left:
                    for v in right:
                        edges.add((min(u, v), max(u, v)))
            case Rename(i, j, _):
                start, end = spans[-1]
                for v in range(start, end):
                    if labels[v] == i:
                        labels[v] = j
    g = Graph(len(names), edges, dict(enumerate(names)))
    return LabelledGraph(g, tuple(labels))


def width(expr: CwExpr) -> int:
    """Number of distinct labels occurring anywhere in the expression."""
    labels: set[int] = set()
    for e in _postorder(expr):
        match e:
            case Create(label, _):
                labels.add(label)
            case Join(i, j, _) | Rename(i, j, _):
                labels.add(i)
                labels.add(j)
    return len(labels)


# -- concrete syntax -------------------------------------------------------

# A vertex name is an identifier, a run of digits, or any text without a
# double quote or a line break, in double quotes.
_NAME = re.compile(r'[A-Za-z_][A-Za-z0-9_]*|"[^"\n]*"')
_SYMBOLS = ("->", "+", "(", ")", ",", ";")
_KEYWORDS = ("eta", "rho")
_BARE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+")


def _parse_expr(toks: _Tokens) -> CwExpr:
    """expr := prim ('+' prim)*, where a prim is a creation, ``eta(i,j; expr)``,
    ``rho(i->j; expr)`` or ``(expr)``.

    Iterative: each open ``eta``/``rho``/parenthesis pushes a frame holding
    its node type (None for a parenthesis) and the union built so far outside
    it, so nesting depth is not bounded by the interpreter's recursion limit.
    """
    frames: list[tuple[Optional[type], int, int, int, Optional[CwExpr]]] = []
    acc: Optional[CwExpr] = None
    while True:
        kind, value, pos = toks.next()
        if kind == "kw":
            toks.expect("sym", "(")
            i = int(toks.expect("int")[1])
            toks.expect("sym", "," if value == "eta" else "->")
            j = int(toks.expect("int")[1])
            toks.expect("sym", ";")
            frames.append((Join if value == "eta" else Rename, i, j, pos, acc))
            acc = None
            continue
        if kind == "sym" and value == "(":
            frames.append((None, 0, 0, pos, acc))
            acc = None
            continue
        if kind != "int":
            raise ParseError("expected an expression", toks.text, pos)
        toks.expect("sym", "(")
        name = toks.next()
        if name[0] not in ("word", "int"):
            raise ParseError("expected a vertex name", toks.text, name[2])
        toks.expect("sym", ")")
        prim = toks.build(pos, Create, int(value), name[1][1:-1] if name[1][0] == '"' else name[1])
        # Fold the finished prim into the open union; close every frame the
        # input closes here.
        while True:
            acc = prim if acc is None else Union(acc, prim)
            nxt = toks.peek()
            if nxt is not None and nxt[1] == "+":
                toks.next()
                break
            if not frames:
                return acc
            node, i, j, pos, outer = frames.pop()
            toks.expect("sym", ")")
            prim = acc if node is None else toks.build(pos, node, i, j, acc)
            acc = outer


def parse_cwexpr(text: str) -> CwExpr:
    toks = _Tokens(text, _SYMBOLS, _NAME, _KEYWORDS, "expression")
    expr = _parse_expr(toks)
    extra = toks.peek()
    if extra is not None:
        raise ParseError("trailing input after expression", text, extra[2])
    validate(expr)
    return expr


def parse_cwexpr_file(text: str) -> CwExpr:
    """Parse a one-expression file; '#' lines are comments."""
    lines = [ln for ln in text.splitlines() if not ln.lstrip().startswith("#")]
    return parse_cwexpr(" ".join(lines))


def format_cwexpr(expr: CwExpr) -> str:
    out: list[str] = []
    stack: list[CwExpr | str] = [expr]
    while stack:
        item = stack.pop()
        match item:
            case str():
                out.append(item)
            case Create(label, name):
                bare = _BARE.fullmatch(name) and name not in _KEYWORDS
                out.append(f"{label}({name})" if bare else f'{label}("{name}")')
            case Union(left, right) if isinstance(right, Union):
                stack += [")", right, " + (", left]
            case Union(left, right):
                stack += [right, " + ", left]
            case Join(i, j, sub):
                stack += [")", sub, f"eta({i},{j}; "]
            case Rename(i, j, sub):
                stack += [")", sub, f"rho({i}->{j}; "]
            case _:
                raise InputError(f"cannot format {item!r}")
    return "".join(out)
