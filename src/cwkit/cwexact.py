"""Exact clique-width for tiny graphs by exhaustive search over build states.

A build state fixes the set of already-created vertices, a partition of them
into label classes, and the set of target edges still missing.  The moves are
exactly the ones a label expression can perform:

* create a vertex (the one-vertex states),
* union two states over disjoint vertex sets, merging any classes that share
  a label at the union (realised here as a class matching),
* rename = merge two classes,
* join = make two classes fully adjacent, legal only when every cross pair is
  an edge of the target graph (edges are never removable, so a join that
  manufactures a non-edge can never appear in a correct build).

Every k-label expression walks through such states with at most k classes,
and conversely any such state walk can be labelled with at most k labels, so
searching the state space decides clique-width exactly.

Three sound reductions keep the space small:

* join folding: after every move all fully joinable class pairs that still
  build a missing edge are joined at once (building more true edges earlier
  only helps), so joins are never separate moves;
* dead-state pruning: a state is dropped when it can never be completed,
  that is when a class has a missing edge inside it, when two vertices of one
  class disagree on a neighbour outside the settled part, or when a missing
  edge u-x would need a join that also reaches a class-mate of u that is not
  adjacent to x;
* minimal union matchings: a union merges only as many class pairs as the
  label budget forces, because a larger matching equals a minimal one
  followed by renames, which the closure explores anyway.

``tests/test_cwexact.py`` checks all three against an unpruned search.

The search reads per-subset bitmask tables of the graph (``_Tables``), built
once per connected component and shared by the searches at every label
budget, so each test on a class is one or two ANDs.  A component with more
than ``TABLE_CAP`` vertices is refused with ``CapacityError`` before its
tables are allocated, whatever ``max_vertices`` allows.  ``cliquewidth`` starts
at a lower bound instead of k = 1: one label for an edgeless graph, three
when P4 is induced, two otherwise.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Optional

from .errors import CapacityError, InputError, InvariantViolation
from .graphs import Graph, _bits, induced_subgraph
from .cwexpr import Create, CwExpr, Join, Rename, Union, eval_cwexpr, width
from .patterns import has_induced

__all__ = ["cliquewidth_at_most", "cliquewidth", "DEFAULT_CAP", "TABLE_CAP"]

DEFAULT_CAP = 8
# The most vertices one component may have: its tables hold 2**n entries
# each.  Unlike DEFAULT_CAP, no argument lifts it.
TABLE_CAP = 16

_P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])


class _Tables:
    """Bitmask tables of one connected graph, indexed by vertex set S.

    Pair bits number the vertex pairs u < v in row order.

    * ``cn[S]``: vertices adjacent to every vertex of S;
    * ``split[S]``: vertices adjacent to some but not every vertex of S; a
      class S is dead once one of them lies outside the settled part;
    * ``ein[S]``: pair bits of the target edges with both ends in S;
    * ``bad[S]``: pair bits of the target edges from S to ``split[S]``.  If
      S is a class and such an edge u-x is missing, building it needs a join
      of x's class with S, which reaches a vertex of S that is not adjacent
      to x (or x lies in S itself): the state is dead.
    * ``by_size[s]``: the vertex sets of size s in increasing order.
    """

    def __init__(self, g: Graph):
        self.g = g
        n = g.n
        full = (1 << n) - 1
        pid = {}
        for u in range(n):
            for v in range(u + 1, n):
                pid[(u, v)] = len(pid)
        size = full + 1
        cn = [full] * size
        split = [0] * size
        ein = [0] * size
        un = [0] * size
        for s in range(1, size):
            low = s & -s
            v = low.bit_length() - 1
            rest = s ^ low
            cn[s] = cn[rest] & g.adj[v]
            un[s] = un[rest] | g.adj[v]
            split[s] = un[s] & ~cn[s]
            mask = ein[rest]
            for w in _bits(g.adj[v] & rest):
                mask |= 1 << pid[(v, w) if v < w else (w, v)]
            ein[s] = mask
        # An edge joins S to split[S] unless both its ends lie in S - split[S]
        # or both in split[S] - S.
        self.bad = [
            ein[s | x] & ~(ein[s & ~x] | ein[x & ~s]) for s, x in enumerate(split)
        ]
        self.cn, self.split, self.ein = cn, split, ein
        self.by_size: list[list[int]] = [[] for _ in range(n + 1)]
        for s in range(1, size):
            self.by_size[s.bit_count()].append(s)


class _Search:
    def __init__(self, tables: _Tables, k: int):
        self.t = tables
        self.g = tables.g
        self.n = tables.g.n
        self.k = k
        self.full = (1 << self.n) - 1
        # reach[S]: state -> parent record
        self.reach: dict[int, dict[tuple, tuple]] = {}
        self.accept: Optional[tuple] = None

    # -- small helpers ---------------------------------------------------

    def normalize(self, classes: tuple[int, ...], missing: int):
        """Apply every legal full join that still builds something."""
        cn, ein = self.t.cn, self.t.ein
        joins: list[tuple[int, int]] = []
        for a, b in combinations(classes, 2):
            if b & ~cn[a]:
                continue  # some cross pair is a non-edge
            cross = ein[a | b] & ~(ein[a] | ein[b])
            if cross & missing:
                joins.append((a, b))
                missing &= ~cross
        return missing, joins

    def stuck(self, classes: tuple[int, ...], missing: int) -> bool:
        """A missing edge no future join can build (see ``_Tables.bad``)."""
        if missing:
            bad = self.t.bad
            for c in classes:
                if bad[c] & missing:
                    return True
        return False

    # -- the search ------------------------------------------------------

    def run(self) -> bool:
        for size in range(1, self.n + 1):
            for placed in self.t.by_size[size]:
                self._close_subset(placed)
                if self.accept is not None:
                    return True
        return False

    def _close_subset(self, placed: int) -> None:
        states: dict[tuple, tuple] = {}
        queue: list[tuple] = []

        def push(classes: tuple[int, ...], missing: int, record: tuple) -> None:
            state = (classes, missing)
            if state in states:
                return
            states[state] = record
            queue.append(state)

        if placed.bit_count() == 1:
            v = placed.bit_length() - 1
            push((placed,), 0, ("create", v))
        else:
            lowbit = placed & -placed
            sub = (placed - 1) & placed
            while sub:
                if sub & lowbit:
                    part = placed ^ sub
                    if part:
                        self._seed_unions(placed, sub, part, push)
                sub = (sub - 1) & placed
        # close under renames (joins are folded into normalize); every state
        # in the queue is alive, so only the merged class can newly split on
        # an outside vertex or hold a missing edge
        split, ein = self.t.split, self.t.ein
        outside = self.full & ~placed
        while queue:
            classes, missing = queue.pop()
            if len(classes) < 2:
                continue
            for i, j in combinations(range(len(classes)), 2):
                merged = classes[i] | classes[j]
                if split[merged] & outside or ein[merged] & missing:
                    continue
                rest = tuple(
                    c for t, c in enumerate(classes) if t != i and t != j
                )
                new_classes = tuple(sorted(rest + (merged,)))
                m2, joins = self.normalize(new_classes, missing)
                if self.stuck(new_classes, m2):
                    continue
                push(
                    new_classes,
                    m2,
                    ("rename", placed, (classes, missing), (classes[i], classes[j]), joins),
                )
        self.reach[placed] = states
        if placed == self.full and self.accept is None:
            for (classes, missing) in states:
                if missing == 0:
                    self.accept = (classes, missing)
                    break

    def _seed_unions(self, placed: int, s1: int, s2: int, push) -> None:
        r1 = self.reach.get(s1)
        r2 = self.reach.get(s2)
        if not r1 or not r2:
            return
        split, ein = self.t.split, self.t.ein
        cross = ein[placed] & ~ein[s1] & ~ein[s2]
        outside = self.full & ~placed

        # An unmatched class of an alive operand stays alive; a matched pair
        # a, b is dead at once if a vertex outside splits a | b or an edge
        # joins a to b (it lies inside the merged class and is missing).
        def fits(a: int, b: int) -> bool:
            ab = a | b
            return not (split[ab] & outside or ein[ab] & cross)

        for (c1, m1) in r1:
            for (c2, m2) in r2:
                need = len(c1) + len(c2) - self.k
                base_missing = m1 | m2 | cross
                for match in self._matchings(c1, c2, max(0, need), fits):
                    matched1 = {a for a, _ in match}
                    matched2 = {b for _, b in match}
                    classes = tuple(
                        sorted(
                            [a | b for a, b in match]
                            + [c for c in c1 if c not in matched1]
                            + [c for c in c2 if c not in matched2]
                        )
                    )
                    missing, joins = self.normalize(classes, base_missing)
                    if self.stuck(classes, missing):
                        continue
                    push(
                        classes,
                        missing,
                        ("union", s1, (c1, m1), s2, (c2, m2), match, joins),
                    )

    def _matchings(self, c1, c2, size: int, fits):
        """Injective class pairings of exactly the given size whose pairs all
        fit, in the order of ``combinations(c1)`` then ``permutations(c2)``.

        Larger matchings are redundant: they equal a minimal matching
        followed by renames, which the closure explores anyway.
        """
        if size == 0:
            yield ()
            return
        if size > len(c1) or size > len(c2):
            return
        for picks in combinations(c1, size):
            partners = [[b for b in c2 if fits(a, b)] for a in picks]
            for perm in product(*partners):
                if len(set(perm)) == size:
                    yield tuple(zip(picks, perm))

    # -- witness reconstruction -------------------------------------------

    def witness(self) -> CwExpr:
        assert self.accept is not None
        classes, _ = self.accept
        assign = {c: i + 1 for i, c in enumerate(classes)}
        return self._emit(self.full, self.accept, assign)

    def _emit(self, placed: int, state: tuple, assign: dict[int, int]) -> CwExpr:
        record = self.reach[placed][state]
        kind = record[0]
        if kind == "create":
            v = record[1]
            expr: CwExpr = Create(assign[1 << v], self.g.name_of(v))
            return expr
        if kind == "rename":
            _, _, pre, (ca, cb), joins = record
            merged = ca | cb
            pre_assign = {c: assign[c] for c in pre[0] if c != ca and c != cb}
            pre_assign[ca] = assign[merged]
            fresh = 1
            while fresh in pre_assign.values():
                fresh += 1
            pre_assign[cb] = fresh
            expr = Rename(fresh, assign[merged], self._emit(placed, pre, pre_assign))
            return self._wrap_joins(expr, joins, assign)
        if kind == "union":
            _, s1, st1, s2, st2, match, joins = record
            merged_of = {}
            for a, b in match:
                merged_of[a] = a | b
                merged_of[b] = a | b
            assign1 = {c: assign[merged_of.get(c, c)] for c in st1[0]}
            assign2 = {c: assign[merged_of.get(c, c)] for c in st2[0]}
            expr = Union(self._emit(s1, st1, assign1), self._emit(s2, st2, assign2))
            return self._wrap_joins(expr, joins, assign)
        raise InputError(f"corrupt search record {record!r}")

    def _wrap_joins(self, expr: CwExpr, joins, assign: dict[int, int]) -> CwExpr:
        for a, b in joins:
            expr = Join(assign[a], assign[b], expr)
        return expr


def _components(g: Graph) -> list[_Tables]:
    """Tables for each connected component, ordered by least vertex; a
    component's vertices keep their names from g."""
    comps = g.component_masks()
    largest = max((c.bit_count() for c in comps), default=0)
    if largest > TABLE_CAP:
        raise CapacityError(
            f"exact clique-width tables support components of at most {TABLE_CAP} vertices, got {largest}"
        )
    if len(comps) == 1:
        return [_Tables(g)]
    parts = []
    for mask in comps:
        vertices = _bits(mask)
        names = {i: g.name_of(v) for i, v in enumerate(vertices)}
        sub = induced_subgraph(g, vertices)
        parts.append(_Tables(Graph(sub.n, sub.edges, names)))
    return parts


def _solve(parts: list[_Tables], k: int) -> Optional[CwExpr]:
    """A k-label expression for the graph with these components, or None.

    Components are solved independently: a build for a disjoint union is the
    union of component builds, and labels are reusable across union operands,
    so the label count needed is the maximum over components.
    """
    expr: Optional[CwExpr] = None
    for tables in parts:
        search = _Search(tables, k)
        if not search.run():
            return None
        part = search.witness()
        expr = part if expr is None else Union(expr, part)
    return expr


def _check_input(g: Graph, k: int, max_vertices: int) -> None:
    if max_vertices < 1:
        raise InputError(f"the vertex cap must be at least 1, got {max_vertices}")
    if g.n > max_vertices:
        raise CapacityError(
            f"exact clique-width is capped at {max_vertices} vertices, got {g.n}; "
            "raise max_vertices to override"
        )
    if k < 1:
        raise InputError("the label budget must be at least 1")
    if g.n == 0:
        raise InputError("the empty graph has no build expression")


def _verified(g: Graph, k: int, parts: list[_Tables]) -> Optional[CwExpr]:
    """_solve's expression, checked to rebuild g with at most k labels."""
    expr = _solve(parts, k)
    if expr is None:
        return None
    lab = eval_cwexpr(expr)
    ok = (
        lab.graph.n == g.n
        and width(expr) <= k
        and {frozenset((lab.graph.names[u], lab.graph.names[v])) for u, v in lab.graph.edges}
        == {frozenset((g.name_of(u), g.name_of(v))) for u, v in g.edges}
    )
    if not ok:
        raise InvariantViolation("reconstructed expression does not rebuild the target graph")
    return expr


def cliquewidth_at_most(
    g: Graph, k: int, max_vertices: int = DEFAULT_CAP
) -> tuple[bool, Optional[CwExpr]]:
    """Decide whether some k-label expression builds g; return a witness if so."""
    _check_input(g, k, max_vertices)
    expr = _verified(g, k, _components(g))
    return expr is not None, expr


def _lower_bound(g: Graph) -> int:
    """One label for no edges; cographs (no induced P4) need two; else three."""
    if not g.edges:
        return 1
    return 3 if has_induced(g, _P4) else 2


def cliquewidth(g: Graph, max_vertices: int = DEFAULT_CAP) -> tuple[int, CwExpr]:
    """The exact clique-width of g with a witness expression."""
    _check_input(g, 1, max_vertices)
    parts = _components(g)
    for k in range(_lower_bound(g), g.n + 1):
        expr = _verified(g, k, parts)
        if expr is not None:
            return k, expr
    raise InputError("unreachable: every graph on n vertices has an n-label build")
