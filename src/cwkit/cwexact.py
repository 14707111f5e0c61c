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

Two sound reductions keep the space small: after every move all fully
joinable class pairs are joined at once (building more true edges earlier
only helps), and states violating a permanent-death condition are dropped
(a missing edge inside one class, or two same-class vertices that disagree
on a neighbour outside the settled part, can never be repaired).
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Optional

from .errors import CapacityError, InputError, InvariantViolation
from .graphs import Graph, _bits, induced_subgraph
from .cwexpr import Create, CwExpr, Join, Rename, Union, eval_cwexpr, width

__all__ = ["cliquewidth_at_most", "cliquewidth", "DEFAULT_CAP"]

DEFAULT_CAP = 8


class _Search:
    def __init__(self, g: Graph, k: int):
        self.g = g
        self.n = g.n
        self.k = k
        self.full = (1 << g.n) - 1
        # pair-id layout for edge bitmasks
        self.pid: dict[tuple[int, int], int] = {}
        self.pairs: list[tuple[int, int]] = []
        for u in range(g.n):
            for v in range(u + 1, g.n):
                self.pid[(u, v)] = len(self.pairs)
                self.pairs.append((u, v))
        self.target = 0
        for u, v in g.edges:
            self.target |= 1 << self.pid[(u, v)]
        self._edges_in: dict[int, int] = {}
        # reach[S]: state -> parent record
        self.reach: dict[int, dict[tuple, tuple]] = {}
        self.accept: Optional[tuple] = None

    # -- small helpers ---------------------------------------------------

    def edges_inside(self, vset: int) -> int:
        """Target-edge bits with both endpoints in vset."""
        cached = self._edges_in.get(vset)
        if cached is not None:
            return cached
        mask = 0
        for p, (u, v) in enumerate(self.pairs):
            if vset >> u & 1 and vset >> v & 1 and self.target >> p & 1:
                mask |= 1 << p
        self._edges_in[vset] = mask
        return mask

    def cross_pairs(self, a: int, b: int) -> int:
        """All pair bits with one endpoint in class a, the other in class b."""
        mask = 0
        for u in _bits(a):
            for v in _bits(b):
                mask |= 1 << self.pid[(u, v) if u < v else (v, u)]
        return mask

    def joinable(self, a: int, b: int) -> bool:
        adj = self.g.adj
        return all(b & ~adj[u] == 0 for u in _bits(a))

    def normalize(self, classes: tuple[int, ...], missing: int):
        """Apply every legal full join that still builds something."""
        joins: list[tuple[int, int]] = []
        for a, b in combinations(classes, 2):
            if not self.joinable(a, b):
                continue
            cross = self.cross_pairs(a, b)
            if cross & missing:
                joins.append((a, b))
                missing &= ~cross
        return missing, joins

    def dead(self, classes: tuple[int, ...], missing: int, placed: int) -> bool:
        g = self.g
        outside = self.full & ~placed
        for cls in classes:
            members = _bits(cls)
            if len(members) == 1:
                continue
            base = g.adj[members[0]] & outside
            for u in members[1:]:
                if g.adj[u] & outside != base:
                    return True  # divergent futures outside the settled part
            for u, v in combinations(members, 2):
                key = (u, v) if u < v else (v, u)
                if key in g.edges and missing >> self.pid[key] & 1:
                    return True  # an edge inside one class can never be built
        if missing:
            # A missing edge u-x forces a future join of u's and x's classes;
            # that join hits every same-class sibling of u, so each sibling
            # must also be adjacent to x in the target.
            cls_of = {}
            for cls in classes:
                for u in _bits(cls):
                    cls_of[u] = cls
            rem = missing
            while rem:
                low = rem & -rem
                rem ^= low
                u, x = self.pairs[low.bit_length() - 1]
                if cls_of[u] & ~self.g.adj[x] & ~(1 << u):
                    return True
                if cls_of[x] & ~self.g.adj[u] & ~(1 << x):
                    return True
        return False

    # -- the search ------------------------------------------------------

    def run(self) -> bool:
        for size in range(1, self.n + 1):
            for placed in range(1, self.full + 1):
                if placed.bit_count() != size:
                    continue
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
        # close under renames (joins are folded into normalize)
        while queue:
            classes, missing = queue.pop()
            if len(classes) < 2:
                continue
            for i, j in combinations(range(len(classes)), 2):
                merged = classes[i] | classes[j]
                rest = tuple(
                    c for t, c in enumerate(classes) if t != i and t != j
                )
                new_classes = tuple(sorted(rest + (merged,)))
                m2, joins = self.normalize(new_classes, missing)
                if self.dead(new_classes, m2, placed):
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
        cross = (
            self.edges_inside(placed)
            & ~self.edges_inside(s1)
            & ~self.edges_inside(s2)
        )
        for (c1, m1) in r1:
            for (c2, m2) in r2:
                need = len(c1) + len(c2) - self.k
                base_missing = m1 | m2 | cross
                for match in self._matchings(c1, c2, max(0, need)):
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
                    if self.dead(classes, missing, placed):
                        continue
                    push(
                        classes,
                        missing,
                        ("union", s1, (c1, m1), s2, (c2, m2), match, joins),
                    )

    def _matchings(self, c1, c2, size: int):
        """Injective class pairings of exactly the given size.

        Larger matchings are redundant: they equal a minimal matching
        followed by renames, which the closure explores anyway.
        """
        if size == 0:
            yield ()
            return
        if size > len(c1) or size > len(c2):
            return
        for picks in combinations(c1, size):
            for perm in permutations(c2, size):
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


def _solve(g: Graph, k: int) -> Optional[CwExpr]:
    """A k-label expression for g, or None.

    Components are solved independently: a build for a disjoint union is the
    union of component builds, and labels are reusable across union operands,
    so the label count needed is the maximum over components.
    """
    comps = g.component_masks()
    if len(comps) > 1:
        parts = []
        for mask in comps:
            vertices = _bits(mask)
            names = {i: g.name_of(v) for i, v in enumerate(vertices)}
            sub = induced_subgraph(g, vertices)
            sub = Graph(sub.n, sub.edges, names)
            part = _solve(sub, k)
            if part is None:
                return None
            parts.append(part)
        expr = parts[0]
        for part in parts[1:]:
            expr = Union(expr, part)
        return expr
    search = _Search(g, k)
    if not search.run():
        return None
    return search.witness()


def cliquewidth_at_most(
    g: Graph, k: int, max_vertices: int = DEFAULT_CAP
) -> tuple[bool, Optional[CwExpr]]:
    """Decide whether some k-label expression builds g; return a witness if so."""
    if g.n > max_vertices:
        raise CapacityError(
            f"exact clique-width is capped at {max_vertices} vertices, got {g.n}; "
            "raise max_vertices to override"
        )
    if k < 1:
        raise InputError("the label budget must be at least 1")
    if g.n == 0:
        raise InputError("the empty graph has no build expression")
    expr = _solve(g, k)
    if expr is None:
        return False, None
    lab = eval_cwexpr(expr)
    ok = (
        lab.graph.n == g.n
        and width(expr) <= k
        and {frozenset((lab.graph.names[u], lab.graph.names[v])) for u, v in lab.graph.edges}
        == {frozenset((g.name_of(u), g.name_of(v))) for u, v in g.edges}
    )
    if not ok:
        raise InvariantViolation("reconstructed expression does not rebuild the target graph")
    return True, expr


def cliquewidth(g: Graph, max_vertices: int = DEFAULT_CAP) -> tuple[int, CwExpr]:
    """The exact clique-width of g with a witness expression."""
    for k in range(1, max(g.n, 1) + 1):
        ok, expr = cliquewidth_at_most(g, k, max_vertices=max_vertices)
        if ok:
            assert expr is not None
            return k, expr
    raise InputError("unreachable: every graph on n vertices has an n-label build")
