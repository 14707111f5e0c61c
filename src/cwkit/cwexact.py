"""Exact clique-width for small graphs: a modular decomposition, then an
exhaustive search over build states on each prime quotient, closed from
above by the quotient's linear-width bound.

Clique-width is the largest width that a node of the graph's modular
decomposition needs for its quotient (Courcelle–Olariu 2000).  A vertex set
of two or more splits in one of three ways (Gallai):

* parallel: the graph is disconnected; the children are its components and
  the expression is the union of theirs (one label suffices);
* series: the complement is disconnected; the children are its
  co-components, folded in on two labels: the part so far on label 1, the
  next child renamed to 2, a join (1,2), then 2 renamed to 1 before the next
  child (two labels suffice, and cliques need them);
* prime: both are connected; the children are the maximal proper modules,
  which partition the set, and the quotient has one vertex per module,
  adjacent as their least vertices are.  The search below builds the
  quotient, and where it creates a quotient vertex it emits that module's
  expression with all its labels renamed to the vertex's label.  A module's
  vertices share every neighbour outside it, so the expression builds the
  whole graph with no more labels than the quotient and the children need.

A prime graph is its own quotient and is searched as itself.  The tree is
built once per call and walked with explicit stacks, and a parallel or
series node splits off all its children at once, so K_n and nK1 are one
level and no recursion grows with n.

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

Four sound reductions keep the space small:

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
  followed by renames, which the closure explores anyway;
* the outside-neighbourhood bound: no alive class has a vertex of
  ``split[c]`` outside the settled part, so a class's vertices share their
  neighbourhood outside it, and a settled set whose vertices have more than
  k distinct outside neighbourhoods (``_Tables.out``) has no state; it is
  skipped.

``tests/test_cwexact.py`` checks all four against an unpruned search, and
the decomposition against the search on the whole graph.

The states of one settled set are found in one flat loop
(``_Search._close_subset``): the unions of every split into two smaller
settled sets, then the closure under renames, each new state passing one
local function that folds in the joins, drops it if dead and pushes it
unless known.  The sets are taken by size, so a split's two sides are
complete before it is read.

The width is decided in one bottom-up walk of the tree (``_build``), which
keeps the largest width needed so far: one at a leaf or parallel node, two
at a series node.  A prime node first takes its quotient's linear-width
bound u (``_linear_bound``): the least width of a build that adds the
vertices one at a time, each on a label of its own, over all vertex orders,
from a subset DP that reads
the same outside-neighbourhood counts as the search.  Then it searches its
quotient at the width needed so far, but never below 3 (the quotient
induces P4) or below the first budget tried, one label more each time,
but only below u.  The first search that succeeds gives the width the node
needs and its witness.  When none does, the width is u and the witness is
the linear build along the DP's order (``_linear_witness``): no search runs
at u, and none at all when u is at most the first budget.  When u is past
the last budget, every budget is searched and the node fails if none
succeeds.  Each search reads per-subset bitmask tables of the quotient
(``_Tables``), built once per node, so each test on a class is one or two
ANDs.  ``cliquewidth`` walks with the budgets 1..n and
``cliquewidth_at_most`` with its one budget k.  A prime node with more than
``TABLE_CAP`` children is refused with ``CapacityError`` while the tree is
built, before any table is allocated, whatever ``max_vertices`` allows;
``max_vertices`` caps the whole graph.  One search that would hold more than
``STATE_CAP`` states raises ``CapacityError`` too.  The states are counted
as each settled set's loop runs, not in ``admit``: one set can hold most of
them (a search of the 14-vertex graph ``MhZcxlIigyy`Fmw}_`` in graph6 at 7
labels holds 144,000 states before its last set, and that set alone ran
past 2 million and out of 1 GiB; the bound now gives that graph width 7
with no search at 7).
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Optional

from .errors import CapacityError, InputError, InvariantViolation
from .graphs import Graph, _bits, _component_masks
from .cwexpr import Create, CwExpr, Join, Rename, Union, eval_cwexpr, width

__all__ = ["cliquewidth_at_most", "cliquewidth", "DEFAULT_CAP", "STATE_CAP", "TABLE_CAP"]

DEFAULT_CAP = 8
# The most vertices a prime quotient may have: its tables hold 2**n entries
# each.  Unlike DEFAULT_CAP, no argument lifts it.
TABLE_CAP = 16
# The most build states one search (one prime quotient at one label budget)
# may hold, over all its vertex sets.  A state and its record take some 400
# bytes, so a search stays under about half a GiB.  No argument lifts it.
# The circulant C15(1, 4), ``NhdHGcH@GCoHOHGCq@G`` in graph6, has bound 8
# and reaches it at 7 labels.
STATE_CAP = 1_000_000


class _Tables:
    """Bitmask tables of one connected graph, indexed by vertex set S.

    The pair u < v is bit v(v-1)/2 + u, as in graph6 and the scan's planes.

    * ``cn[S]``: vertices adjacent to every vertex of S;
    * ``split[S]``: vertices adjacent to some but not every vertex of S; a
      class S is dead once one of them lies outside the settled part;
    * ``ein[S]``: pair bits of the target edges with both ends in S;
    * ``bad[S]``: pair bits of the target edges from S to ``split[S]``.  If
      S is a class and such an edge u-x is missing, building it needs a join
      of x's class with S, which reaches a vertex of S that is not adjacent
      to x (or x lies in S itself): the state is dead.
    * ``out[S]``: the number of distinct outside neighbourhoods N(v) - S
      over the vertices v of S.  A state on the settled set S needs a class
      for each, and a linear build that adds a vertex to S needs one label
      more; the search and ``_linear_bound`` both read it.
    * ``by_size[s]``: the vertex sets of size s in increasing order.
    """

    def __init__(self, g: Graph):
        self.g = g
        n = g.n
        full = (1 << n) - 1
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
            for w in _bits(g.adj[v] & rest):  # v is the least vertex of s, so v < w
                mask |= 1 << (w * (w - 1) // 2 + v)
            ein[s] = mask
        # An edge joins S to split[S] unless both its ends lie in S - split[S]
        # or both in split[S] - S.
        self.bad = [
            ein[s | x] & ~(ein[s & ~x] | ein[x & ~s]) for s, x in enumerate(split)
        ]
        self.cn, self.split, self.ein = cn, split, ein
        adj = g.adj
        self.out = [0] + [len({adj[v] & ~s for v in _bits(s)}) for s in range(1, size)]
        self.by_size: list[list[int]] = [[] for _ in range(n + 1)]
        for s in range(1, size):
            self.by_size[s.bit_count()].append(s)


class _Search:
    def __init__(self, tables: _Tables, k: int):
        self.t = tables
        self.n = tables.g.n
        self.k = k
        self.full = (1 << self.n) - 1
        # reach[S]: state -> parent record
        self.reach: dict[int, dict[tuple, tuple]] = {}
        self.held = 0  # states in ``reach``
        self.accept: Optional[tuple] = None

    def run(self) -> bool:
        for size in range(1, self.n + 1):
            for placed in self.t.by_size[size]:
                self._close_subset(placed)
                if self.accept is not None:
                    return True
        return False

    def _close_subset(self, placed: int) -> None:
        """Every alive state on ``placed``: seeded by the unions of two
        smaller subsets' states, then closed under renames, in one loop."""
        t, k, reach = self.t, self.k, self.reach
        cn, split, ein, bad = t.cn, t.split, t.ein, t.bad
        outside = self.full & ~placed
        # A class's vertices share their outside neighbourhood, so a state
        # here needs a class for each distinct one.
        if t.out[placed] > k:
            reach[placed] = {}
            return
        states: dict[tuple, tuple] = {}
        queue: list[tuple] = []
        room = STATE_CAP - self.held

        def admit(classes: tuple[int, ...], missing: int, head: tuple) -> None:
            """Fold in every legal full join that still builds a missing
            edge, drop the state if a missing edge can no longer be built
            (see ``_Tables.bad``), and push it unless it is already known;
            its record is ``head`` plus the joins."""
            joins: list[tuple[int, int]] = []
            if missing:
                for a, b in combinations(classes, 2):
                    if b & ~cn[a]:
                        continue  # some cross pair is a non-edge
                    built = ein[a | b] & ~(ein[a] | ein[b])
                    if built & missing:
                        joins.append((a, b))
                        missing &= ~built
                for c in classes:
                    if bad[c] & missing:
                        return
            state = (classes, missing)
            if state not in states:
                states[state] = (*head, joins)
                queue.append(state)

        lowbit = placed & -placed
        if placed == lowbit:
            # one class: no union seeds it and no rename leaves it
            states[((placed,), 0)] = ("create", lowbit.bit_length() - 1)
        # Seed the unions of s1 and s2 = placed - s1, s1 holding the least
        # vertex, in decreasing order of s1; each merges exactly the class
        # pairs the label budget forces.  An unmatched class of an alive
        # operand stays alive; a matched pair a, b is dead at once if a
        # vertex outside splits a | b or an edge joins a to b (it lies
        # inside the merged class and is missing).
        rest = placed ^ lowbit
        r = rest
        while r:
            r = (r - 1) & rest
            s1 = r | lowbit
            r1 = reach.get(s1)
            if not r1:
                continue
            s2 = placed ^ s1
            r2 = reach.get(s2)
            if not r2:
                continue
            cross = ein[placed] & ~ein[s1] & ~ein[s2]
            for st1 in r1:
                if len(states) > room:
                    self._over_cap()
                c1, m1 = st1
                for st2 in r2:
                    c2, m2 = st2
                    need = len(c1) + len(c2) - k
                    base = m1 | m2 | cross
                    if need <= 0:
                        admit(tuple(sorted(c1 + c2)), base, ("union", s1, st1, s2, st2, ()))
                        continue
                    # injective pairings of the picks with fitting partners,
                    # in the order of combinations(c1) then product
                    for picks in combinations(c1, need):
                        partners = []
                        for a in picks:
                            fit = []
                            for b in c2:
                                ab = a | b
                                if not (split[ab] & outside or ein[ab] & cross):
                                    fit.append(b)
                            if not fit:
                                break  # this pick has no partner
                            partners.append(fit)
                        else:
                            kept = [c for c in c1 if c not in picks]
                            for perm in product(*partners):
                                if len(set(perm)) < need:
                                    continue
                                match = tuple(zip(picks, perm))
                                classes = tuple(
                                    sorted([a | b for a, b in match] + kept + [c for c in c2 if c not in perm])
                                )
                                admit(classes, base, ("union", s1, st1, s2, st2, match))
        # Close under renames (joins are folded into admit).  Every queued
        # state is alive, so only the merged class can newly split on an
        # outside vertex or hold a missing edge.
        while queue:
            if len(states) > room:
                self._over_cap()
            state = queue.pop()
            classes, missing = state
            for i, j in combinations(range(len(classes)), 2):
                ci, cj = classes[i], classes[j]
                merged = ci | cj
                if split[merged] & outside or ein[merged] & missing:
                    continue
                new = tuple(sorted(classes[:i] + classes[i + 1 : j] + classes[j + 1 :] + (merged,)))
                admit(new, missing, ("rename", placed, state, (ci, cj)))
        reach[placed] = states
        self.held += len(states)
        if self.held > STATE_CAP:
            self._over_cap()
        if placed == self.full and self.accept is None:
            for state in states:
                if state[1] == 0:
                    self.accept = state
                    break

    def _over_cap(self) -> None:
        raise CapacityError(
            f"exact clique-width search capped at {STATE_CAP} build states; a prime quotient of "
            f"{self.n} vertices needs more at {self.k} labels"
        )

    # -- witness reconstruction -------------------------------------------

    def witness(self, leaves: list[tuple[CwExpr, int]]) -> CwExpr:
        """The accepted build, with each vertex v's module expression
        ``leaves[v]`` relabelled to the label v is created with."""
        assert self.accept is not None
        classes, _ = self.accept
        assign = {c: i + 1 for i, c in enumerate(classes)}
        return self._emit(self.full, self.accept, assign, leaves)

    def _emit(self, placed: int, state: tuple, assign: dict[int, int], leaves) -> CwExpr:
        record = self.reach[placed][state]
        if record[0] == "create":
            return _relabel(leaves[record[1]], assign[placed])
        if record[0] == "rename":
            _, _, pre, (ca, cb), joins = record
            merged = ca | cb
            pre_assign = {c: assign[c] for c in pre[0] if c != ca and c != cb}
            pre_assign[ca] = assign[merged]
            fresh = 1
            while fresh in pre_assign.values():
                fresh += 1
            pre_assign[cb] = fresh
            expr: CwExpr = Rename(fresh, assign[merged], self._emit(placed, pre, pre_assign, leaves))
        else:
            _, s1, st1, s2, st2, match, joins = record
            merged_of = {}
            for a, b in match:
                merged_of[a] = a | b
                merged_of[b] = a | b
            assign1 = {c: assign[merged_of.get(c, c)] for c in st1[0]}
            assign2 = {c: assign[merged_of.get(c, c)] for c in st2[0]}
            expr = Union(self._emit(s1, st1, assign1, leaves), self._emit(s2, st2, assign2, leaves))
        for a, b in joins:
            expr = Join(assign[a], assign[b], expr)
        return expr


def _linear_bound(t: _Tables) -> tuple[int, list[int]]:
    """(u, order): the least width u of a linear build of t's graph, and a
    vertex order whose build has width u.

    A linear build adds the vertices one at a time, each on a label of its
    own, and merges the labels of vertices that no longer differ.  Before v
    joins the
    placed set T, T's vertices need a label for each distinct outside
    neighbourhood (``t.out[T]``) and v one more.  So f(T), the least width
    of placing T first in any order, has f(T + v) = min over v of
    max(f(T), out[T] + 1): a subset DP in O(2^n n) steps (the ordering DP of
    Bodlaender, Fomin, Koster, Kratsch and Thilikos 2012).  ``step[T]`` is
    max(f(T), out[T] + 1), the width a build of T needs once it adds a
    vertex.  On ties the least vertex is added last, so the order is fixed.
    u is the width of a linear expression, so it bounds the graph's linear
    clique-width (Heggernes, Meister and Papadopoulos 2011) and clique-width
    from above; it is one more than both on an edgeless graph of two or
    more vertices, whose new vertices could share a label.
    """
    full = (1 << t.g.n) - 1
    out = t.out
    step = [1] * (full + 1)
    last = [0] * (full + 1)
    for s in range(1, full + 1):
        vs = _bits(s)
        widths = [step[s ^ (1 << v)] for v in vs]
        least = min(widths)
        last[s] = vs[widths.index(least)]
        step[s] = max(least, out[s] + 1)
    order = []
    s = full
    while s:
        order.append(last[s])
        s ^= 1 << last[s]
    order.reverse()
    return least, order  # the loop ended on the whole set: least is u


def _linear_witness(g: Graph, order: list[int], leaves: list[tuple[CwExpr, int]]) -> CwExpr:
    """The linear build of g along ``order``, with each vertex v's module
    expression ``leaves[v]`` relabelled to the label v is created with.

    v is created on the least free label and joined to every class whose
    outside neighbourhood holds it; then the classes whose outside
    neighbourhoods became equal merge onto the least of their labels.  The
    labels in use never pass the bound of ``_linear_bound`` for this order,
    and every vertex ends on label 1.
    """
    labels: dict[int, int] = {}  # a class's outside neighbourhood -> its label
    placed = 0
    expr: Optional[CwExpr] = None
    for v in order:
        fresh = 1
        while fresh in labels.values():
            fresh += 1
        leaf = _relabel(leaves[v], fresh)
        expr = leaf if expr is None else Union(expr, leaf)
        classes = sorted((label, nbrs) for nbrs, label in labels.items())
        for label, nbrs in classes:
            if nbrs >> v & 1:
                expr = Join(label, fresh, expr)
        placed |= 1 << v
        labels = {}
        for label, nbrs in sorted(classes + [(fresh, g.adj[v])]):
            nbrs &= ~placed
            if nbrs in labels:
                expr = Rename(label, labels[nbrs], expr)
            else:
                labels[nbrs] = label
    return expr


def _grow(adj, whole: int, group: tuple[int, int, int], w: int, forbidden: int) -> Optional[tuple[int, int, int]]:
    """Grow ``group`` by vertex w to the least module of the graph induced by
    ``whole`` that holds both, or None once that module meets ``forbidden``
    or is all of ``whole``.

    A group is (module, common, seen): ``common`` and ``seen`` hold the
    vertices adjacent to every and to some vertex of the module, so the
    vertices outside it in ``seen & ~common`` split it and must join.  Each
    vertex's mask is folded in once, when it joins.
    """
    module, common, seen = group
    new = 1 << w
    while new:
        for x in _bits(new):
            common &= adj[x]
            seen |= adj[x]
        module |= new
        new = seen & ~common & whole & ~module
        if new & forbidden:
            return None
    return None if module == whole else (module, common, seen)


def _maximal_modules(adj, whole: int) -> list[int]:
    """The maximal proper modules of the graph induced by ``whole``, ordered
    by least vertex.  That graph and its complement must be connected; then
    these modules partition ``whole`` (Gallai), and a module that meets two
    of them is all of ``whole``.

    So each vertex, in increasing order, joins the first module found so far
    whose closure with it stays clear of the others, or else starts a new
    one.  More than ``TABLE_CAP`` modules raise ``CapacityError`` as soon as
    the one past the cap starts.
    """
    groups: list[tuple[int, int, int]] = []
    placed = 0
    for w in _bits(whole):
        if placed >> w & 1:
            continue
        for t, group in enumerate(groups):
            grown = _grow(adj, whole, group, w, placed & ~group[0])
            if grown is not None:
                groups[t] = grown
                placed |= grown[0]
                break
        else:
            if len(groups) == TABLE_CAP:
                raise CapacityError(
                    f"exact clique-width tables support prime quotients of at most {TABLE_CAP} vertices, "
                    f"got {whole.bit_count()} vertices with a prime quotient of more than {TABLE_CAP}"
                )
            groups.append((1 << w, adj[w], adj[w]))
            placed |= 1 << w
    return [group[0] for group in groups]


# A node of the decomposition tree is (kind, payload, children): a leaf's
# payload is its vertex, a prime node's is its quotient graph, and the
# children are node indices ordered by least vertex.
_Node = tuple[str, object, list[int]]


def _decompose(g: Graph) -> list[_Node]:
    """g's modular decomposition tree, every node before its children.

    A vertex set of two or more splits into its components when they are
    several (a parallel node), else into its co-components when they are
    several (series), else into its maximal proper modules (prime).  A prime
    node's quotient has a vertex t for the t-th module, adjacent as the
    modules' least vertices are.  Built with an explicit stack, so no
    recursion grows with the tree.
    """
    adj = g.adj
    nodes: list[_Node] = []
    todo: list[tuple[int, int, int]] = [((1 << g.n) - 1, -1, 0)]
    while todo:
        whole, parent, slot = todo.pop()
        if parent >= 0:
            nodes[parent][2][slot] = len(nodes)
        if whole & (whole - 1) == 0:
            nodes.append(("leaf", whole.bit_length() - 1, []))
            continue
        kind, payload, parts = "parallel", None, _component_masks(adj, whole)
        if len(parts) == 1:
            # the complement's neighbourhoods hold their own vertex, which
            # the component search never reads
            kind, parts = "series", _component_masks({v: ~adj[v] for v in _bits(whole)}, whole)
        if len(parts) == 1:
            kind, parts = "prime", _maximal_modules(adj, whole)
            reps = [(p & -p).bit_length() - 1 for p in parts]
            index = {v: t for t, v in enumerate(reps)}
            keep = sum(1 << v for v in reps)
            edges = [(t, index[u]) for t, v in enumerate(reps) for u in _bits(adj[v] & keep) if u > v]
            payload = Graph(len(reps), edges)
        here = len(nodes)
        nodes.append((kind, payload, [-1] * len(parts)))
        todo += [(p, here, slot) for slot, p in enumerate(parts)]
    return nodes


def _relabel(built: tuple[CwExpr, int], label: int) -> CwExpr:
    """A built node's expression with all its vertices on ``label``; its
    vertices end on labels 1..top."""
    expr, top = built
    if isinstance(expr, Create):
        return Create(label, expr.vertex)
    for i in range(1, top + 1):
        if i != label:
            expr = Rename(i, label, expr)
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


def _names(g: Graph) -> list[str]:
    """The witness's vertex names: g's, or every vertex's number when two
    repeat (the copies in a sum share their names), as for an unnamed graph."""
    names = [g.name_of(v) for v in range(g.n)]
    return names if len(set(names)) == g.n else [str(v) for v in range(g.n)]


def _build(g: Graph, names: list[str], budgets: range) -> Optional[tuple[int, CwExpr]]:
    """(w, an expression for g on at most w labels), where w is the least
    budget that every node of g's decomposition tree fits in, or None once
    w would pass the last of ``budgets``.  No prime quotient is searched
    below the first budget, so w is g's clique-width when that is 1.

    ``need`` is the largest width a node walked so far needs.  Starting each
    prime search there, and not at 3, reaches a quotient at the budget the
    whole graph has reached, so a quotient that needs less than an earlier
    one is searched once.  No quotient is searched at or past its
    linear-width bound, whose witness stands in for that search.
    """
    nodes = _decompose(g)
    need = 1
    # built[i]: node i's expression and the top of its final labels 1..top
    built: list[Optional[tuple[CwExpr, int]]] = [None] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        kind, payload, kids = nodes[i]
        parts = [built[c] for c in kids]
        if kind == "leaf":
            built[i] = (Create(1, names[payload]), 1)
        elif kind == "parallel":
            expr = parts[0][0]
            for part in parts[1:]:
                expr = Union(expr, part[0])
            built[i] = (expr, max(top for _, top in parts))
        elif kind == "series":
            if budgets.stop <= 2:
                return None
            need = max(need, 2)
            # fold the co-components in on two labels: the part so far on 1,
            # the next on 2, joined, then 2 renamed to 1
            expr = _relabel(parts[0], 1)
            for t, part in enumerate(parts[1:]):
                if t:
                    expr = Rename(2, 1, expr)
                expr = Join(1, 2, Union(expr, _relabel(part, 2)))
            built[i] = (expr, 2)
        else:
            tries = range(max(3, need, budgets.start), budgets.stop)
            if not tries:
                return None
            tables = _Tables(payload)
            bound, order = _linear_bound(tables)
            # the quotient fits in ``bound`` labels, so only the budgets
            # below it are searched; once they fail, the width is ``bound``
            for need in range(tries.start, min(bound, tries.stop)):
                search = _Search(tables, need)
                if search.run():
                    built[i] = (search.witness(parts), len(search.accept[0]))
                    break
            else:
                if bound >= tries.stop:
                    return None
                need = max(tries.start, bound)
                built[i] = (_linear_witness(payload, order, parts), 1)
        for c in kids:
            built[c] = None
    return need, built[0][0]


def _verified(g: Graph, names: list[str], k: int, expr: CwExpr) -> CwExpr:
    """expr, checked to rebuild g with at most k labels, g's vertex v named
    ``names[v]``."""
    built = eval_cwexpr(expr).graph
    # each built vertex's number in g, through its name
    where = {name: v for v, name in enumerate(names)}
    back = [where.get(built.names[u], -1) for u in range(built.n)]
    ok = (
        built.n == g.n
        and width(expr) <= k
        and -1 not in back
        and {(a, b) if a < b else (b, a) for a, b in ((back[u], back[v]) for u, v in built.edges)} == g.edges
    )
    if not ok:
        raise InvariantViolation("reconstructed expression does not rebuild the target graph")
    return expr


def cliquewidth_at_most(
    g: Graph, k: int, max_vertices: int = DEFAULT_CAP
) -> tuple[bool, Optional[CwExpr]]:
    """Decide whether some k-label expression builds g; return a witness if so."""
    _check_input(g, k, max_vertices)
    names = _names(g)
    found = _build(g, names, range(k, k + 1))
    if found is None:
        return False, None
    return True, _verified(g, names, k, found[1])


def cliquewidth(g: Graph, max_vertices: int = DEFAULT_CAP) -> tuple[int, CwExpr]:
    """The exact clique-width of g with a witness expression."""
    _check_input(g, 1, max_vertices)
    names = _names(g)
    # n labels build any n-vertex graph, so the budgets never run out
    k, expr = _build(g, names, range(1, g.n + 1))
    return k, _verified(g, names, k, expr)
