"""Decision procedures for forbidden-pattern graph classes.

Four classifiers:

* ``classify_single``: one forbidden induced subgraph (a dichotomy).
* ``classify_pair``: two forbidden induced subgraphs.  The pair's equivalence
  class (closed under complementing both graphs and swapping K3 with the paw)
  is closed out first; the bounded and unbounded rule table is then tested
  on every member in both orderings, and pairs matching no rule are looked
  up in the list of thirteen open cases.  The procedure is total.  Its
  kernel (rule sides, closure, firing, open-case lookup) is shared with the
  scan.
* ``classify_relation``: forbidden subgraphs / minors / topological minors
  (three dichotomies on properties of the forbidden family alone).
* ``classify_colouring``: the colouring complexity table, tested on the pair
  itself in both orderings.  It is not a dichotomy; Unknown is a legal
  outcome.

Both rule tables run on one engine.  A rule is data: two tuples of string
tokens, one per position (``<=P4``: an induced subgraph of P4; ``>=K1_3``:
contains the claw; flags such as ``not-in-S``); the pair rules also read the
complement's tokens, written with a ``co `` prefix.  A side holds when one
of its tokens holds.  Each table is compiled once, here, into sides per
rule and view: a mask of the side's ``>=X`` patterns (each table has one
pattern list) plus its tokens in written order.  The pair table has an own
view (the tokens without ``co ``) and a dual view (the ``co `` tokens,
stripped, decided on the graph as they read when it is the complement); the
colouring table has one plain view.  One evaluator, ``decide_sides``,
decides every side.  For a lone graph it decides tokens on demand, in
written order, and a side stops at its first token that holds, so a costly
token is decided only where the cheaper ones before it fail; each token is
decided at most once per graph, across views.  A scan level passes each
graph's profile, its ``>=X`` answers decided for the whole level at once,
and a side tests that first.  A ``<=X`` token whose X has fewer vertices
than the graph is false on both paths, without a search.  ``_holds`` decides
one token: adding a fact means writing its token in a rule, and a new
flag's predicate goes in ``_FLAGS``.  The per-graph caches hold the side
bitmasks: ``colouring_facts`` for the colouring table, and ``cw_facts`` for
the pair table's own and dual views, which ``pair_sides`` combines with the
complement's.  ``fire`` ORs the sides over the members.  The earliest rule
in table order that fires on the first member to fire gives the verdict;
rules of opposite statuses firing together are an internal error that names
every fired rule.

Every verdict carries the rule identifier, the pair member that matched, and
a citation anchor naming the mathematical source of the rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import inf
from typing import Callable, Hashable, NamedTuple, Optional, TypeVar

from .errors import InputError, InvariantViolation
from .graphs import Graph, complement, induced_subgraph, to_graph6
from .isomorphism import CANONICAL_CAP, canonical_key, is_isomorphic
from .names import format_name, graph_named, recognize
from .patterns import has_induced, has_induced_cycle_at_least, in_class_S, is_planar

__all__ = [
    "Status",
    "Verdict",
    "equivalence_class",
    "classify_single",
    "classify_pair",
    "classify_relation",
    "classify_colouring",
    "OPEN_CASES",
    "COLOURING_OPEN_CASES",
    "display_name",
]


class Status(str, Enum):
    BOUNDED = "Bounded"
    UNBOUNDED = "Unbounded"
    OPEN = "Open"
    NP_COMPLETE = "NP-complete"
    POLYNOMIAL = "Polynomial"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Verdict:
    status: Status
    rule_id: str
    matched_pair: tuple[str, ...]
    citation: str

    def line(self) -> str:
        matched = ",".join(self.matched_pair)
        return f"status={self.status.value} rule={self.rule_id} matched={matched} cite={self.citation}"

    def as_dict(self) -> dict:
        return {
            "status": self.status.value,
            "rule": self.rule_id,
            "matched": list(self.matched_pair),
            "cite": self.citation,
        }


def display_name(g: Graph) -> str:
    expr = recognize(g)
    if expr is not None:
        return format_name(expr)
    return f"graph6:{to_graph6(g)}"


# -- facts ------------------------------------------------------------------
#
# A fact token is ``<=X`` (the graph is an induced subgraph of X), ``>=X`` (X
# is an induced subgraph of the graph) or the name of a flag in _FLAGS.


@lru_cache(maxsize=None)
def _pattern(name: str) -> Graph:
    return graph_named(name)


def _is_forest(g: Graph) -> bool:
    return len(g.edges) == g.n - len(g.component_masks())


def _is_complete(g: Graph) -> bool:
    return g.n >= 1 and len(g.edges) == g.n * (g.n - 1) // 2


def _has_cycle_at_least(g: Graph, length: int) -> bool:
    # a forest skips the exponential probe
    return not _is_forest(g) and has_induced_cycle_at_least(g, length, max_vertices=g.n)


_FLAGS: dict[str, Callable[[Graph], bool]] = {
    "not-in-S": lambda g: not in_class_S(g),
    "edgeless": lambda g: not g.edges,
    "complete": _is_complete,
    "has-cycle": lambda g: not _is_forest(g),
    "has-cycle>=4": lambda g: _has_cycle_at_least(g, 4),
    "has-cycle>=5": lambda g: _has_cycle_at_least(g, 5),
    "co-has-cycle>=6": lambda g: _has_cycle_at_least(complement(g), 6),
    "matching": lambda g: g.max_degree() <= 1,
    "isolates-plus-P5-part": lambda g: (
        _holds("<=P5", induced_subgraph(g, [v for v in range(g.n) if g.adj[v]]))
    ),
    "clique>=4": lambda g: g.n >= 4 and _is_complete(g),
    "at-most-one-edge": lambda g: len(g.edges) <= 1,
    "co-at-most-one-edge": lambda g: g.n * (g.n - 1) // 2 - len(g.edges) <= 1,
    "is-2P2": lambda g: is_isomorphic(g, _pattern("2P2")),
    "small-forest-not-K1_5": lambda g: (
        _is_forest(g) and g.n <= 6 and not is_isomorphic(g, _pattern("K1_5"))
    ),
    "is-K1_3+3P1": lambda g: is_isomorphic(g, _pattern("K1_3+3P1")),
}


def _holds(token: str, g: Graph) -> bool:
    """Whether the fact token holds for g."""
    if token.startswith("<="):
        return has_induced(_pattern(token[2:]), g)
    if token.startswith(">="):
        return has_induced(g, _pattern(token[2:]))
    return _FLAGS[token](g)


@dataclass(frozen=True)
class Rule:
    """One table row.  Each side holds when one of its tokens holds for the
    graph (None: always), the tokens tried in order; the rule fires on an
    ordered pair when its left side holds for the first graph and its right
    side for the second, and it is tested in both orderings."""

    rule_id: str
    status: Status
    left: Optional[tuple[str, ...]]
    right: Optional[tuple[str, ...]]
    citation: str


PAIR_RULES: tuple[Rule, ...] = (
    Rule("B1", Status.BOUNDED, ("<=P4",), None,
         "cographs have clique-width at most 2 [CO00]"),
    Rule("B2", Status.BOUNDED, ("edgeless",), ("complete",),
         "Ramsey: forbidding sP1 and Kt bounds the order of every member"),
    Rule("B3", Status.BOUNDED, ("<=P1+P3",),
         ("co <=K1_3+3P1", "co <=K1_3+P2", "co <=P1+S_1_1_2", "co <=P6", "co <=S_1_1_3"),
         "triangle side via the paw reduction [Olariu 88]; lists from [DLRR12, BKM06] "
         "and the two matching-structure bounds"),
    Rule("B4", Status.BOUNDED, ("<=2P1+P2",), ("co <=2P1+P3", "co <=3P1+P2", "co <=P2+P3"),
         "[DHP0]"),
    Rule("B5", Status.BOUNDED, ("<=P1+P4",), ("co <=P1+P4", "co <=P5"),
         "[BLM04b, BLM04]"),
    Rule("B6", Status.BOUNDED, ("<=4P1",), ("co <=2P1+P3",),
         "[BDHP15]"),
    Rule("B7", Status.BOUNDED, ("<=K1_3",), ("co <=K1_3",),
         "[BL02, BM02]"),
    Rule("U1", Status.UNBOUNDED, ("not-in-S",), ("not-in-S",),
         "k-subdivided walls avoid every family outside class S [LR06]"),
    Rule("U2", Status.UNBOUNDED, ("co not-in-S",), ("co not-in-S",),
         "complement of the class-S rule [LR06 with KLM09]"),
    Rule("U3", Status.UNBOUNDED, (">=K1_3", ">=2P2"), ("co >=4P1", "co >=2P2"),
         "[BELL06] and split graphs [MR99]"),
    Rule("U4", Status.UNBOUNDED, (">=P1+P4",), ("co >=P2+P4",),
         "two-clique cell-array family: (3P2,P2+P4,P6,co(P1+P4))-free, unbounded"),
    Rule("U5", Status.UNBOUNDED, (">=2P1+P2",), ("co >=K1_3", "co >=5P1", "co >=P2+P4", "co >=P6"),
         "[BELL06]; [DGP14]; [DHP0, preprint version only] for the P2+P4 case; "
         "flipped triple-cell family for the P6 case"),
    Rule("U6", Status.UNBOUNDED, (">=3P1",),
         ("co >=2P1+2P2", "co >=2P1+P4", "co >=4P1+P2", "co >=3P2", "co >=2P3"),
         "complements of H-free bipartite graphs [DP14]"),
    Rule("U7", Status.UNBOUNDED, (">=4P1",), ("co >=P1+P4", "co >=3P1+P2"),
         "simple path encodings [KS12, Sc15] and [DGP14]"),
)


def _status_bits(rules: tuple[Rule, ...], status: Status) -> int:
    """Bitmask of the rules (bit r is ``rules[r]``) with the given status."""
    return sum(1 << r for r, rule in enumerate(rules) if rule.status is status)


BOUNDED_BITS = _status_bits(PAIR_RULES, Status.BOUNDED)
UNBOUNDED_BITS = _status_bits(PAIR_RULES, Status.UNBOUNDED)


# -- compiled tables ----------------------------------------------------------


class RuleTable(NamedTuple):
    """A rule table compiled for ``decide_sides``.  Per view and position,
    ``views`` holds the sides that can hold there.  A side is (the rule's
    bit, the pattern bits of its >=X tokens, its tokens in written order,
    those of them that are not >=X); a token is (itself, the largest order
    of a graph it can hold on).  A side with no tokens always holds."""

    patterns: tuple[str, ...]  # pattern bit p is the X of the tokens >=X, X = patterns[p]
    views: tuple


def _compile(rules: tuple[Rule, ...], views: tuple[Optional[bool], ...]) -> RuleTable:
    """The table's sides, left then right for each view: a view reads the
    ``co `` tokens, stripped (True), the others (False) or every token
    (None).  An induced subgraph of X has at most as many vertices as X."""
    bits: dict[str, int] = {}
    compiled = []
    for co in views:
        for at in (0, 1):
            sides = []
            for r, rule in enumerate(rules):
                side = (rule.left, rule.right)[at]
                kept = [t.removeprefix("co ") for t in side or () if co is None or t.startswith("co ") == co]
                if side is None or kept:
                    tokens = tuple((t, _pattern(t[2:]).n if t.startswith("<=") else inf) for t in kept)
                    mask = sum(bits.setdefault(t[2:], 1 << len(bits)) for t in kept if t.startswith(">="))
                    sides.append((1 << r, mask, tokens, tuple(e for e in tokens if not e[0].startswith(">="))))
            compiled.append(tuple(sides))
    return RuleTable(tuple(bits), tuple(compiled))


def decide_sides(table: RuleTable, g: Graph, profile: Optional[int] = None) -> tuple[int, ...]:
    """The bitmasks of the rules whose side holds on g, per view and
    position, each token decided at most once.  Without ``profile`` a side
    decides its tokens in written order and stops at the first that holds.
    With it (bit p set when g contains pattern p, as a scan level reads it)
    a side tests the profile first and searches none of its >=X tokens."""
    read = profile is not None
    decided: dict[str, bool] = {}
    out = []
    for sides in table.views:
        bits = 0
        for bit, mask, tokens, others in sides:
            if not tokens or read and profile & mask:
                bits |= bit
                continue
            for token, top in others if read else tokens:
                if g.n > top:
                    continue
                if token not in decided:
                    decided[token] = _holds(token, g)
                if decided[token]:
                    bits |= bit
                    break
        out.append(bits)
    return tuple(out)


PAIR_TABLE = _compile(PAIR_RULES, (False, True))


@lru_cache(maxsize=None)
def cw_facts(g: Graph) -> tuple[int, int, int, int]:
    """The pair rules' side bitmasks on g: (own_left, own_right, dual_left,
    dual_right).  The own pair reads g's own tokens, the dual pair the
    ``co `` tokens decided on g, as they read when g is the complement."""
    return decide_sides(PAIR_TABLE, g)


def pair_sides(g: Graph, co: Graph) -> tuple[int, int]:
    """Pair rule sides of g, whose complement is co."""
    own_left, own_right, _, _ = cw_facts(g)
    _, _, dual_left, dual_right = cw_facts(co)
    return own_left | dual_left, own_right | dual_right


@lru_cache(maxsize=None)
def colouring_facts(g: Graph) -> tuple[int, int]:
    """The colouring rules' left and right side bitmasks on g."""
    return decide_sides(COLOURING_TABLE, g)


# -- the thirteen open cases ----------------------------------------------

_OPEN_TABLE = (
    ("OPEN1", "3P1", ("P1+P2+P3", "P1+2P2", "P1+P5", "P1+S_1_1_3", "P2+P4", "S_1_2_2", "S_1_2_3")),
    ("OPEN2", "2P1+P2", ("P1+P2+P3", "P1+2P2", "P1+P5")),
    ("OPEN3", "P1+P4", ("P1+2P2", "P2+P3")),
    ("OPEN4", "2P1+P3", ("2P1+P3",)),
)


def _open_cases() -> tuple[tuple[str, str, str], ...]:
    out = []
    for case_id, h1, h2_complements in _OPEN_TABLE:
        for t, co_h2 in enumerate(h2_complements, start=1):
            sub = f"{case_id}.{t}" if len(h2_complements) > 1 else case_id
            out.append((sub, h1, f"co({co_h2})"))
    return tuple(out)


OPEN_CASES: tuple[tuple[str, str, str], ...] = _open_cases()


# -- the pair kernel --------------------------------------------------------
#
# classify_pair and the exhaustive scan share the steps below;
# classify_colouring uses fire on its one pair.  Nodes are
# whatever the caller classifies: labelled graphs here, integer ids of
# catalogue graphs in the scan.  The caller supplies, per node, its key (equal
# exactly for isomorphic graphs), its complement, its K3/paw swap partner and
# its rule sides.

Node = TypeVar("Node")


def _unordered(kx: Hashable, ky: Hashable) -> tuple:
    return (kx, ky) if kx <= ky else (ky, kx)


def pair_class(h1: Node, h2: Node, key: Callable, co: Callable, swap: Callable) -> list[tuple[Node, Node]]:
    """The pair's equivalence class: every pair reachable by complementing
    both sides and by swapping K3 with the paw at either position, one member
    per unordered pair of keys, in a fixed order (stack pop; push the
    complement pair, then the swap at each position)."""
    members: list[tuple[Node, Node]] = []
    seen: set[tuple] = set()
    stack = [(h1, h2)]
    while stack:
        a, b = pair = stack.pop()
        k = _unordered(key(a), key(b))
        if k in seen:
            continue
        seen.add(k)
        members.append(pair)
        stack.append((co(a), co(b)))
        for x, y in (pair, (b, a)):
            partner = swap(x)
            if partner is not None:
                stack.append((partner, y))
    return members


def fire(members: list[tuple[Node, Node]], sides: Callable) -> tuple[int, Optional[tuple[int, Node, Node]]]:
    """The rule bits fired on any member, and the first firing: the lowest
    rule of the first member that fires, oriented as the rule matched it."""
    fired = 0
    first = None
    for a, b in members:
        la, ra = sides(a)
        lb, rb = sides(b)
        ab = la & rb
        bits = ab | (lb & ra)
        if bits and first is None:
            low = bits & -bits
            r = low.bit_length() - 1
            first = (r, a, b) if ab & low else (r, b, a)
        fired |= bits
    return fired, first


@lru_cache(maxsize=None)
def _open_keys() -> dict[tuple, tuple[str, str, str]]:
    return {
        _unordered(canonical_key(_pattern(n1)), canonical_key(_pattern(n2))): (case_id, n1, n2)
        for case_id, n1, n2 in OPEN_CASES
    }


def open_case(members: list[tuple[Node, Node]], key: Callable) -> Optional[tuple[str, str, str]]:
    """The listed open case equivalent to the class, looked up by the
    canonical keys ``key`` gives; None if there is none."""
    table = _open_keys()
    for a, b in members:
        case = table.get(_unordered(key(a), key(b)))
        if case is not None:
            return case
    return None


# -- the graph side of the kernel -------------------------------------------


def _graph_key(g: Graph) -> tuple:
    # Past the canonical-form cap a graph is keyed by its labelled edges, so
    # the class may hold isomorphic copies of it; their facts are equal, so
    # the verdict is the same.
    if g.n > CANONICAL_CAP:
        return (g.n, tuple(sorted(g.edges)))
    return canonical_key(g)


def _graph_swap(g: Graph) -> Optional[Graph]:
    # K3 and the paw are the only graphs with these orders and degrees.
    if g.n == 3 and g.degree_sequence() == (2, 2, 2):
        return _pattern("paw")
    if g.n == 4 and g.degree_sequence() == (1, 2, 2, 3):
        return _pattern("K3")
    return None


def equivalence_class(h1: Graph, h2: Graph) -> list[tuple[Graph, Graph]]:
    """All unordered pairs reachable by complementing both sides and by
    swapping K3 with the paw at either position, deduplicated up to
    isomorphism."""
    return pair_class(h1, h2, lru_cache(maxsize=None)(_graph_key), complement, _graph_swap)


# -- classifiers ------------------------------------------------------------


def classify_single(h: Graph) -> Verdict:
    """One forbidden induced subgraph: bounded iff it embeds in P4."""
    bounded = has_induced(_pattern("P4"), h)
    return Verdict(
        Status.BOUNDED if bounded else Status.UNBOUNDED,
        "SG",
        (display_name(h),),
        "bounded exactly for the six induced subgraphs of P4 [CO00, LR06]",
    )


def _fired_ids(rules: tuple[Rule, ...], fired: int) -> str:
    return ", ".join(rule.rule_id for r, rule in enumerate(rules) if fired >> r & 1)


def _first_verdict(rules: tuple[Rule, ...], first: tuple[int, Graph, Graph]) -> Verdict:
    r, a, b = first
    rule = rules[r]
    return Verdict(rule.status, rule.rule_id, (display_name(a), display_name(b)), rule.citation)


def classify_pair(h1: Graph, h2: Graph) -> Verdict:
    """Two forbidden induced subgraphs: Bounded, Unbounded, or Open; total."""
    # The closure complements every member graph: complements are made once
    # per call.
    co = lru_cache(maxsize=None)(complement)
    members = pair_class(h1, h2, lru_cache(maxsize=None)(_graph_key), co, _graph_swap)
    fired, first = fire(members, lambda g: pair_sides(g, co(g)))
    if fired & BOUNDED_BITS and fired & UNBOUNDED_BITS:
        raise InvariantViolation(
            f"rules {_fired_ids(PAIR_RULES, fired)} fire together on the class of "
            f"({display_name(h1)},{display_name(h2)})-free graphs"
        )
    if first is not None:
        return _first_verdict(PAIR_RULES, first)
    case = open_case(members, _graph_key)
    if case is not None:
        case_id, n1, n2 = case
        return Verdict(Status.OPEN, case_id, (n1, n2), "boundedness open; one of the thirteen listed cases")
    raise InvariantViolation(
        f"({display_name(h1)},{display_name(h2)}) matches no rule and no open case; "
        "the trichotomy should be total"
    )


_RELATIONS = ("subgraph", "minor", "topological-minor")


def classify_relation(family: list[Graph], relation: str) -> Verdict:
    """Forbidden subgraphs, minors, or topological minors (each a dichotomy)."""
    if relation not in _RELATIONS:
        raise InputError(f"relation must be one of {_RELATIONS}, got {relation!r}")
    if not family:
        raise InputError("the forbidden family must be non-empty")
    if relation == "subgraph":
        rule, cite = "REL-SUBGRAPH", (
            "bounded iff some member lies in class S [BL02]; otherwise a suitable "
            "k-subdivided wall family avoids all members [LR06]"
        )
        witness = next((g for g in family if in_class_S(g)), None)
    elif relation == "minor":
        rule, cite = "REL-MINOR", (
            "bounded iff some member is planar: excluded planar minors bound "
            "tree-width [RS86] and tree-width bounds clique-width [CR05]; "
            "otherwise all walls survive"
        )
        witness = next((g for g in family if is_planar(g)), None)
    else:
        rule, cite = "REL-TOPMINOR", (
            "bounded iff some member is planar with maximum degree at most 3 "
            "(minor containment transfers at degree <= 3); otherwise all walls survive"
        )
        witness = next(
            (g for g in family if is_planar(g) and g.max_degree() <= 3), None
        )
    if witness is not None:
        return Verdict(Status.BOUNDED, rule, (display_name(witness),), cite)
    return Verdict(
        Status.UNBOUNDED, rule, tuple(display_name(g) for g in family), cite
    )


# -- colouring table --------------------------------------------------------

COLOURING_RULES: tuple[Rule, ...] = (
    Rule("COL-N1", Status.NP_COMPLETE, ("has-cycle",), ("has-cycle",),
         "both sides keep some chordless cycle"),
    Rule("COL-N2", Status.NP_COMPLETE, (">=K1_3",), (">=K1_3",),
         "both sides keep the claw"),
    Rule("COL-N3", Status.NP_COMPLETE, (">=2P2", ">=2P1+P2", ">=4P1"), (">=2P2", ">=2P1+P2", ">=4P1"),
         "both sides keep a spanning subgraph of 2P2 induced"),
    Rule("COL-N4", Status.NP_COMPLETE, (">=bull",), (">=K1_4",),
         "bull versus K1_4"),
    Rule("COL-N5", Status.NP_COMPLETE, (">=K3",), (">=K1_5",),
         "triangle versus K1_r, r >= 5"),
    Rule("COL-N6", Status.NP_COMPLETE, ("has-cycle>=4",), (">=K1_3",),
         "chordless cycle of length >= 4 versus the claw"),
    Rule("COL-N7", Status.NP_COMPLETE, (">=K3",), (">=P22",),
         "triangle versus the 22-vertex path (constant taken verbatim)"),
    Rule("COL-N8", Status.NP_COMPLETE, ("has-cycle>=5",), (">=2P2", ">=2P1+P2", ">=4P1"),
         "chordless cycle of length >= 5 versus a spanning subgraph of 2P2"),
    Rule("COL-N9", Status.NP_COMPLETE, (">=C3+P1", ">=C4+P1", "co-has-cycle>=6"),
         (">=2P2", ">=2P1+P2", ">=4P1"),
         "cycle-plus-vertex or long anticycle versus a spanning subgraph of 2P2"),
    Rule("COL-N10", Status.NP_COMPLETE, (">=K4", ">=diamond"), (">=K1_3",),
         "K4 or the diamond versus the claw"),
    Rule("COL-P1", Status.POLYNOMIAL, ("<=P1+P3", "<=P4"), None,
         "one side inside P1+P3 or P4"),
    Rule("COL-P2", Status.POLYNOMIAL, ("<=K1_3",), ("<=bull", "<=hammer", "<=P5"),
         "claw-side pairs"),
    Rule("COL-P3", Status.POLYNOMIAL, ("small-forest-not-K1_5", "is-K1_3+3P1"), ("<=paw",),
         "small forests (not K1_5) or K1_3+3P1 versus the paw"),
    Rule("COL-P4", Status.POLYNOMIAL, ("matching", "isolates-plus-P5-part"), ("clique>=4",),
         "matchings or P5-plus-isolates versus a clique"),
    Rule("COL-P5", Status.POLYNOMIAL, ("matching", "isolates-plus-P5-part"), ("<=paw",),
         "matchings or P5-plus-isolates versus the paw"),
    Rule("COL-P6", Status.POLYNOMIAL, ("<=P1+P4", "<=P5"), ("<=gem",),
         "P1+P4 or P5 versus the gem"),
    Rule("COL-P7", Status.POLYNOMIAL, ("<=P1+P4", "<=P5"), ("<=co(P5)",),
         "P1+P4 or P5 versus co(P5)"),
    Rule("COL-P8", Status.POLYNOMIAL, ("<=2P1+P2",), ("<=co(3P1+P2)", "<=co(2P1+P3)"),
         "2P1+P2 versus small complements"),
    Rule("COL-P9", Status.POLYNOMIAL, ("<=diamond",), ("<=3P1+P2", "<=2P1+P3"),
         "the diamond versus small linear forests"),
    Rule("COL-P10", Status.POLYNOMIAL, ("at-most-one-edge", "is-2P2"), ("co-at-most-one-edge",),
         "near-edgeless versus near-complete"),
    Rule("COL-P11", Status.POLYNOMIAL, ("<=4P1",), ("<=co(2P1+P3)",),
         "4P1 versus co(2P1+P3)"),
    Rule("COL-P12", Status.POLYNOMIAL, ("<=P5",), ("<=C4", "<=co(2P1+P3)"),
         "P5 versus C4 or co(2P1+P3)"),
)
NP_COMPLETE_BITS = _status_bits(COLOURING_RULES, Status.NP_COMPLETE)
POLYNOMIAL_BITS = _status_bits(COLOURING_RULES, Status.POLYNOMIAL)
COLOURING_TABLE = _compile(COLOURING_RULES, (None,))


COLOURING_OPEN_CASES: tuple[tuple[str, str], ...] = (
    ("co(3P1)", "P1+S_1_1_3"),
    ("co(3P1)", "S_1_2_3"),
    ("co(P1+P3)", "P1+S_1_1_3"),
    ("co(P1+P3)", "S_1_2_3"),
    ("2P1+P2", "co(P1+P2+P3)"),
    ("2P1+P2", "co(P1+2P2)"),
    ("2P1+P2", "co(P1+P5)"),
    ("co(2P1+P2)", "P1+P2+P3"),
    ("co(2P1+P2)", "P1+2P2"),
    ("co(2P1+P2)", "P1+P5"),
    ("P1+P4", "co(P1+2P2)"),
    ("P1+P4", "co(P2+P3)"),
    ("co(P1+P4)", "P1+2P2"),
    ("co(P1+P4)", "P2+P3"),
    ("2P1+P3", "co(2P1+P3)"),
)


def classify_colouring(h1: Graph, h2: Graph) -> Verdict:
    """Colouring complexity for the pair; Unknown when no table row applies."""
    fired, first = fire([(h1, h2)], colouring_facts)
    if fired & NP_COMPLETE_BITS and fired & POLYNOMIAL_BITS:
        raise InvariantViolation(
            f"colouring rules {_fired_ids(COLOURING_RULES, fired)} fire together on "
            f"({display_name(h1)},{display_name(h2)})"
        )
    if first is not None:
        return _first_verdict(COLOURING_RULES, first)
    return Verdict(
        Status.UNKNOWN,
        "COL-OPEN",
        (display_name(h1), display_name(h2)),
        "outside both colouring tables; complexity unresolved",
    )
