"""Batch command-line surface.

Graph arguments accept, in order of attempted interpretation: a name in the
graph DSL ("P5", "co(2P1+P3)"), a literal graph6 string, or a path to a file
holding either an edge list ("n m" header, after any '#' comment lines) or a
graph6 line.

Exit codes: 0 success; 1 a boolean query answered negatively; 2 input or
parse error; 3 capacity error; 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .certificate import check_certificate, format_partition
from .classifier import (
    Status,
    classify_colouring,
    classify_pair,
    classify_relation,
    classify_single,
    display_name,
)
from .cwexact import DEFAULT_CAP, cliquewidth
from .cwexpr import eval_cwexpr, format_cwexpr, parse_cwexpr_file, width
from .errors import CapacityError, InputError, InvariantViolation
from .graphs import Graph, from_edge_list, from_graph6, to_edge_list, to_graph6
from .names import graph_named, parse_name
from .patterns import is_free
from .scan import scan_pairs
from .witnesses import FAMILIES

__all__ = ["main", "run"]


def _read_text(path: str, what: str) -> str:
    """The text of a file, closed before returning; a file that cannot be
    opened or is not UTF-8 raises InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc}") from None


def _write_text(path: str, what: str, text: str) -> None:
    """Write text to a file, closed before returning; a file that cannot be
    opened or written raises InputError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {what} {path!r}: {exc}") from None


def resolve_graph(arg: str) -> Graph:
    """Interpret one graph argument: name DSL, graph6 literal (bare or with
    the ``graph6:`` prefix ``display_name`` prints), or file path."""
    errors = []
    try:
        return graph_named(arg)
    except InputError as exc:
        errors.append(f"as name: {exc}")
    if not os.path.exists(arg):
        try:
            # display_name prints an unnamed graph as graph6:<text>
            return from_graph6(arg.removeprefix("graph6:"))
        except InputError as exc:
            errors.append(f"as graph6: {exc}")
    else:
        text = _read_text(arg, "graph file")
        stripped = text.lstrip()
        try:
            # a graph6 line starts with neither a digit nor '#'
            if stripped[:1].isdigit() or stripped.startswith("#"):
                return from_edge_list(text)
            return from_graph6(text)
        except InputError as exc:
            errors.append(f"as file: {exc}")
    raise InputError(f"cannot interpret graph argument {arg!r}: " + "; ".join(errors))


def _emit_verdict(verdict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(verdict.as_dict()))
    else:
        print(verdict.line())


def _cmd_classify(args) -> int:
    if args.mode == "pair":
        verdict = classify_pair(resolve_graph(args.graphs[0]), resolve_graph(args.graphs[1]))
    elif args.mode == "single":
        verdict = classify_single(resolve_graph(args.graphs[0]))
    else:
        relation = {"subgraph": "subgraph", "minor": "minor", "topminor": "topological-minor"}[
            args.relation
        ]
        verdict = classify_relation([resolve_graph(a) for a in args.graphs], relation)
    _emit_verdict(verdict, args.json)
    return 0


def _cmd_colouring(args) -> int:
    verdict = classify_colouring(resolve_graph(args.graphs[0]), resolve_graph(args.graphs[1]))
    _emit_verdict(verdict, args.json)
    return 0


def _cmd_witness(args) -> int:
    family = FAMILIES[args.family]
    params = args.params
    if len(params) != family.arity:
        raise InputError(
            f"family {family.family_id} takes {family.arity} parameter(s), got {len(params)}"
        )
    graph, partition = family.build(*params)
    print(f"family={family.family_id} params={','.join(map(str, params))} "
          f"n={graph.n} m={len(graph.edges)}")
    if args.verify_free:
        patterns = [graph_named(p) for p in family.freeness]
        free, hit = is_free(graph, patterns)
        if not free:
            index, emb = hit
            raise InvariantViolation(
                f"generated {family.family_id} graph contains forbidden pattern "
                f"{family.freeness[index]} at {emb.mapping}"
            )
        print(f"verified free of: {', '.join(family.freeness) if family.freeness else '(nothing declared)'}")
    if args.certify:
        if partition is None:
            raise InputError(f"family {family.family_id} carries no certificate partition")
        report = check_certificate(graph, partition)
        if not report.all_hold:
            fails = [p for p in report.property_status if not p.holds]
            raise InvariantViolation(f"canonical partition fails: {fails[0].witness}")
        print(f"bound={report.bound}")
    if args.out:
        payload = to_graph6(graph) + "\n" if args.format == "graph6" else to_edge_list(graph)
        _write_text(args.out, "graph file", payload)
        print(f"wrote {args.format} to {args.out}")
    if args.out_partition:
        if partition is None:
            raise InputError(f"family {family.family_id} carries no certificate partition")
        _write_text(args.out_partition, "partition file", format_partition(partition))
        print(f"wrote partition to {args.out_partition}")
    return 0


def _cmd_cw(args) -> int:
    if args.mode == "exact":
        g = resolve_graph(args.arg)
        value, witness = cliquewidth(g, max_vertices=args.max_n)
        print(f"cliquewidth={value}")
        print(f"witness={format_cwexpr(witness)}")
        return 0
    expr = parse_cwexpr_file(_read_text(args.arg, "expression file"))
    labelled = eval_cwexpr(expr)
    print(f"width={width(expr)}")
    print(f"n={labelled.graph.n} m={len(labelled.graph.edges)}")
    print(f"graph6={to_graph6(labelled.graph)}")
    return 0


def _cmd_free_check(args) -> int:
    g = resolve_graph(args.graph)
    patterns = [resolve_graph(p) for p in args.patterns]
    free, hit = is_free(g, patterns)
    if free:
        print("free=yes")
        return 0
    index, emb = hit
    pattern_name = display_name(patterns[index])
    where = ",".join(g.name_of(v) for v in emb.mapping)
    print(f"free=no pattern={pattern_name} embedding={where}")
    return 1


def _cmd_scan(args) -> int:
    result = scan_pairs(args.max_vertices)
    print(json.dumps(result.as_dict()) if args.json else result.report())
    if result.conflicts:
        raise InvariantViolation(f"{len(result.conflicts)} consistency conflicts in scan")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwkit",
        description="Clique-width boundedness classification, witnesses, and the exact oracle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="boundedness of a forbidden-pattern class")
    csub = p.add_subparsers(dest="mode", required=True)
    pp = csub.add_parser("pair", help="two forbidden induced subgraphs")
    pp.add_argument("graphs", nargs=2)
    pp.add_argument("--json", action="store_true")
    pp.set_defaults(func=_cmd_classify, mode="pair")
    ps = csub.add_parser("single", help="one forbidden induced subgraph")
    ps.add_argument("graphs", nargs=1)
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=_cmd_classify, mode="single")
    pf = csub.add_parser("family", help="forbidden subgraphs / minors / topological minors")
    pf.add_argument("--relation", required=True, choices=["subgraph", "minor", "topminor"])
    pf.add_argument("graphs", nargs="+")
    pf.add_argument("--json", action="store_true")
    pf.set_defaults(func=_cmd_classify, mode="family")

    p = sub.add_parser("colouring", help="colouring complexity for a forbidden pair")
    csub = p.add_subparsers(dest="mode", required=True)
    pc = csub.add_parser("pair")
    pc.add_argument("graphs", nargs=2)
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=_cmd_colouring)

    p = sub.add_parser("witness", help="generate an unbounded-clique-width family member")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("params", nargs="+", type=int)
    p.add_argument("--verify-free", action="store_true")
    p.add_argument("--certify", action="store_true")
    p.add_argument("--out")
    p.add_argument("--format", choices=["graph6", "edges"], default="graph6")
    p.add_argument("--out-partition")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("cw", help="exact clique-width / expression evaluation")
    csub = p.add_subparsers(dest="mode", required=True)
    pe = csub.add_parser("exact", help="exact clique-width of a tiny graph")
    pe.add_argument("arg", metavar="graph")
    pe.add_argument("--max-n", type=int, default=DEFAULT_CAP)
    pe.set_defaults(func=_cmd_cw, mode="exact")
    pv = csub.add_parser("eval", help="evaluate an expression file")
    pv.add_argument("arg", metavar="exprfile")
    pv.set_defaults(func=_cmd_cw, mode="eval")

    p = sub.add_parser("free-check", help="test a graph against forbidden patterns")
    p.add_argument("graph")
    p.add_argument("--patterns", nargs="+", required=True)
    p.set_defaults(func=_cmd_free_check)

    p = sub.add_parser("scan", help="classify all small forbidden pairs exhaustively")
    p.add_argument("--max-vertices", type=int, default=7)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_scan)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return 4
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
