"""One unit of one benchmark workload, run in a fresh interpreter.

``run.py`` starts a process for it once per unit, through ``unit.py``, one
process at a time, so every unit starts with cwkit's module caches empty
(``_level``, ``_FACTS_CACHE``, ``_COL_CACHE``, ``_pattern``), as every CLI
invocation does.

    python3 perfbench/unit.py --workload queries --seed 1 --size full --mode plain

Modes: ``setup`` imports cwkit, builds the inputs and exits; ``plain`` runs the
unit with tracing off; ``traced`` runs it with spans around each call into a
cwkit layer (``--spans`` names the file the spans are written to at the end).
The last stdout line is one JSON object: ``ready`` (``time.monotonic()`` once
cwkit is imported and the inputs are built), ``setup_sampling_s`` and
``setup_reference_s`` (see ``Sampler.setup``), then for a unit ``op_s`` (the
latency of each operation at the reference speed of hostspeed.py),
``wall_op_s`` (the same in wall time, with the reference samples taken
inside it), ``reference_s`` (the reference times sampled), ``items``,
``attempted``, ``failed``, ``failures`` and, when traced, ``layers``.

Every output check runs outside the timed regions.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import time
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from cwkit.certificate import check_certificate, lower_bound
from cwkit.classifier import (
    classify_colouring,
    classify_pair,
    classify_single,
    colouring_facts,
    cw_facts,
)
from cwkit.cli import resolve_graph
from cwkit.cwexact import cliquewidth, cliquewidth_at_most
from cwkit.cwexpr import eval_cwexpr, width
from cwkit.enumeration import nonisomorphic_graphs_upto
from cwkit.graphs import (
    Graph,
    complement,
    from_edge_list,
    from_graph6,
    induced_subgraph,
    to_edge_list,
    to_graph6,
)
from cwkit.names import graph_named
from cwkit.patterns import contains_induced, is_free
from cwkit.scan import scan_pairs
from cwkit.witnesses import FAMILIES

from hostspeed import Sampler
from tracing import FAILED, Tracer

WORKLOADS = ("scan", "queries", "oracle", "witness")
DEFAULT_SEED = 1
EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text(encoding="utf-8"))

# Sizes per workload.  "full" is what the benchmark measures; "smoke" is a
# tiny run of every code path, used by test_smoke.py.
SIZES = {
    "full": {
        "scan_vertices": 7,
        "queries": 1500,
        "oracle_classes": ((7, 92), (8, 6)),
        "oracle_named": ("C8", "P8"),
        "witness_free": (("thm4H", 4), ("thm5G", 4), ("thm5G", 5)),
        "witness_cert": (("thm4G", 16), ("thm5G", 30), ("grid", 40)),
    },
    "smoke": {
        "scan_vertices": 5,
        "queries": 40,
        "oracle_classes": ((4, 3), (5, 3)),
        "oracle_named": ("C5", "P5", "C7"),
        "witness_free": (("thm4H", 2), ("thm5G", 2), ("thm5G", 3)),
        "witness_cert": (("thm4G", 4), ("thm5G", 4), ("grid", 5)),
    },
}

# Query operands drawn by name; repeats let the facts caches hit.
POOL = (
    "P4", "P5", "P6", "C4", "C5", "C6", "K3", "K4", "paw", "claw", "diamond",
    "bull", "gem", "hammer", "2P2", "3P1", "4P1", "P1+P3", "2P1+P2", "P1+P4",
    "P2+P3", "2P1+P3", "co(P5)", "co(2P1+P3)", "co(P1+P4)", "S_1_1_2",
    "S_1_2_2", "S_1_2_3", "co(S_1_2_3)", "K1_4", "P2+P4", "3P2", "2P3",
    "co(3P1)", "co(2P2)", "co(P1+P3)", "P1+S_1_1_2",
)
# (kind, share) of the query stream.
QUERY_MIX = (("pair", 0.70), ("colouring", 0.10), ("single", 0.05), ("free", 0.10), ("cw", 0.05))


def metric_safe(pattern: str) -> str:
    """A DSL pattern name as a metric-name component: co(2P1+P2) -> co_2P1_P2."""
    return pattern.replace("(", "_").replace(")", "").replace("+", "_")


class Unit:
    """Latencies, item count and failures of one unit of work."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.intervals: list[tuple[float, float]] = []  # perf_counter() around each operation
        self.items = 0
        self.failures: list[str] = []

    def add_op(self, start: float, end: float) -> None:
        self.intervals.append((start, end))

    def check(self, ok: bool, message: str, record: list | None = None) -> None:
        if not ok:
            self.failures.append(message)
            if record is not None:
                record[FAILED] = True

    def result(self, host: Sampler) -> dict:
        out = {
            "op_s": host.normalise(self.intervals),
            "wall_op_s": [end - start for start, end in self.intervals],
            "reference_s": [ref for _, _, ref in host.samples],
            "items": self.items,
            "attempted": len(self.intervals),
            "failed": len(self.failures),
            "failures": self.failures[:20],
        }
        if self.tracer is not None:
            out["layers"] = self.tracer.layer_metrics()
        return out


def _random_graph(rng: random.Random, n: int) -> Graph:
    p = rng.uniform(0.25, 0.75)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _rebuilds(expr, g: Graph, k: int) -> bool:
    """The benchmark's own witness check: the expression rebuilds g's edge
    set (compared by vertex name) and uses at most k labels."""
    lab = eval_cwexpr(expr)
    got = {frozenset((lab.graph.names[u], lab.graph.names[v])) for u, v in lab.graph.edges}
    want = {frozenset((g.name_of(u), g.name_of(v))) for u, v in g.edges}
    return lab.graph.n == g.n and got == want and width(expr) <= k


# -- scan ----------------------------------------------------------------


def scan_inputs(seed: int, size: str) -> dict:
    return {"vertices": SIZES[size]["scan_vertices"]}


def scan_unit(inputs: dict, tracer: Tracer | None) -> Unit:
    unit = Unit(tracer)
    n = inputs["vertices"]
    if tracer is None:
        t0 = perf_counter()
        result = scan_pairs(n)
        unit.add_op(t0, perf_counter())
        record = None
    else:
        tracer.op_id = 0
        t0 = perf_counter()
        with tracer.span("harness.scan"):
            # _level and the facts cache keep these results, so scan_pairs
            # reuses them and its own span is the pair kernel.
            with tracer.span("enumeration.nonisomorphic_graphs_upto"):
                graphs = nonisomorphic_graphs_upto(n)
            for g in graphs:
                with tracer.span("classifier.cw_facts"):
                    cw_facts(g)
            with tracer.span("scan.scan_pairs") as record:
                result = scan_pairs(n)
        unit.add_op(t0, perf_counter())
        tracer.count("scan.pairs", result.pair_count)
    unit.items += result.pair_count
    want = EXPECTED["scan"][str(n)]
    lines = [f"({a}, {b})  case {c}" for a, b, c in result.open_pairs]
    unit.check(result.counts == want["counts"], f"scan counts {result.counts}", record)
    unit.check(not result.conflicts, f"scan conflicts {result.conflicts[:3]}", record)
    unit.check(lines == want["open_pairs"], "scan open-pair lines differ from the record", record)
    return unit


# -- queries ---------------------------------------------------------------


def queries_inputs(seed: int, size: str) -> list[tuple[str, tuple]]:
    """A seeded stream of shell-style queries whose operands are strings.

    The mix is stratified: each kind gets its exact share of the stream,
    operands alternate between names from POOL and fresh random graphs in
    graph6, and fresh graphs cycle through the vertex counts.  The seed draws
    the names, the graphs and the order.  Left to chance, the number of
    expensive queries (cliquewidth on six vertices, pairs of two fresh
    graphs) would change from seed to seed and move the p99 latency.
    """
    rng = random.Random(f"queries/{seed}")
    order = {name: graph_named(name).n for name in POOL}
    upto = {n: [name for name in POOL if order[name] <= n] for n in (5, 6, 7)}
    total = SIZES[size]["queries"]
    kinds = [kind for kind, share in QUERY_MIX for _ in range(round(share * total))]
    rng.shuffle(kinds)
    drawn = {kind: 0 for kind, _ in QUERY_MIX}
    sizes = {max_n: itertools.cycle(range(3, max_n + 1)) for max_n in (6, 7)}

    def operand(max_n: int, fresh: bool) -> str:
        if fresh:
            return to_graph6(_random_graph(rng, next(sizes[max_n])))
        return rng.choice(upto[max_n])

    stream = []
    for kind in kinds:
        c = drawn[kind]
        drawn[kind] += 1
        if kind in ("pair", "colouring"):
            fresh1, fresh2 = ((False, False), (False, True), (True, False), (True, True))[c % 4]
            args = (operand(7, fresh1), operand(7, fresh2))
        elif kind == "single":
            args = (operand(7, c % 2 == 1),)
        elif kind == "cw":
            args = (operand(6, c % 2 == 1),)
        else:
            host = _random_graph(rng, 8 + c % 4)
            planted = sorted(rng.sample(range(host.n), 3 + c % 3))
            patterns = rng.sample(upto[5], c % 3)
            patterns.append(to_graph6(induced_subgraph(host, planted)))
            args = (to_graph6(host), tuple(patterns))
        stream.append((kind, args))
    return stream


def _query(kind: str, args: tuple, tracer: Tracer | None, unit: Unit):
    """Run one query.  Return its verdict line, for the stream digest, and
    the output check to run once the query's timing has stopped (or None)."""
    if tracer is None:
        if kind == "pair":
            return classify_pair(resolve_graph(args[0]), resolve_graph(args[1])).line(), None
        if kind == "colouring":
            return classify_colouring(resolve_graph(args[0]), resolve_graph(args[1])).line(), None
        if kind == "single":
            return classify_single(resolve_graph(args[0])).line(), None
        if kind == "cw":
            g = resolve_graph(args[0])
            k, expr = cliquewidth(g)
            return f"cliquewidth={k}", lambda: _check_cw(unit, args[0], g, k, expr, None)
        host = resolve_graph(args[0])
        patterns = [resolve_graph(p) for p in args[1]]
        free, hit = is_free(host, patterns)
        return _free_line(free, hit), lambda: _check_free(unit, free, hit, host, patterns, None)

    def resolve(arg: str) -> Graph:
        with tracer.span("cli.resolve_graph"):
            return resolve_graph(arg)

    if kind in ("pair", "colouring"):
        g1, g2 = resolve(args[0]), resolve(args[1])
        if kind == "pair":
            # classify_pair reads the facts of both graphs and their
            # complements; the facts cache keeps them, so asking first
            # splits facts from the rule walk without repeating work.
            for h in (g1, complement(g1), g2, complement(g2)):
                with tracer.span("classifier.cw_facts"):
                    cw_facts(h)
            with tracer.span("classifier.classify_pair"):
                return classify_pair(g1, g2).line(), None
        for h in (g1, g2):
            with tracer.span("classifier.colouring_facts"):
                colouring_facts(h)
        with tracer.span("classifier.classify_colouring"):
            return classify_colouring(g1, g2).line(), None
    if kind == "single":
        g = resolve(args[0])
        with tracer.span("classifier.classify_single"):
            return classify_single(g).line(), None
    if kind == "cw":
        g = resolve(args[0])
        with tracer.span("cwexact.cliquewidth") as record:
            k, expr = cliquewidth(g)
        return f"cliquewidth={k}", lambda: _check_cw(unit, args[0], g, k, expr, record)
    host = resolve(args[0])
    patterns = [resolve(p) for p in args[1]]
    with tracer.span("patterns.is_free") as record:
        free, hit = is_free(host, patterns)
    if not free:
        tracer.count("patterns.is_free.hits")
    return _free_line(free, hit), lambda: _check_free(unit, free, hit, host, patterns, record)


def _free_line(free: bool, hit) -> str:
    if free:
        return "free=yes"
    index, emb = hit
    return f"free=no index={index} embedding={','.join(map(str, emb.mapping))}"


def _check_free(unit: Unit, free: bool, hit, host: Graph, patterns: list, record) -> None:
    unit.check(not free, "free-check missed a planted pattern", record)
    if not free:
        index, emb = hit
        unit.check(emb.is_valid(host, patterns[index]), f"invalid embedding {emb.mapping}", record)


def _check_cw(unit: Unit, arg: str, g: Graph, k: int, expr, record) -> None:
    unit.check(_rebuilds(expr, g, k), f"cw witness for {arg} fails", record)


def queries_unit(stream: list, tracer: Tracer | None, digest_key: str | None) -> Unit:
    unit = Unit(tracer)
    lines = []
    for i, (kind, args) in enumerate(stream):
        check = None
        t0 = perf_counter()
        try:
            if tracer is None:
                line, check = _query(kind, args, None, unit)
            else:
                tracer.op_id = i
                with tracer.span("harness.query"):
                    line, check = _query(kind, args, tracer, unit)
        except Exception as exc:  # one failed query must not end the stream
            line = f"error={type(exc).__name__}"
            unit.failures.append(f"{kind}{args}: {exc!r}")
        unit.add_op(t0, perf_counter())
        if check is not None:
            check()
        lines.append(line)
    unit.items = len(stream)
    if digest_key is not None:
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        unit.check(digest == EXPECTED["queries_digest"][digest_key], f"query digest {digest}")
    return unit


# -- oracle ----------------------------------------------------------------


def oracle_classes(size: str) -> list[tuple[str, Graph]]:
    """The fixed graph classes of the oracle batch.

    They are drawn once from a constant seed, so every run times the same
    mix of widths: the exact oracle's cost varies about tenfold between
    graphs of one size, and a fresh draw per seed would move the batch time
    by more than any bound a regression check could use.
    """
    rng = random.Random("oracle-classes")
    classes = []
    for n, count in SIZES[size]["oracle_classes"]:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for i in range(count):
            edges = rng.sample(pairs, rng.randint(0, len(pairs)))
            classes.append((f"n{n}.{i}", Graph(n, edges)))
    classes += [(name, graph_named(name)) for name in SIZES[size]["oracle_named"]]
    return classes


def oracle_inputs(seed: int, size: str) -> list[tuple[str, Graph]]:
    """The run's seed relabels every class at random and shuffles the order."""
    rng = random.Random(f"oracle/{seed}")
    batch = [(label, _relabelled(g, rng)) for label, g in oracle_classes(size)]
    rng.shuffle(batch)
    return batch


def oracle_unit(batch: list, tracer: Tracer | None, size: str) -> Unit:
    unit = Unit(tracer)
    widths = EXPECTED["oracle_widths"][size]
    for i, (label, g) in enumerate(batch):
        record = None
        t0 = perf_counter()
        try:
            if tracer is None:
                k, expr = cliquewidth(g)
            else:
                # cliquewidth tries k = 1, 2, ... with cliquewidth_at_most;
                # calling that directly gives one span per label budget.
                tracer.op_id = i
                with tracer.span("harness.graph"):
                    for k in range(1, g.n + 1):
                        with tracer.span(f"cwexact.cliquewidth_at_most.k{k}"):
                            ok, expr = cliquewidth_at_most(g, k)
                        if ok:
                            break
        except Exception as exc:
            unit.add_op(t0, perf_counter())
            unit.failures.append(f"oracle {label}: {exc!r}")
            continue
        unit.add_op(t0, perf_counter())
        if tracer is None:
            rebuilt = _rebuilds(expr, g, k)
        else:
            with tracer.span("cwexpr.eval_cwexpr") as record:
                rebuilt = _rebuilds(expr, g, k)
        unit.check(rebuilt, f"oracle witness for {label} does not rebuild it", record)
        unit.check(k == widths[label], f"oracle width of {label} is {k}, recorded {widths[label]}", record)
    unit.items = len(batch)
    return unit


# -- witness -----------------------------------------------------------------


def witness_inputs(seed: int, size: str) -> dict:
    members = SIZES[size]["witness_free"] + SIZES[size]["witness_cert"]
    patterns = {
        fam: [(name, graph_named(name)) for name in FAMILIES[fam].freeness]
        for fam, _ in members
    }
    return {"free": SIZES[size]["witness_free"], "cert": SIZES[size]["witness_cert"], "patterns": patterns}


def witness_unit(inputs: dict, tracer: Tracer | None) -> Unit:
    unit = Unit(tracer)
    built: list[tuple[str, Graph]] = []

    def span(name: str):
        return tracer.span(name) if tracer is not None else nullcontext()

    def timed(name: str, body) -> None:
        """Time one check; body returns the output check to run afterwards."""
        check = None
        t0 = perf_counter()
        try:
            if tracer is None:
                check = body()
            else:
                tracer.op_id = len(unit.intervals)
                with tracer.span("harness.check"):
                    check = body()
        except Exception as exc:
            unit.failures.append(f"{name}: {exc!r}")
        unit.add_op(t0, perf_counter())
        if check is not None:
            check()

    def build(fam: str, p: int) -> tuple:
        with span(f"witnesses.{fam}"):
            out = FAMILIES[fam].build(p)
        built.append((f"{fam}({p})", out[0]))
        return out

    def free_check(fam: str, p: int):
        g, _ = build(fam, p)
        patterns = inputs["patterns"][fam]
        if tracer is None:
            free, hit = is_free(g, [pat for _, pat in patterns])
            return lambda: unit.check(free, f"{fam}({p}) contains {hit and patterns[hit[0]][0]}")
        # is_free is contains_induced over the list, stopping at a hit; on a
        # free graph that is exactly one call per declared pattern.
        for name, pat in patterns:
            with tracer.span(f"patterns.contains_induced.{metric_safe(name)}") as record:
                emb = contains_induced(g, pat)
            if emb is not None:
                return lambda: unit.check(False, f"{fam}({p}) contains {name}", record)
        return None

    def cert_check(fam: str, p: int):
        g, part = build(fam, p)
        with span("certificate.check_certificate") as record:
            report = check_certificate(g, part)
        bound = lower_bound(part.n, part.m)

        def check() -> None:
            unit.check(report.all_hold, f"{fam}({p}) certificate fails", record)
            unit.check(report.bound == bound, f"{fam}({p}) bound {report.bound} != {bound}", record)

        return check

    def round_trip(label: str, g: Graph, write, read):
        with span(f"graphs.{write.__name__}"):
            text = write(g)
        with span(f"graphs.{read.__name__}") as record:
            back = read(text)
        return lambda: unit.check(back == g, f"{label} changes in a {write.__name__} round trip", record)

    for fam, p in inputs["free"]:
        timed(f"free {fam}({p})", lambda: free_check(fam, p))
    for fam, p in inputs["cert"]:
        timed(f"cert {fam}({p})", lambda: cert_check(fam, p))
    for label, g in list(built):
        for write, read in ((to_graph6, from_graph6), (to_edge_list, from_edge_list)):
            timed(f"{write.__name__} {label}", lambda: round_trip(label, g, write, read))
    unit.items = len(unit.intervals)
    return unit


# -- entry point -------------------------------------------------------------


def build_inputs(workload: str, seed: int, size: str):
    return {
        "scan": scan_inputs,
        "queries": queries_inputs,
        "oracle": oracle_inputs,
        "witness": witness_inputs,
    }[workload](seed, size)


def run_unit(workload: str, inputs, tracer: Tracer | None, seed: int, size: str) -> Unit:
    if workload == "scan":
        return scan_unit(inputs, tracer)
    if workload == "queries":
        digest_key = size if seed == DEFAULT_SEED else None
        return queries_unit(inputs, tracer, digest_key)
    if workload == "oracle":
        return oracle_unit(inputs, tracer, size)
    return witness_unit(inputs, tracer)


def main(host: Sampler) -> int:
    """Run one unit; ``host`` has sampled the host's speed since the process
    started (unit.py)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--spans", help="file for the spans of a traced unit")
    args = parser.parse_args()
    inputs = build_inputs(args.workload, args.seed, args.size)
    out: dict = {"ready": time.monotonic()}
    out["setup_sampling_s"], out["setup_reference_s"] = host.setup()
    if args.mode != "setup":
        tracer = Tracer() if args.mode == "traced" else None
        unit = run_unit(args.workload, inputs, tracer, args.seed, args.size)
        out.update(unit.result(host))
        if tracer is not None and args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0

