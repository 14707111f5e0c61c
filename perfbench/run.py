"""cwkit benchmark: one workload, timed from outside, in fresh interpreters.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 32 --trace 0

Run it from anywhere inside a checkout of the repository; it imports cwkit
from ``src/`` of that checkout.  Workloads (see perfbench/README.md):

* ``scan``     one cold ``scan_pairs(7)`` per unit, 784,378 pairs;
* ``queries``  a seeded stream of 1,500 shell-style queries per unit;
* ``oracle``   exact clique-width of 100 graphs with 7 or 8 vertices per unit;
* ``witness``  a fixed battery of freeness, certificate and I/O checks.

Each unit runs in its own interpreter, started only after the previous one
has exited, so the caches start empty every time.  Units repeat until the
next one would end after ``--seconds``.  Before each unit,
``SETUPS_PER_UNIT`` processes only import cwkit and build the inputs, to
time set-up at moments spread over the run.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, whose first
unit runs untraced to give the tracing overhead.  Earlier lines give the
environment, each metric by name with its unit, and the failure ratio.  A run
also writes its summary, and a traced run its spans, under perfbench/out/.
Exit status: 0 with a result; 1 if a unit process failed or ran out of time;
2 if the checkout holds no cwkit sources.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import Reference, normalised

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("scan", "queries", "oracle", "witness")
SETUPS_PER_UNIT = 2
HARD_LIMIT_S = 170.0  # every run ends well inside 180 s

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "batch_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}
# Tail percentile of one operation's latency, chosen so that at least ten
# samples of one unit lie beyond it; None means the slowest operation (a scan
# is one operation, and the witness battery has 18 fixed checks).
TAIL = {"scan": None, "queries": 99, "oracle": 90, "witness": None}

_SPANS = (
    "enumeration.nonisomorphic_graphs_upto",
    "classifier.cw_facts",
    "scan.scan_pairs",
    "cli.resolve_graph",
    "classifier.classify_pair",
    "classifier.colouring_facts",
    "classifier.classify_colouring",
    "classifier.classify_single",
    "patterns.is_free",
    "cwexact.cliquewidth",
    "cwexpr.eval_cwexpr",
    "witnesses.thm4H",
    "witnesses.thm5G",
    "witnesses.thm4G",
    "witnesses.grid",
    "patterns.contains_induced.P6",
    "patterns.contains_induced.co_2P1_P2",
    "patterns.contains_induced.3P2",
    "patterns.contains_induced.P2_P4",
    "patterns.contains_induced.co_P1_P4",
    "certificate.check_certificate",
    "graphs.to_graph6",
    "graphs.from_graph6",
    "graphs.to_edge_list",
    "graphs.from_edge_list",
)
PER_LAYER: dict[str, str] = {}
for _name in _SPANS:
    PER_LAYER |= {f"{_name}.calls": "count", f"{_name}.busy_s": "s", f"{_name}.failed": "count"}
for _k in range(1, 9):
    _name = f"cwexact.cliquewidth_at_most.k{_k}"
    PER_LAYER |= {f"{_name}.calls": "count", f"{_name}.busy_s": "s"}
PER_LAYER |= {"scan.pairs": "count", "patterns.is_free.hits": "count", "harness.trace_overhead_s": "s"}


def environment(seed: int, reference: Reference) -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().strip()
    except OSError:
        loadavg = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
        "loadavg": loadavg,
        "reference_ms_start": reference.time_s(repeats=3) * 1e3,
    }


class UnitFailed(RuntimeError):
    pass


def launch(args, mode: str, deadline: float, spans: Path | None = None) -> tuple[dict, float]:
    """Run one unit process to completion; return its report and its set-up
    time at the reference speed, less the sampler's own time."""
    cmd = [
        sys.executable,
        str(HERE / "unit.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--mode", mode,
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - launched),
        )
    except subprocess.TimeoutExpired:
        raise UnitFailed(f"{mode} unit of {args.workload} ran past the time limit") from None
    if proc.returncode != 0:
        raise UnitFailed(f"{mode} unit of {args.workload} exited with status {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    setup = report["ready"] - launched - report["setup_sampling_s"]
    return report, normalised(setup, report["setup_reference_s"])


def percentile(values: list[float], q: int | None) -> float:
    if q is None or len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=100)[q - 1]


def measure(args) -> tuple[dict, dict, list]:
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    setups: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    while True:
        mode = "traced" if args.trace and plain else "plain"
        spans = OUT / f"spans-{args.workload}-seed{args.seed}-unit{len(traced)}.jsonl" if mode == "traced" else None
        t0 = time.monotonic()
        setups += [launch(args, "setup", deadline)[1] for _ in range(SETUPS_PER_UNIT)]
        report, setup = launch(args, mode, deadline, spans)
        setups.append(setup)
        (traced if mode == "traced" else plain).append(report)
        longest = max(longest, time.monotonic() - t0)
        if (not args.trace or traced) and time.monotonic() - start + longest > args.seconds:
            break
    units = traced if args.trace else plain
    for unit in plain + traced:
        unit["batch_s"] = sum(unit["op_s"])
    # Every unit of a run times the same operations.  Each operation counts
    # with its median time, at the reference speed, over the units.
    per_op = [statistics.median(times) for times in zip(*(u["op_s"] for u in units))]
    summary = {
        "units": len(units),
        "unit_batch_s": [round(u["batch_s"], 4) for u in units],
        "unit_wall_batch_s": [round(sum(u["wall_op_s"]), 4) for u in units],
        "setup_s": [round(t, 4) for t in setups],
        "attempted": sum(u["attempted"] for u in plain + traced),
        "failed": sum(u["failed"] for u in plain + traced),
        "failures": [f for u in plain + traced for f in u["failures"]][:20],
    }
    if args.trace:
        layers = {}
        for name in PER_LAYER:
            layers[name] = statistics.median(u["layers"].get(name, 0) for u in traced)
        layers["harness.trace_overhead_s"] = statistics.median(
            u["batch_s"] for u in traced
        ) - statistics.median(u["batch_s"] for u in plain)
        return layers, summary, [u["op_s"] for u in units]
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "items_per_s": units[0]["items"] / sum(per_op),
        "batch_s": sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": percentile(per_op, TAIL[args.workload]) * 1e3,
    }
    return metrics, summary, [{k: u[k] for k in ("op_s", "wall_op_s", "reference_s")} for u in units]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke runs every workload at a tiny size")
    args = parser.parse_args()
    if not (SRC / "cwkit" / "__init__.py").is_file():
        print(f"error: no cwkit sources under {SRC}", file=sys.stderr)
        return 2
    reference = Reference()
    env = environment(args.seed, reference)
    compileall.compile_dir(SRC / "cwkit", quiet=1)
    OUT.mkdir(exist_ok=True)
    try:
        metrics, summary, unit_op_s = measure(args)
    except UnitFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["reference_ms_end"] = reference.time_s(repeats=3) * 1e3
    units = PER_LAYER if args.trace else END_TO_END
    for failure in summary["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"env": env, "workload": args.workload, "trace": args.trace, **summary}))
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(f"{args.workload} fail_ratio = {summary['failed'] / max(1, summary['attempted']):.6g}")
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"env": env, "workload": args.workload, "summary": summary, "result": result,
              "unit_op_s": unit_op_s}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
