"""In-memory span recorder for the traced benchmark run.

Spans are opened by the benchmark around its calls into cwkit's public
functions; nothing inside the package is instrumented.  Each span records its
name, start, end, parent span and the id of the operation (query, graph,
check) it belongs to.  Spans stay in memory and are written out once, when
the unit of work ends, so tracing adds no I/O to the timed region.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Field positions of one span record (a list, mutated in place when it ends).
NAME, START, END, PARENT, OP_ID, FAILED = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block; the yielded record's FAILED slot may be set
        by the caller when the block's output fails its check."""
        parent = self._open[-1] if self._open else -1
        record = [name, perf_counter(), 0.0, parent, self.op_id, False]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        except Exception:
            record[FAILED] = True
            raise
        finally:
            record[END] = perf_counter()
            self._open.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def layer_metrics(self) -> dict[str, float]:
        """Per span name: calls, busy_s (self time) and failed.

        Self time is a span's duration minus the time its child spans cover.
        Children of one span run one after another on one thread, so the
        covered time is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                covered[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, float] = {}
        for rec, child_time in zip(self.spans, covered):
            name = rec[NAME]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.busy_s"] = out.get(f"{name}.busy_s", 0.0) + (
                rec[END] - rec[START] - child_time
            )
            out[f"{name}.failed"] = out.get(f"{name}.failed", 0) + int(rec[FAILED])
        out.update(self.counts)
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": rec[NAME],
                            "start": rec[START],
                            "end": rec[END],
                            "parent": rec[PARENT],
                            "op": rec[OP_ID],
                            "failed": rec[FAILED],
                        }
                    )
                    + "\n"
                )
