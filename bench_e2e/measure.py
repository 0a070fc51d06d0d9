"""The timed run: a closed loop of one client, cut into slices.

Tracing is off here.  Interference on a shared host only ever slows the
program down, so both estimators take the quiet side of what they see:

* throughput is wall-clock goals per second of the **best slice**; every
  slice is kept, so the spread can be printed and compared;
* the run cycles through its operation list many times, and each
  operation keeps the **shortest latency** it ever showed.  ``call_p50_us``
  and ``call_p99_us`` are percentiles *over the operations* of those
  minima: the typical goal and the slowest 1% of goals, each at its own
  best.  Across ten seeds they repeat within a few percent where
  percentiles over raw samples swing by 20-30% with the host.  What they
  cannot show — stalls that hit random calls — stays visible in the
  traced run's ``bench.raw_p99_us``.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field

SLICES = 10
#: how often a real run (slices of at least a second) must get through its
#: operation list for the per-operation minimum to have rejected anything
MIN_PASSES = 3
REAL_RUN_SECONDS = SLICES * 1.0

RAISED = object()

#: op kind -> the O(1) observation the timed run compares with ``Op.count``
COUNT = {
    "ask": len,
    "ask_consistent": len,
    "ask_many": lambda answers: [len(a) for a in answers],
    "assert": lambda result: result,
    "retract": lambda result: result,
}


def answer_rows(answers, columns):
    return frozenset(tuple(a[c] for c in columns) for a in answers)


def full_observation(op, result):
    """What the traced run compares with ``Op.expected``: whole answer sets."""
    if op.kind == "ask_many":
        return [answer_rows(a, op.columns) for a in result]
    if op.is_write:
        return result
    return answer_rows(result, op.columns)


class BenchmarkError(RuntimeError):
    """The run cannot produce a number worth reporting."""


def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def warm_ops(ops, per_family: int = 3) -> list:
    """The first few reads of every goal family: what set-up warms plans with."""
    taken: dict[str, int] = {}
    chosen = []
    for op in ops:
        if not op.is_write and taken.get(op.family, 0) < per_family:
            taken[op.family] = taken.get(op.family, 0) + 1
            chosen.append(op)
    return chosen


def compile_ops(calls, ops) -> list:
    """Ops resolved against one handle, as flat tuples for the hot loop."""
    return [
        (calls[op.kind], op.payload, COUNT[op.kind], op.count, op.goals,
         op.is_write)
        for op in ops
    ]


def fresh_best(program) -> list:
    """Per-operation shortest latency so far: nothing seen yet."""
    return [float("inf")] * len(program)


@dataclass
class Slice:
    seconds: float = 0.0
    goals: int = 0
    failed: int = 0
    reads: list = field(default_factory=list)
    writes: list = field(default_factory=list)

    @property
    def calls(self) -> int:
        return len(self.reads) + len(self.writes)


def run_slice(program, position: int, seconds: float,
              best=None) -> tuple[int, Slice]:
    """Run ``program`` cyclically from ``position`` for ``seconds``.

    ``best`` (one slot per operation) keeps each operation's shortest
    latency across every slice it is passed to.
    """
    clock = time.perf_counter
    made = Slice()
    reads, writes = made.reads, made.writes
    size = len(program)
    if best is None:
        best = fresh_best(program)
    goals = failed = 0
    started = now = clock()
    deadline = started + seconds
    while now < deadline:
        index = position % size
        call, payload, observe, count, weight, is_write = program[index]
        position += 1
        began = clock()
        try:
            result = call(payload)
        except Exception:  # noqa: BLE001 - a raising call is a failed call
            result = RAISED
        now = clock()
        elapsed = now - began
        (writes if is_write else reads).append(elapsed)
        if elapsed < best[index]:
            best[index] = elapsed
        goals += weight
        if result is RAISED or observe(result) != count:
            failed += 1
    made.seconds = now - started
    made.goals = goals
    made.failed = failed
    return position, made


def timed_run(handle, ops, seconds: float, slices: int = SLICES):
    """Warm up for one slice length (at most a second), then time ``slices``.

    Returns the slices and the read operations' shortest latencies.
    """
    program = compile_ops(handle.calls, ops)
    length = seconds / slices
    position, _ = run_slice(program, 0, min(1.0, length))
    best = fresh_best(program)
    gc.collect()
    gc.freeze()
    try:
        made = []
        for _ in range(slices):
            position, one = run_slice(program, position, length, best)
            made.append(one)
    finally:
        gc.unfreeze()
    return made, [
        low for low, op in zip(best, ops)
        if not op.is_write and low != float("inf")
    ]


def _best(values, better: str) -> dict:
    """The reported value plus every slice's, so spread stays visible."""
    return {
        "value": max(values) if better == "higher" else min(values),
        "median": statistics.median(values),
        "worst": min(values) if better == "higher" else max(values),
    }


def summarize(made, best_reads) -> dict:
    """End-to-end timing metrics of one timed run."""
    ordered = sorted(best_reads)
    return {
        "goals_per_s": _best([one.goals / one.seconds for one in made], "higher"),
        "call_p50_us": {"value": percentile(ordered, 0.50) * 1e6},
        "call_p99_us": {"value": percentile(ordered, 0.99) * 1e6},
    }


def raw_percentiles(made) -> dict:
    """Percentiles over every timed sample, stalls and host noise included."""
    raw = {}
    for name, samples in (
        ("bench.raw", sorted(r for one in made for r in one.reads)),
        ("write", sorted(w for one in made for w in one.writes)),
    ):
        if samples:
            raw[f"{name}_p50_us"] = percentile(samples, 0.50) * 1e6
            raw[f"{name}_p99_us"] = percentile(samples, 0.99) * 1e6
    return raw


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
