"""Scale-out serving tier (ROADMAP E18): processes, not threads.

PR 4's serving layer parallelized warm asks across *threads* and hit
the interpreter lock: ``BENCH_serving.json`` records four threads at
roughly one thread's throughput on a single core.  This package is the
classic shared-nothing answer — in the lineage of the parallel query
processing literature the ROADMAP cites — applied to the paper's
tightly-coupled front-end:

* an **owner process** holds the writable :class:`~repro.coupling.
  PrologDbSession`; every write funnels through it — a base-relation
  write lands in the external store — and publishes a new
  **generation**;
* N **worker processes** each hold a read-only program snapshot (shipped
  as ``(generation, source text)`` payloads from
  ``PrologDbSession.program_snapshot``) plus a full warm plan-cache
  stack, and answer ``ask``/``ask_many`` against the shared file-backed
  WAL SQLite store — which already supports multi-process readers;
* an **asyncio front door** (:class:`FrontDoor`) coalesces same-shape
  warm goals arriving within a few milliseconds into one batch-seeded
  ``ask_many`` statement, so load itself converts into the PR 4/PR 5
  batch fast path.

Worker death is transient by design: the tier restarts the worker from
the current generation and replays its outstanding requests
(:class:`~repro.errors.WorkerUnavailableError` only surfaces when the
restart budget is exhausted).  ``:memory:`` stores are single-process
and fail fast with :class:`~repro.errors.SingleProcessStoreError`.
"""

from .frontdoor import FrontDoor
from .tier import ServingTier

__all__ = ["FrontDoor", "ServingTier"]
