"""Counters for the consistent-query-answering subsystem (ROADMAP E19).

One :class:`CqaStats` instance per session, surfaced as
``session.stats()["cqa"]``.  The counters cover all three CQA stages —
the violation detector (probes vs. generation-fresh cache hits), the
certain-answer rewriter (compiles vs. warm plan reuse), and the
all-repairs enumeration fallback (asks, memo hits, repairs walked) —
plus the degradation rung that demotes a failing rewriting to
enumeration, so production dashboards can see *which* CQA path served
an ask stream and how often the store was actually dirty.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..concurrency import LockedCounters


@dataclass
class CqaStats(LockedCounters):
    """Detector / rewriter / fallback counters for ``ask_consistent``."""

    #: detector: GROUP-BY/HAVING probes actually issued vs. answered
    #: from the per-relation data-generation cache.
    probes: int = 0
    probe_cache_hits: int = 0
    #: asks served by each mode.
    clean_fast_paths: int = 0
    rewritten_asks: int = 0
    fallback_asks: int = 0
    #: rewriter plan-cache traffic for the consistent-mode shape variant.
    rewrite_compiles: int = 0
    rewrite_cache_hits: int = 0
    #: degradation rung: rewriting failed permanently, enumeration served.
    degraded: int = 0
    #: enumeration fallback internals.
    memo_hits: int = 0
    repairs_enumerated: int = 0
