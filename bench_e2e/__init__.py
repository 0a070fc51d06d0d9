"""bench_e2e — the repository's end-to-end benchmark (ROADMAP E26).

One fixed organisation, seven workloads, absolute numbers, and a
per-layer split against the bare-SQLite floor.  ``bench_e2e/run.py`` is
the only entry point; ``bench_e2e/README.md`` is the metric and
workload dictionary.  Every layer is measured from outside, through the
public functions of ``src/repro`` — nothing under ``src/`` knows this
package exists.
"""
