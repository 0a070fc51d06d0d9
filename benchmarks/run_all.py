#!/usr/bin/env python
"""Benchmark driver: one registry of the gated benchmark families E11–E20.

Each family is a module ``benchmarks/bench_<name>_<stem>.py`` exposing
``run(quick, seed)``.  It returns the record's fields (``benchmark``,
``baseline``, optionally ``org``, ``workloads``) and ``gates``: a list of
``(name, observed, op, bound)`` tuples, each gate stated once.  The same
tuple decides (this driver checks ``observed op bound``), is printed (one
line per gate) and is recorded (``gates`` = ``{name: bound}`` in
``BENCH_<stem>.json``, or ``BENCH_<stem>.quick.json`` under ``--quick``
so the committed full-mode records are never clobbered).

Usage::

    python benchmarks/run_all.py            # full sizes, rewrites BENCH_*.json
    python benchmarks/run_all.py --quick    # CI: smoke tests + small sizes
    python benchmarks/run_all.py --seed 42  # reproduce a differential run
    python benchmarks/run_all.py --only E15 # one benchmark family only

``--quick`` first runs the tier-1 ``smoke`` pytest marker (skip it with
``--skip-tests``), then every family at reduced sizes with relaxed bounds:
small enough for a CI timeslice, still loud on an order-of-magnitude
regression.  ``--seed`` threads one seed into every randomized
differential, and the seed in effect is recorded, so a failing run is
reproducible bit-for-bit.  Exits 1 if any gate (or the smoke suite)
fails, 2 if ``--only`` names an unknown family.
"""

from __future__ import annotations

import argparse
import importlib
import json
import operator
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(SRC))

#: ``--only`` selector → record stem; the family's module is
#: ``bench_<selector>_<stem>`` and its record ``BENCH_<stem>.json``.
FAMILIES = {
    "E11": "engine",
    "E12": "coupling",
    "E13": "materialize",
    "E14": "serving",
    "E15": "pushdown",
    "E16": "resilience",
    "E17": "intervals",
    "E18": "scaleout",
    "E19": "cqa",
    "E20": "observe",
}

#: The comparisons a gate may name.
OPS = {
    "==": operator.eq,
    ">=": operator.ge,
    "<=": operator.le,
    ">": operator.gt,
    "in": lambda observed, bound: observed in bound,
}


def holds(gate) -> bool:
    _name, observed, op, bound = gate
    return OPS[op](observed, bound)


def describe(gate) -> str:
    name, observed, op, bound = gate
    return f"{name}: {observed!r} {op} {bound!r}"


def failed(gates) -> list[str]:
    """The gates whose observation misses its bound, one line each."""
    return [describe(gate) for gate in gates if not holds(gate)]


def family_module(selector: str):
    return importlib.import_module(
        f"bench_{selector.lower()}_{FAMILIES[selector]}"
    )


def run_smoke_tests() -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    print("== tier-1 smoke tests ==")
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-m", "smoke"],
        cwd=REPO_ROOT,
        env=env,
    )
    return completed.returncode == 0


def run_family(selector: str, quick: bool, seed: int, smoke_ok: bool) -> bool:
    """Run one family, print and record its gates; True when all hold."""
    mode = "quick" if quick else "full"
    print(f"== {selector} {FAMILIES[selector]} ({mode}) ==")
    result = family_module(selector).run(quick, seed)
    gates = result.pop("gates")
    for gate in gates:
        if holds(gate):
            print(f"ok    {selector} {describe(gate)}")
        else:
            print(f"FAIL  {selector} {describe(gate)}", file=sys.stderr)
    failures = failed(gates)
    record = {
        "benchmark": result.pop("benchmark"),
        "mode": mode,
        "seed": seed,
        **result,
        "gates": {name: bound for name, _, _, bound in gates},
        "passed": not failures and smoke_ok,
    }
    suffix = ".quick.json" if quick else ".json"
    path = REPO_ROOT / f"BENCH_{FAMILIES[selector]}{suffix}"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}")
    return not failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI mode: the pytest smoke marker plus reduced-size benches, "
        "records to BENCH_*.quick.json",
    )
    parser.add_argument(
        "--skip-tests",
        action="store_true",
        help="with --quick: skip the smoke pytest run",
    )
    parser.add_argument(
        "--only",
        default=None,
        help="comma-separated families (e.g. 'E15' or 'E11,E12'); "
        f"default runs all of {','.join(FAMILIES)}",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=5,
        help="seed threaded into every randomized differential; recorded "
        "in each BENCH_*.json so a failing run is reproducible",
    )
    arguments = parser.parse_args(argv)

    if arguments.only is None:
        selected = list(FAMILIES)
    else:
        selected = [part.strip().upper() for part in arguments.only.split(",")]
        unknown = sorted(set(selected) - set(FAMILIES))
        if unknown:
            print(
                f"unknown --only selector(s) {unknown}; "
                f"expected a subset of {','.join(FAMILIES)}",
                file=sys.stderr,
            )
            return 2

    smoke_ok = True
    if arguments.quick and not arguments.skip_tests:
        smoke_ok = run_smoke_tests()

    results = [
        run_family(selector, arguments.quick, arguments.seed, smoke_ok)
        for selector in FAMILIES
        if selector in selected
    ]

    if not smoke_ok:
        print("FAIL: smoke tests failed", file=sys.stderr)
        return 1
    if not all(results):
        return 1
    print("all gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
