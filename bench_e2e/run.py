"""bench_e2e entry point: run workloads, print metrics, compare runs.

    python3 bench_e2e/run.py                      # all seven, timed + traced
    python3 bench_e2e/run.py --workload warm_ask --seed 5 --seconds 10 --trace 0
    python3 bench_e2e/run.py --compare A.json B.json
    python3 bench_e2e/run.py --profile cold_ask
    python3 bench_e2e/run.py --self-test

Each workload runs in a fresh subprocess (``PYTHONHASHSEED=0``, killed
after 90 s).  The last line of standard output of a ``--workload`` run
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Metric names, units and regression bounds live in
``BENCHMARK.json`` at the repository root; ``bench_e2e/README.md``
explains them.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in CONTRACT["workloads"]]
DEFAULT_ORG = (5, 3, 8)
KILL_AFTER_S = 90
SETUP_REPEATS = 5
#: stop repeating an expensive set-up once this much was spent (minimum 3)
SETUP_BUDGET_S = 4.0


# -- one workload, in this process ---------------------------------------------------


def make_workload(name, seed, org_shape, out_dir):
    from repro.dbms.workload import generate_org

    from bench_e2e.workloads import WORKLOADS

    out_dir.mkdir(parents=True, exist_ok=True)
    depth, branching, staff = org_shape
    org = generate_org(
        depth=depth, branching=branching, staff_per_dept=staff, seed=seed
    )
    return WORKLOADS[name](org, seed, out_dir)


def run_workload(name, seed, seconds, trace, org_shape=DEFAULT_ORG,
                 out_dir=None, corrupt=False) -> dict:
    """Run one workload here; ``trace`` is "0", "1" or "both"."""
    from bench_e2e import layers, measure

    out_dir = Path(out_dir) if out_dir else ROOT / "bench_e2e" / "out"
    workload = make_workload(name, seed, org_shape, out_dir)
    # quarter-second smoke runs get a list they can pass over a few times
    ops = workload.ops(limit=None if seconds >= 2 else 56)
    if corrupt:
        ops = corrupted(ops)
    warm = measure.warm_ops(ops)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "org": list(org_shape), "attempted": 0, "failed": 0, "metrics": {},
    }
    metrics = result["metrics"]

    if trace in ("0", "both"):
        setups: list[float] = []
        handle = None
        try:
            while len(setups) < SETUP_REPEATS and (
                len(setups) < 3 or sum(setups) < SETUP_BUDGET_S
            ):
                if handle is not None:
                    handle.close()
                    handle = None
                    # or peak_rss_mb would depend on when the collector ran
                    gc.collect()
                started = time.perf_counter()
                handle = workload.build(warm=warm)
                setups.append(time.perf_counter() - started)
            made, best_reads = measure.timed_run(handle, ops, seconds)
        finally:
            if handle is not None:
                handle.close()
        calls = sum(one.calls for one in made)
        if seconds >= measure.REAL_RUN_SECONDS and calls < measure.MIN_PASSES * len(ops):
            raise measure.BenchmarkError(
                f"{calls / len(ops):.1f} passes over the operation list in "
                f"{seconds:.0f}s; per-operation minima need {measure.MIN_PASSES}"
            )
        result["attempted"] += calls
        result["failed"] += sum(one.failed for one in made)
        summary = measure.summarize(made, best_reads)
        summary["setup_s"] = {
            "value": statistics.median(setups), "median": statistics.median(setups),
            "worst": max(setups),
        }
        summary["peak_rss_mb"] = {"value": measure.peak_rss_mb()}
        for metric in CONTRACT["end_to_end"]:
            metrics[metric["name"]] = {**summary[metric["name"]], "unit": metric["unit"]}
        result["samples"] = {
            "slices": len(made), "setups": len(setups),
            "operations": len(ops),
            "passes": round(calls / len(ops), 1),
        }

    if trace in ("1", "both"):
        traced = layers.traced_run(
            workload, ops, warm, seconds, out_dir / f"spans-{name}.jsonl"
        )
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
        for metric in CONTRACT["per_layer"]:
            # a layer this workload does not exercise reads 0
            value = float(traced["metrics"].get(metric["name"], 0.0))
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    bad = [k for k, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        raise measure.BenchmarkError(f"non-finite metrics: {bad}")
    result["correct"] = result["failed"] == 0
    return result


def corrupted(ops) -> list:
    """The ops with one expected row dropped: the oracle's own self-test."""
    for index, op in enumerate(ops):
        if op.kind == "ask" and op.expected:
            wrong = frozenset(list(op.expected)[1:])
            return (
                ops[:index]
                + [replace(op, expected=wrong, count=len(wrong))]
                + ops[index + 1:]
            )
    raise ValueError("no op with a non-empty expected answer to corrupt")


def self_test(out_dir=None) -> int:
    """A wrong expected answer must be counted, timed and traced alike."""
    for trace in ("0", "1"):
        result = run_workload(
            "warm_ask", 5, 0.25, trace, org_shape=(2, 2, 4), out_dir=out_dir,
            corrupt=True,
        )
        share = result["failed"] / result["attempted"]
        print(f"self-test trace={trace}: fail_share = {share:.6f} "
              f"({result['failed']}/{result['attempted']})")
        if not result["failed"]:
            print("self-test FAILED: a corrupted expected row went unnoticed")
            return 1
    print("self-test ok: a wrong answer is counted")
    return 0


def profile_workload(name, seed, seconds, org_shape, out_dir) -> int:
    """Top-25 cumulative cProfile rows of the workload's own loop."""
    import cProfile
    import io
    import pstats

    from bench_e2e import measure

    workload = make_workload(name, seed, org_shape, out_dir)
    ops = workload.ops()
    handle = workload.build(warm=measure.warm_ops(ops))
    try:
        program = measure.compile_ops(handle.calls, ops)
        position, _ = measure.run_slice(program, 0, 0.5)
        profiler = cProfile.Profile()
        profiler.enable()
        measure.run_slice(program, position, min(seconds, 3.0))
        profiler.disable()
    finally:
        handle.close()
    text = io.StringIO()
    pstats.Stats(profiler, stream=text).sort_stats("cumulative").print_stats(25)
    path = out_dir / f"profile-{name}.txt"
    path.write_text(text.getvalue(), encoding="utf-8")
    print(text.getvalue())
    print(f"profile written to {path}")
    return 0


# -- the parent: one subprocess per workload ---------------------------------------------


def spawn(name, args, trace) -> dict:
    """Run one workload in a child; a killed or crashed child failed."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", trace,
        "--org", ",".join(map(str, args.org)), "--out", str(args.out),
    ]
    environment = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            command, env=environment, capture_output=True, text=True,
            timeout=KILL_AFTER_S,
        )
        problem = None if done.returncode == 0 else (
            f"exit code {done.returncode}\n{done.stderr[-2000:]}"
        )
        output = done.stdout
    except subprocess.TimeoutExpired as expired:
        problem, output = f"killed after {KILL_AFTER_S}s", ""
        sys.stderr.write(str(expired.stderr or ""))
    if problem is None:
        try:
            return json.loads(output.strip().splitlines()[-1])
        except (IndexError, ValueError):
            problem = f"no result line in child output: {output[-500:]!r}"
    print(f"{name}: FAILED — {problem}", file=sys.stderr)
    return {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": trace, "correct": False, "attempted": 1, "failed": 1,
        "metrics": {}, "problem": problem,
    }


def print_result(result) -> None:
    share = result["failed"] / result["attempted"]
    print(f"== {result['workload']}  seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    print(f"   {'fail_share':34s} {share:14.6f} ratio   "
          f"({result['failed']} of {result['attempted']} calls)")
    for name, metric in result["metrics"].items():
        spread = ""
        if "worst" in metric:
            spread = f"   slices: median {metric['median']:.4g}, worst {metric['worst']:.4g}"
        print(f"   {name:34s} {metric['value']:14.4f} {metric['unit']:7s}{spread}")


def environment_stamp() -> dict:
    import platform
    import sqlite3

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit, "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_all(args) -> int:
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    trace = args.trace if args.trace is not None else "both"
    stamp = environment_stamp()
    results = []
    for name in names:
        result = spawn(name, args, trace)
        print_result(result)
        results.append(result)
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "history.jsonl", "a", encoding="utf-8") as history:
        for result in results:
            history.write(json.dumps({**stamp, **result}) + "\n")
    path = args.out / f"results-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    path.write_text(
        json.dumps({"meta": {**stamp, "seed": args.seed, "seconds": args.seconds},
                    "workloads": {r["workload"]: r for r in results}}, indent=1),
        encoding="utf-8",
    )
    print(f"results written to {path}")
    if any("problem" in r for r in results):
        return 1
    if args.workload:
        # the driver's contract: exactly these keys, on the last line
        (result,) = results
        print(json.dumps({
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in result["metrics"].items()
            },
        }))
    return 0


# -- comparing two result files --------------------------------------------------------------


def compare(base_path, new_path) -> int:
    """Per workload and end-to-end metric: base, new, ratio, bound, verdict.

    ``unresolved`` means that in either run the reported (best) slice and
    the median slice lie further apart than the bound, so a difference of
    that size cannot be told from noise.
    """
    base = json.loads(Path(base_path).read_text(encoding="utf-8"))["workloads"]
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))["workloads"]
    print(f"{'workload':16s} {'metric':14s} {'base':>12s} {'new':>12s} "
          f"{'ratio':>7s} {'bound':>6s}  verdict")
    worse = 0
    for name in WORKLOAD_NAMES:
        if name not in base or name not in new:
            continue
        rows = [("fail_share", 0.0, "lower",
                 base[name]["failed"] / base[name]["attempted"],
                 new[name]["failed"] / new[name]["attempted"], 0.0)]
        for metric in CONTRACT["end_to_end"]:
            old, now = (side[name]["metrics"].get(metric["name"]) for side in (base, new))
            if old is None or now is None:
                continue
            spread = max(
                abs(m["median"] - m["value"]) / m["median"] if "median" in m else 0.0
                for m in (old, now)
            )
            rows.append((metric["name"], metric["bound"], metric["better"],
                         old["value"], now["value"], spread))
        for metric_name, bound, better, old, now, spread in rows:
            ratio = now / old if old else (1.0 if now == old else math.inf)
            worse_by = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
            if worse_by > max(bound, spread):
                verdict = "worse"
                worse += 1
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{name:16s} {metric_name:14s} {old:12.4f} {now:12.4f} "
                  f"{ratio:7.3f} {bound:6.2f}  {verdict}")
    return 1 if worse else 0


# -- command line ------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", "--duration", type=float,
                        default=float(CONTRACT["run_seconds"]), dest="seconds")
    parser.add_argument("--trace", choices=("0", "1", "both"), default=None,
                        help="0 = timed run, 1 = traced run; default both")
    parser.add_argument("--out", type=Path, default=ROOT / "bench_e2e" / "out")
    parser.add_argument("--org", default=",".join(map(str, DEFAULT_ORG)),
                        help="depth,branching,staff_per_dept of the generated org")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--profile", choices=WORKLOAD_NAMES, metavar="WORKLOAD")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.org = tuple(int(part) for part in args.org.split(","))
    if args.compare:
        return compare(*args.compare)
    if args.self_test:
        return self_test(args.out)
    if args.profile:
        return profile_workload(args.profile, args.seed, args.seconds, args.org,
                                args.out)
    if args.child:
        print(json.dumps(run_workload(
            args.workload, args.seed, args.seconds, args.trace, args.org, args.out
        )))
        return 0
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
