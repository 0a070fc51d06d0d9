"""Smoke test of the benchmark itself: tiny org, quarter-second runs.

Checks the harness, not the numbers: every workload answers correctly
against the oracle, every metric ``BENCHMARK.json`` names comes out
finite, a wrong expected answer is counted, and nothing — no worker
process, no temp store, no file outside the output directory — is left
behind.
"""

import json
import math
import multiprocessing
import subprocess
import sys

import pytest

from bench_e2e import run as bench

pytestmark = pytest.mark.smoke

TINY_ORG = (2, 2, 4)
END_TO_END = [m["name"] for m in bench.CONTRACT["end_to_end"]]
PER_LAYER = [m["name"] for m in bench.CONTRACT["per_layer"]]


@pytest.mark.parametrize("name", bench.WORKLOAD_NAMES)
def test_workload_reports_every_metric(name, tmp_path):
    result = bench.run_workload(
        name, seed=5, seconds=0.25, trace="both", org_shape=TINY_ORG,
        out_dir=tmp_path,
    )
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert list(result["metrics"]) == END_TO_END + PER_LAYER
    for metric_name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), metric_name
    for metric_name in END_TO_END:
        assert result["metrics"][metric_name]["value"] > 0, metric_name
    # the spans are the only thing a workload leaves: no temp store
    assert [p.name for p in tmp_path.iterdir()] == [f"spans-{name}.jsonl"]
    assert not multiprocessing.active_children()


def test_wrong_answer_is_counted(tmp_path):
    assert bench.self_test(tmp_path) == 0


def test_command_line_contract_and_compare(tmp_path):
    done = subprocess.run(
        [sys.executable, bench.__file__, "--workload", "batch_ask", "--seed", "7",
         "--seconds", "0.25", "--trace", "0", "--org", "2,2,4",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0
    assert list(last["metrics"]) == END_TO_END
    assert all(sorted(m) == ["unit", "value"] for m in last["metrics"].values())

    written = sorted(p.name for p in tmp_path.iterdir())
    assert written[0] == "history.jsonl" and len(written) == 2
    results = json.loads((tmp_path / written[1]).read_text())
    # a quarter-second run on a busy host spreads wider than any bound:
    # pin the slices, so the verdicts below do not depend on the weather
    rate = results["workloads"]["batch_ask"]["metrics"]["goals_per_s"]
    rate["median"] = rate["worst"] = rate["value"]
    base = tmp_path / "base.json"
    base.write_text(json.dumps(results))
    assert bench.compare(base, base) == 0
    rate["value"] = rate["median"] = rate["worst"] = rate["value"] / 3
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(results))
    assert bench.compare(base, worse) == 1
