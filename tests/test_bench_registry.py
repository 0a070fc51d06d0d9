"""The benchmark driver's registry (``benchmarks/run_all.py``).

A family's ``run(quick, seed)`` states each gate once, as a
``(name, observed, op, bound)`` tuple; that one tuple decides the run,
names a failure on stderr and is recorded as ``{name: bound}``.  A fake
family exercises the driver without running a real benchmark; the real
families are checked for unique gate names with every measurement stubbed.
"""

import inspect
import json
import sys
import types
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def run_all(monkeypatch):
    # syspath_prepend restores sys.path afterwards, run_all's own
    # insertions included.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import run_all

    return run_all


def fake_family(observed):
    def run(quick, seed):
        return {
            "benchmark": "fake",
            "baseline": "none",
            "workloads": {"probe": {"observed": observed, "quick": quick}},
            "gates": [
                ("probe_min_observed", observed, ">=", 1),
                ("probe_identical", True, "==", True),
            ],
        }

    return types.SimpleNamespace(run=run)


@pytest.fixture
def driver(run_all, monkeypatch, tmp_path):
    monkeypatch.setattr(run_all, "FAMILIES", {"E99": "fake"})
    monkeypatch.setattr(run_all, "REPO_ROOT", tmp_path)
    return run_all


def test_a_failing_gate_fails_the_run_by_name(driver, monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(sys.modules, "bench_e99_fake", fake_family(0))
    assert driver.main(["--seed", "3"]) == 1
    err = capsys.readouterr().err
    assert "probe_min_observed: 0 >= 1" in err
    assert "probe_identical" not in err
    record = json.loads((tmp_path / "BENCH_fake.json").read_text())
    assert record == {
        "benchmark": "fake",
        "mode": "full",
        "seed": 3,
        "baseline": "none",
        "workloads": {"probe": {"observed": 0, "quick": False}},
        "gates": {"probe_min_observed": 1, "probe_identical": True},
        "passed": False,
    }


def test_passing_gates_in_quick_mode(driver, monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(sys.modules, "bench_e99_fake", fake_family(1))
    assert driver.main(["--quick", "--skip-tests", "--only", "e99"]) == 0
    assert "FAIL" not in capsys.readouterr().err
    record = json.loads((tmp_path / "BENCH_fake.quick.json").read_text())
    assert record["mode"] == "quick"
    assert record["passed"] is True
    assert not (tmp_path / "BENCH_fake.json").exists()


def test_an_unknown_family_exits_2(driver, tmp_path, capsys):
    assert driver.main(["--only", "E99,E98"]) == 2
    assert "E98" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


class _Zeros(dict):
    """A stub measurement: every field reads 0."""

    def __missing__(self, key):
        return 0


@pytest.mark.parametrize("quick", [True, False])
def test_gate_names_are_unique_in_every_family(run_all, monkeypatch, quick):
    assert len(run_all.FAMILIES) == 10
    for selector in run_all.FAMILIES:
        module = run_all.family_module(selector)
        for name, function in inspect.getmembers(module, inspect.isfunction):
            if name != "run":
                monkeypatch.setattr(module, name, lambda *a, **k: _Zeros())
        gates = module.run(quick, 5)["gates"]
        names = [gate[0] for gate in gates]
        assert len(names) == len(set(names)), selector
        assert all(op in run_all.OPS for _, _, op, _ in gates), selector
