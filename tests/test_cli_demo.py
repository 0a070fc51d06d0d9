"""``python -m repro``: the demonstration runs end to end.

The demo's recursive section prints one line per Example 7-1 strategy;
all three answer the same ``works_for(People, boss)`` question, so their
answer counts agree.  A seed that is not an integer is a usage error.
"""

import re

from repro.__main__ import main


def test_demo_prints_every_example_7_1_strategy(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    counts = {
        strategy: int(answers)
        for strategy, answers in re.findall(
            r"^\s+(naive|topdown|bottomup)\s+answers=(\d+)", out, re.MULTILINE
        )
    }
    assert set(counts) == {"naive", "topdown", "bottomup"}
    assert len(set(counts.values())) == 1
    assert counts["naive"] > 0


def test_bad_seed_is_a_usage_error(capsys):
    assert main(["x"]) == 2
    assert "usage" in capsys.readouterr().err
