"""Smoke test of the in-process closed-loop A/B tool (tests/loop_ab.py)."""

from pathlib import Path

import pytest

import loop_ab

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", loop_ab.WORKLOADS)
def test_loop_ab_times_a_tree_against_itself(workload, capsys):
    # two rounds of a few ticks per side, both sides this tree under their
    # own package names: equal inputs and solver counts tick for tick
    assert loop_ab.main([str(ROOT), str(ROOT), "--workload", workload,
                         "--rounds", "2", "--ticks", "6"]) == 0
    out = capsys.readouterr().out
    assert f"{workload}, seed 1, 6 ticks per loop, 2 rounds" in out
    assert "of 2 rounds" in out
    assert ("applied inputs equal: yes; evaluations, iterations, rejections and "
            "stops equal: yes") in out
