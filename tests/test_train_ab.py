"""Smoke test of the in-process training A/B tool (tests/train_ab.py)."""

import json
from pathlib import Path

import train_ab

ROOT = Path(__file__).resolve().parents[1]


def test_train_ab_times_a_tree_against_itself(tmp_path, capsys):
    # two trainings of a tiny profile per side, both sides this tree under
    # their own package names: equal weights and logs, one time per round
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({
        "data": {"n_samples": 300},
        "train": {"n_states": 3, "batch_size": 4, "washout": 10, "T_s": 60,
                  "tau": 10}}))
    assert train_ab.main([str(ROOT), str(ROOT), "--config", str(cfg),
                          "--rounds", "2"]) == 0
    out = capsys.readouterr().out
    assert "25 sequences of 60 samples, batch 4, n = 3" in out
    assert "of 2 rounds" in out
    assert "weights equal: yes; logs equal but timings: yes" in out
