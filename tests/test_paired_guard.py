"""The paired-measurement helper behind every throughput guard in
``benchmarks/``, driven by synthetic measurements (no real timing)."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import random
import sys

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def _load_helper():
    spec = importlib.util.spec_from_file_location(
        "paired_guard", BENCHMARKS / "paired_guard.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


paired_guard = _load_helper()


def noisy(rate: float, seed: int, log=None, side=None):
    """A measurement returning ``rate`` with 1% seeded gaussian noise."""
    rng = random.Random(seed)

    def measure() -> float:
        if log is not None:
            log.append(side)
        return rate * (1.0 + rng.gauss(0.0, 0.01))
    return measure


def sequence(values, log=None, side=None):
    """A measurement returning ``values`` in order."""
    values = iter(values)

    def measure() -> float:
        if log is not None:
            log.append(side)
        return next(values)
    return measure


def test_an_a_a_pair_passes_the_floor(capsys):
    for seed in range(20):
        result = paired_guard.paired(noisy(1e6, seed), noisy(1e6, seed + 100))
        assert paired_guard.record("aa", "A/A", result, 0.97, {})
    assert "FAIL" not in capsys.readouterr().err


def test_a_ten_percent_slower_treatment_fails_the_floor(capsys):
    for seed in range(20):
        result = paired_guard.paired(noisy(1e6, seed), noisy(0.9e6, seed + 100))
        assert not paired_guard.record("slow", "10% slower", result, 0.97, {})
    assert capsys.readouterr().err.count("FAIL: 10% slower") == 20


def test_pairs_alternate_which_side_runs_first():
    log = []
    result = paired_guard.paired(sequence([1.0] * paired_guard.PAIRS, log, "c"),
                                 sequence([1.0] * paired_guard.PAIRS, log, "t"))
    assert len(result.ratios) == paired_guard.PAIRS
    firsts = log[0::2]
    assert firsts == ["c", "t"] * (paired_guard.PAIRS // 2) + ["c"] * (paired_guard.PAIRS % 2)
    assert all(pair in (["c", "t"], ["t", "c"])
               for pair in (log[i:i + 2] for i in range(0, len(log), 2)))


def test_an_unguarded_row_is_one_pair():
    log = []
    result = paired_guard.paired(sequence([2.0], log, "c"), sequence([3.0], log, "t"),
                                 guarded=False)
    assert log == ["c", "t"]
    assert result.ratio == 1.5
    assert result.iqr == 0.0


def test_recorded_median_and_iqr_match_a_hand_computation(tmp_path, monkeypatch):
    monkeypatch.setattr(paired_guard, "PAIRS", 4)
    # Pairs run (c, t), (t, c), (c, t), (t, c); per-pair ratios 1.0, 0.8,
    # 1.2 and 0.9, so sorted 0.8, 0.9, 1.0, 1.2.  Median: (0.9 + 1.0) / 2.
    # Inclusive quartiles sit at positions 0.75 and 2.25 of the sorted list:
    # Q1 = 0.8 + 0.75 * 0.1 = 0.875, Q3 = 1.0 + 0.25 * 0.2 = 1.05.
    result = paired_guard.paired(sequence([100.0, 100.0, 50.0, 200.0]),
                                 sequence([100.0, 80.0, 60.0, 180.0]))
    assert result.ratios == pytest.approx((1.0, 0.8, 1.2, 0.9))
    path = tmp_path / "BENCH_test.json"
    held = paired_guard.record("cell", "hand", result, 0.9, {"n": 7}, json_path=str(path))
    assert held
    cell = json.loads(path.read_text())["cell"]
    assert cell["ratio"] == 0.95
    assert cell["iqr"] == 0.175
    assert cell["control_rate"] == 100.0          # median of 50, 100, 100, 200
    assert cell["treatment_rate"] == 90.0         # median of 60, 80, 100, 180
    assert cell["pairs"] == 4
    assert cell["floor"] == 0.9
    assert cell["n"] == 7
    assert set(cell["env"]) == {"python", "numpy", "cpus"}
    # The gate is the median: 0.95 misses a 0.96 floor that the best pair
    # (1.2) and the mean (0.975) would both clear.
    assert not paired_guard.record("cell", "hand", result, 0.96, {})


def test_record_merges_keys_and_starts_over_on_a_corrupt_file(tmp_path):
    path = tmp_path / "BENCH_test.json"
    path.write_text("{not json")
    result = paired_guard.paired(sequence([1.0] * 8), sequence([2.0] * 8))
    paired_guard.record("bounded", "a", result, 3.0, {}, json_path=str(path))
    paired_guard.record("uo", "b", result, 1.5, {}, json_path=str(path))
    cells = json.loads(path.read_text())
    assert set(cells) == {"bounded", "uo"}
    assert cells["uo"]["ratio"] == 2.0


def test_gate_measures_guarded_rows_in_pairs_and_fails_on_a_miss(capsys):
    log = []
    cases = [
        (["context"], noisy(1.0, 1, log, "row"), noisy(1.0, 2, log, "row"), None),
        (["guarded"], noisy(1.0, 3, log, "guard"), noisy(0.5, 4, log, "guard"),
         ("key", "half speed", 0.97, {})),
    ]
    assert paired_guard.gate(cases, ["row", "control", "treatment", "ratio"]) == 1
    assert log.count("row") == 2
    assert log.count("guard") == 2 * paired_guard.PAIRS
    captured = capsys.readouterr()
    assert "| context |" in captured.out
    assert "headline: half speed" in captured.out
    assert "FAIL: half speed" in captured.err


def test_no_benchmark_keeps_a_private_timer():
    for path in BENCHMARKS.glob("bench_*.py"):
        assert "perf_counter" not in path.read_text(), path.name
