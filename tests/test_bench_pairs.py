"""The verdict that tools/bench_pairs.py prints for each metric, and how it
reads one run's output."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

HIGHER = {"name": "frames_per_s", "better": "higher", "bound": 0.25}
LOWER = {"name": "op_ms_p90", "better": "lower", "bound": 0.25}
PARENT = [100.0, 98.0, 102.0, 99.0, 101.0, 97.0, 103.0, 100.0, 99.0, 101.0]  # Q1-Q3 99-101


def _verdict(metric, parent, change):
    return bench_pairs.summary(metric, parent, change).rsplit(": ", 1)[1]


@pytest.mark.parametrize("metric, sign", [(HIGHER, 1), (LOWER, -1)])
def test_gain_needs_nine_of_ten_pairs_and_a_gap_beyond_the_spread(metric, sign):
    change = [p + sign * 5.0 for p in PARENT]
    assert _verdict(metric, PARENT, change) == "gain"
    # better in 8 of 10 pairs only
    eight = change[:8] + [p - sign * 1.0 for p in PARENT[8:]]
    assert _verdict(metric, PARENT, eight) == "unresolved"
    # better in every pair, but the medians differ by less than Q1-Q3 (2.0)
    close = [p + sign * 1.5 for p in PARENT]
    assert _verdict(metric, PARENT, close) == "unresolved"


@pytest.mark.parametrize("metric, sign", [(HIGHER, 1), (LOWER, -1)])
def test_worse_only_beyond_the_bound(metric, sign):
    assert _verdict(metric, PARENT, [p - sign * 30.0 for p in PARENT]) == "worse"
    assert _verdict(metric, PARENT, [p - sign * 20.0 for p in PARENT]) == "unresolved"


@pytest.mark.parametrize("stdout, returncode, ok", [
    ("machine {}\n" + json.dumps({"correct": True, "failed": 0, "metrics": {}}) + "\n", 0, True),
    ("machine {}\nTraceback (most recent call last):\n", 0, False),
    ("machine {}\n[1, 2]\n", 0, False),
    ("machine {}\n{\"metrics\": {}}\n", 0, False),
    ("", 0, False),
    ("machine {}\n" + json.dumps({"correct": True, "failed": 0, "metrics": {}}) + "\n", 1, False),
], ids=["result", "traceback", "list", "no_verdict", "no_output", "exit_1"])
def test_a_run_without_a_result_object_is_a_fault(monkeypatch, tmp_path, stdout, returncode, ok):
    def fake_run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, returncode, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    result, _ = bench_pairs.run_once(tmp_path, "train", 1, 1.0)
    assert (result["correct"] and result["failed"] == 0) is ok
    if not ok:
        assert result["metrics"] == {}
