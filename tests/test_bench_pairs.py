"""The verdict that tools/bench_pairs.py gives each metric, how it reads
one run's output, and the pairs.json it writes."""

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
    compared = bench_pairs.compare(metric, parent, change)
    assert bench_pairs.summary(metric["name"], compared).endswith(f": {compared['verdict']}")
    return compared["verdict"]


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


def test_pairs_json_holds_every_run_and_each_metric(monkeypatch, tmp_path):
    bench = {"run_seconds": 20, "workloads": [{"name": "explain"}],
             "end_to_end": [HIGHER, LOWER]}
    machine = {"nproc": 2, "blas": "openblas"}

    def fake_git(*args):
        return "/nowhere" if args[-1] == "--show-toplevel" else f"sha-of-{args[-1]}"

    def fake_export(rev, into):
        into.mkdir(parents=True, exist_ok=True)
        (into / "BENCHMARK.json").write_text(json.dumps(bench))

    def fake_run_once(tree, workload, seed, seconds):
        frames = 100.0 + seed if tree.name == "parent" else 120.0 + seed
        return {"correct": True, "failed": 0, "machine": machine,
                "metrics": {"frames_per_s": {"value": frames},
                            "op_ms_p90": {"value": 1000.0 / frames}}}, \
            {"minflt": 7, "cpu_s": 2.5, "wall_frames_per_s": frames / 2}

    monkeypatch.setattr(bench_pairs, "git", fake_git)
    monkeypatch.setattr(bench_pairs, "export", fake_export)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    argv = ["--parent", "p", "--change", "c", "--work", str(tmp_path), "--pairs", "3",
            "--seed", "5", "--seconds", "1"]
    assert bench_pairs.main(argv) == 0

    record = json.loads((tmp_path / "pairs.json").read_text())
    assert record.keys() == {"parent", "change", "seconds", "workloads"}
    assert record["parent"] == {"rev": "p", "commit": "sha-of-p^{commit}"}
    assert record["change"] == {"rev": "c", "commit": "sha-of-c^{commit}"}
    assert record["seconds"] == 1
    explain = record["workloads"]["explain"]
    assert explain["seeds"] == [5, 6, 7]
    for side, base in (("parent", 100.0), ("change", 120.0)):
        runs = explain["runs"][side]
        assert [r["seed"] for r in runs] == [5, 6, 7]
        assert all(r["ok"] and r["machine"] == machine for r in runs)
        assert [r["figures"]["frames_per_s"] for r in runs] == [base + 5, base + 6, base + 7]
        assert all(r["figures"]["minflt"] == 7 and r["figures"]["cpu_s"] == 2.5 for r in runs)
        assert [r["figures"]["wall_frames_per_s"] for r in runs] == \
               [(base + 5) / 2, (base + 6) / 2, (base + 7) / 2]
    frames = explain["metrics"]["frames_per_s"]
    assert frames.keys() == {"parent_median", "parent_q1", "parent_q3", "change_median",
                             "change_pct", "wins", "pairs", "bound", "verdict"}
    assert (frames["parent_median"], frames["change_median"]) == (106.0, 126.0)
    assert (frames["parent_q1"], frames["parent_q3"]) == (105.5, 106.5)
    assert (frames["wins"], frames["pairs"], frames["verdict"]) == (3, 3, "gain")
    assert explain["metrics"]["op_ms_p90"]["verdict"] == "gain"


def test_a_result_keeps_its_machine_line(monkeypatch, tmp_path):
    stdout = ('machine {"nproc": 2}\nexplain: 2 timed rounds\n'
              + json.dumps({"correct": True, "failed": 0, "metrics": {}}) + "\n")
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda argv, **kwargs:
                        subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr=""))
    result, _ = bench_pairs.run_once(tmp_path, "explain", 1, 1.0)
    assert result["machine"] == {"nproc": 2}


def test_a_run_keeps_its_wall_figures_and_cpu_seconds(monkeypatch, tmp_path):
    summary = ("eval: 7 timed rounds, 56 operations, scaled set-ups 0.455, 0.460 s; "
               "in wall time: setup_s 0.512, frames_per_s 3408.2, op_ms_p90 294.1; "
               "yardstick 13.05 ms (nominal 12.0); phase s warm-up 0.4, timed 20.1")
    stdout = ('machine {"nproc": 2}\n' + summary + "\n"
              + json.dumps({"correct": True, "failed": 0, "metrics": {}}) + "\n")
    usage = iter([(100, 1.0), (350, 4.5)])
    monkeypatch.setattr(bench_pairs, "_usage", lambda: next(usage))
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda argv, **kwargs:
                        subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr=""))
    _, own = bench_pairs.run_once(tmp_path, "eval", 1, 1.0)
    assert own == {"minflt": 250, "cpu_s": 3.5, "wall_frames_per_s": 3408.2,
                   "wall_op_ms_p90": 294.1, "yardstick_ms": 13.05}
    assert bench_pairs.wall_figures(["explain: 2 timed rounds"]) == {}
