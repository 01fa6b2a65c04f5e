"""Paired benchmark runs of two revisions, side by side.

    python3 tools/bench_pairs.py --parent REV --change REV --work DIR \
        [--workload W ...] [--pairs 10] [--seed 100] [--seconds S]

Exports both revisions with ``git archive`` into the sibling directories
DIR/parent and DIR/change, whose names have equal length, since the
figures move with the length of the checkout's path. Pair i runs
``perfbench/run.py --workload W --seed SEED+i --seconds S --trace 0`` once
in each tree, the parent first in even pairs and the change first in odd
ones. Metric names, directions and bounds come from the parent's
BENCHMARK.json, and so does the default run length. Every run's figures
are printed as it ends; then, per workload and metric, the parent's median
and Q1-Q3, the change's median, the relative change, in how many pairs the
change was better (ties count for neither) and a verdict: "gain", "worse"
(beyond the metric's bound) or "unresolved" (see ``compare``). Each
run's minor page faults (the child's ``ru_minflt``) are printed with its
figures, and each side's median with the summary.

The same figures go to DIR/pairs.json: both revisions, the run length,
and per workload the seeds, every run's figures with the ``machine``
record perfbench/run.py printed for it, and per metric the numbers and
verdict of ``compare``.

Exits 1 if any run is not correct or has a failed operation. Writes only
under DIR, which must lie outside the repository.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, into: Path) -> None:
    """The tree of ``rev``, as committed, in a fresh directory ``into``."""
    if into.exists():
        shutil.rmtree(into)
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, int]:
    """perfbench/run.py's result object (its last line of output), with the
    record of its ``machine`` line under "machine", and the minor page
    faults the run took. A run that fails, or whose last line is not a
    result object, gives a result that is not correct and has no
    metrics."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    minflt = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines and not done.returncode else None
    except json.JSONDecodeError:
        result = None
    if not (isinstance(result, dict) and {"correct", "failed", "metrics"} <= result.keys()):
        sys.stderr.write(done.stderr)
        return {"correct": False, "failed": None, "metrics": {}}, minflt
    machine = next((json.loads(line.split(" ", 1)[1]) for line in lines
                    if line.startswith("machine ")), None)
    return result | {"machine": machine}, minflt


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Parent median and Q1-Q3, change median, relative change in percent,
    the pairs in which the change was better, and a verdict: "worse" if
    the change's median is worse than the parent's by more than the
    metric's bound, "gain" if the change was better in at least 9/10 of
    the pairs and its median is better by more than the parent's Q1-Q3
    spread, and "unresolved" otherwise."""
    lower = metric["better"] == "lower"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                 if len(parent) > 1 else parent * 3)
    wins = sum(c < p if lower else c > p for p, c in zip(parent, change))
    gained = p_med - c_med if lower else c_med - p_med
    if -gained / p_med > metric["bound"]:
        verdict = "worse"
    elif 10 * wins >= 9 * len(parent) and gained > q3 - q1:
        verdict = "gain"
    else:
        verdict = "unresolved"
    return {"parent_median": p_med, "parent_q1": q1, "parent_q3": q3,
            "change_median": c_med, "change_pct": 100 * (c_med / p_med - 1),
            "wins": wins, "pairs": len(parent), "bound": metric["bound"],
            "verdict": verdict}


def summary(name: str, c: dict) -> str:
    """One line of ``compare``'s figures and verdict for metric ``name``."""
    return (f"  {name:13s} parent {c['parent_median']:10.4g} "
            f"(Q1-Q3 {c['parent_q1']:.4g}-{c['parent_q3']:.4g})  "
            f"change {c['change_median']:10.4g}  {c['change_pct']:+6.1f}%  "
            f"better in {c['wins']}/{c['pairs']}  bound {c['bound']:.2f}: {c['verdict']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--change", required=True, help="revision under test")
    parser.add_argument("--work", required=True, type=Path,
                        help="directory for the two trees, outside the repository")
    parser.add_argument("--workload", action="append", default=[],
                        help="workload to run (repeatable; default: every one)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: BENCHMARK.json's run_seconds)")
    args = parser.parse_args(argv)

    top = Path(git("rev-parse", "--show-toplevel")).resolve()
    work = args.work.resolve()
    if work == top or top in work.parents:
        parser.error(f"--work {work} lies inside the repository {top}")
    revs = dict(zip(SIDES, (args.parent, args.change)))
    commits = {side: git("rev-parse", f"{rev}^{{commit}}") for side, rev in revs.items()}
    trees = {side: work / side for side in SIDES}
    for side in SIDES:
        export(commits[side], trees[side])
    bench = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    faults = 0
    seeds = [args.seed + i for i in range(args.pairs)]
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for workload in workloads:
        for i, seed in enumerate(seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                result, minflt = run_once(trees[side], workload, seed, seconds)
                values = {k: v["value"] for k, v in result["metrics"].items()}
                ok = result["correct"] and result["failed"] == 0
                faults += not ok
                runs[workload][side].append({
                    "seed": seed, "ok": ok, "figures": values | {"minflt": minflt},
                    "machine": result.get("machine")})
                print(f"{workload} seed {seed} {side}: "
                      + ("ok " if ok else "FAULT ")
                      + " ".join(f"{k} {v:.4g}" for k, v in values.items())
                      + f" minflt {minflt}", flush=True)

    print(f"\n{args.pairs} pairs per workload, {seconds:g} s each; "
          f"parent {args.parent}, change {args.change}")
    record = {side: {"rev": revs[side], "commit": commits[side]} for side in SIDES}
    record |= {"seconds": seconds, "workloads": {}}
    for workload in workloads:
        print(workload)
        figures = {side: [r["figures"] for r in runs[workload][side]] for side in SIDES}
        compared = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            pairs = [(p[name], c[name]) for p, c in zip(figures["parent"], figures["change"])
                     if name in p and name in c]
            if pairs:
                compared[name] = compare(metric, [p for p, _ in pairs], [c for _, c in pairs])
                print(summary(name, compared[name]))
        print("  minor faults  " + "  ".join(
            f"{side} {statistics.median(f['minflt'] for f in figures[side]):.0f}"
            for side in SIDES))
        record["workloads"][workload] = {"seeds": seeds, "runs": runs[workload],
                                         "metrics": compared}
    (work / "pairs.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {work / 'pairs.json'}")
    if faults:
        print(f"{faults} run(s) not correct or with failed operations", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
