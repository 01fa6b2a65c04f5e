#!/usr/bin/env python3
"""How steady wall and scaled times are within one long run.

    python3 perfbench/stretches.py --workload train|eval|explain \
        --seconds 120 --stretch 12

Runs one workload for ``--seconds`` after a warm-up round, cuts its
operations into stretches of about ``--stretch`` seconds of wall time, and
prints, for frames per second and the 90th-percentile operation time, the
value of each stretch in wall and in scaled time, and their spread,
(Q3 - Q1) / median. README.md quotes its output.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics

import run


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(run.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=120)
    parser.add_argument("--stretch", type=float, default=12)
    args = parser.parse_args()

    run_dir = run.HERE / "runs" / f"stretches-{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        config = run_dir / "bolf.cfg"
        config.write_text(run.config_text(args.seed, run_dir / "work"))
        workload = run.WORKLOADS[args.workload](run.Client(config), run_dir / "work", args.seed)
        run.set_up(workload, workload.work)
        runner = run.Runner(workload)
        runner.round()
        frames = [f for _, _, f in workload.ops()]
        rounds, _, _ = runner.timed(args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ops = [(t, f) for r in rounds for t, f in zip(r, frames)]
    stretches, current, wall = [], [], 0.0
    for (elapsed, scaled), f in ops:
        current.append((elapsed, scaled, f))
        wall += elapsed
        if wall >= args.stretch:
            stretches.append(current)
            current, wall = [], 0.0
    print(f"{args.workload}: {len(ops)} operations, {len(stretches)} stretches")
    for k, kind in ((0, "wall"), (1, "scaled")):
        fps = [sum(o[2] for o in s) / sum(o[k] for o in s) for s in stretches]
        print(f"frames/s {kind:6s} spread {spread(fps):.3f}:", " ".join(f"{v:.1f}" for v in fps))
        if all(len(s) > 1 for s in stretches):
            p90 = [1e3 * statistics.quantiles([o[k] for o in s], n=10)[-1] for s in stretches]
            print(f"p90 ms   {kind:6s} spread {spread(p90):.3f}:", " ".join(f"{v:.1f}" for v in p90))


if __name__ == "__main__":
    main()
