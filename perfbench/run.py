#!/usr/bin/env python3
"""Benchmark for bolf: one workload per process, a closed loop with one
client calling the CLI verbs in-process, outputs checked against an
independent reference. Times are scaled by a yardstick of the machine's
speed (yardstick.py), so that they do not read the host's slow spells.

    python3 perfbench/run.py --workload train|eval|explain --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; bolf is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md in this directory for what each number means.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import reference
from spans import SpanStats, Tracer, layer_metrics
from yardstick import Yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# (train, val, test) frames of the family-A corpus every workload writes.
# eval reloads all of it on every call; explain and eval need weights, which
# set-up trains for one epoch.
CORPUS = (256, 64, 128)
TRAIN_EPOCHS = 1
SETUP_REPS = 7  # timed set-ups, after one untimed one
SETUP_AHEAD_S = 0.5  # yardstick runs before a set-up, in seconds of work
PROTOCOLS = ("in_dist", "perturbed", "cross_family")

# Reference comparisons; README.md states these.
SCORE_TOL = 1e-9  # fake_score and rollout weights, absolute
GRAD_ATOL, GRAD_RTOL, GRAD_STEP = 1e-7, 1e-4, 1e-5
GRAD_BATCH, GRAD_COORDS_PER_TENSOR = 8, 2


def import_bolf():
    src = ROOT / "src"
    if not (src / "bolf" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bolf sources under {src}")
    sys.path.insert(0, str(src))
    import bolf
    import bolf.cli
    return bolf


bolf = import_bolf()


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    threads = {k: v for k, v in sorted(os.environ.items())
               if k.endswith(("_NUM_THREADS", "_MAX_THREADS", "MAXIMUM_THREADS"))}
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "thread_env": threads}


class OpFailed(Exception):
    pass


class Client:
    """Calls one bolf CLI verb at a time, in-process, capturing its stdout."""

    def __init__(self, config: Path):
        self.config = config
        self.tracer: Tracer | None = None

    def call(self, verb: str, *args: str, out: Path) -> tuple[float, str]:
        argv = [verb, *args, "--config", str(self.config), "--out", str(out)]
        buf = io.StringIO()
        span = self.tracer.span(f"cli.{verb}") if self.tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(buf), span:
            start = time.perf_counter()
            code = bolf.cli.main(argv)
            elapsed = time.perf_counter() - start
        if code != 0:
            raise OpFailed(f"bolf {' '.join(argv)} exited {code}")
        return elapsed, buf.getvalue()


def config_text(seed: int, work: Path) -> str:
    train_n, val_n, test_n = CORPUS
    return "\n".join([
        f"run.weights_in = {work / 'weights.bolf'}",
        "data.family = A",
        f"data.train_count = {train_n}",
        f"data.val_count = {val_n}",
        f"data.test_count = {test_n}",
        f"data.seed = {seed}",
        f"train.seed = {seed}",
        f"train.epochs = {TRAIN_EPOCHS}",
        ""])


def manifest_rows(corpus: Path, split: str) -> list[dict]:
    with open(corpus / "manifest.csv", newline="") as fh:
        return [row for row in csv.DictReader(fh) if row["split"] == split]


def load_split(corpus: Path, split: str):
    rows = manifest_rows(corpus, split)
    pixels = np.stack([bolf.read_ppm(corpus / r["path"]) for r in rows])
    return pixels, np.array([int(r["label"]) for r in rows]), [r["video_id"] for r in rows]


def tree_bytes(path: Path) -> dict[str, bytes]:
    return {str(p.relative_to(path)): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# workloads: set-up, one round of operations, output snapshot, reference check
# ---------------------------------------------------------------------------

class Workload:
    pooled = False  # whether the operations score frames on the CLI's thread pool

    def __init__(self, client: Client, work: Path, seed: int):
        self.client, self.work, self.seed = client, work, seed
        self.out = work  # where the operations write
        self.cfg = bolf.load_config(client.config, out_dir=str(work))

    def set_up(self, into: Path) -> None:
        """Write the corpus and the weights the operations read."""
        self.client.call("gen-data", out=into)
        self.client.call("train", out=into)

    def ops(self) -> list[tuple[str, tuple[str, ...], int]]:
        """(verb, arguments, frames) of each operation of one round."""
        raise NotImplementedError

    def snapshot(self, index: int, stdout: str) -> tuple[bytes, ...]:
        """Everything the operation printed or wrote, stdout first."""
        raise NotImplementedError

    def check(self, snapshots: list[tuple[bytes, ...]]) -> list[str]:
        """Problems found comparing the operations' outputs with the
        reference; empty when they agree."""
        raise NotImplementedError

    def params(self) -> dict[str, np.ndarray]:
        return bolf.load_weights(self.work / "weights.bolf")

    def ref_forward(self, images, params):
        m = self.cfg.model
        return reference.forward(images, reference.as_float64(params),
                                 patch=m.patch_size, heads=m.heads)

    def check_metrics(self, where: str, row: dict, scores, labels, vids) -> list[str]:
        """The acc, auc_frame, auc_video and n that ``row`` states, against
        the pairwise oracle on reference scores. A frame within SCORE_TOL of
        the threshold, or a pair within SCORE_TOL of a tie, may go either way."""
        problems = []
        near = int(np.count_nonzero(np.abs(scores - self.cfg.threshold) <= SCORE_TOL))
        acc = float(np.mean((scores >= self.cfg.threshold) == (labels == 1)))
        if abs(acc - float(row["acc"])) > near / len(scores) + 1e-12:
            problems.append(f"{where}: acc {row['acc']} != reference {acc!r}")
        v_scores, v_labels = reference.video_means(scores, labels, vids)
        for key, s, lab in (("auc_frame", scores, labels), ("auc_video", v_scores, v_labels)):
            if key not in row:
                continue
            auc, ambiguous = reference.pairwise_auc(s, lab, SCORE_TOL)
            pairs = int(np.sum(lab == 1)) * int(np.sum(lab == 0))
            if abs(auc - float(row[key])) > ambiguous / pairs + 1e-12:
                problems.append(f"{where}: {key} {row[key]} != reference {auc!r}")
        if int(row.get("n", len(scores))) != len(scores):
            problems.append(f"{where}: n {row['n']} != {len(scores)}")
        return problems


class Train(Workload):
    """`bolf train` on the corpus, one call per round."""

    def set_up(self, into):
        self.client.call("gen-data", out=into)

    def ops(self):
        return [("train", (), CORPUS[0] * TRAIN_EPOCHS)]

    def snapshot(self, index, stdout):
        return (stdout.encode(), (self.work / "weights.bolf").read_bytes(),
                (self.work / "history.csv").read_bytes())

    def check(self, snapshots):
        params = self.params()
        problems = [f"parameter {k} is not finite" for k, a in params.items()
                    if not np.all(np.isfinite(a))]
        problems += self.check_gradients(params)
        # the closing line reports val metrics of the weights as saved
        last = snapshots[0][0].decode().strip().splitlines()[-1].split()
        stated = dict(zip(last[2::2], last[3::2]))
        pixels, labels, vids = load_split(self.work, "val")
        scores = reference.fake_scores(self.ref_forward(pixels, params)[0])
        row = {"acc": stated["val_acc"], "auc_frame": stated["val_auc"]}
        return problems + self.check_metrics("train val", row, scores, labels, vids)

    def check_gradients(self, arrays) -> list[str]:
        """backward() on a fixed eval-mode batch against central differences
        of the reference mean loss, on sampled coordinates of every tensor."""
        pixels, labels, _ = load_split(self.work, "train")
        pixels, labels = pixels[:GRAD_BATCH], labels[:GRAD_BATCH]
        params = bolf.ModelParams.from_arrays(self.cfg.model, arrays, requires_grad=True)
        for image, label in zip(pixels, labels):
            with bolf.Tape() as tape:
                logits, _ = bolf.forward(image, params, self.cfg.model)
                loss = bolf.cross_entropy(logits, int(label))
            bolf.backward(loss, tape)
        ref = reference.as_float64(arrays)

        def ref_loss():
            return reference.mean_cross_entropy(self.ref_forward(pixels, ref)[0], labels)

        problems = []
        rng = np.random.default_rng(self.seed)
        for name, tensor in params.named():
            flat = ref[name].reshape(-1)
            for c in rng.choice(flat.size, size=min(GRAD_COORDS_PER_TENSOR, flat.size),
                                replace=False):
                keep = flat[c]
                flat[c] = keep + GRAD_STEP
                up = ref_loss()
                flat[c] = keep - GRAD_STEP
                down = ref_loss()
                flat[c] = keep
                numeric = (up - down) / (2 * GRAD_STEP)
                analytic = tensor.grad.reshape(-1)[c] / len(labels)
                if abs(analytic - numeric) > GRAD_ATOL + GRAD_RTOL * max(abs(analytic), abs(numeric)):
                    problems.append(f"gradient {name}[{c}]: backward {float(analytic)!r}, "
                                    f"central difference {numeric!r}")
        return problems


class Eval(Workload):
    """`bolf eval` under each protocol in turn, one round per three calls."""

    pooled = True

    def ops(self):
        test = CORPUS[2]
        frames = {"in_dist": test, "perturbed": 8 * test, "cross_family": test}
        return [("eval", ("--set", f"run.protocol={p}"), frames[p]) for p in PROTOCOLS]

    def snapshot(self, index, stdout):
        return stdout.encode(), (self.work / "report.csv").read_bytes()

    def check(self, snapshots):
        params, cfg = self.params(), self.cfg
        pixels, labels, vids = load_split(self.work, cfg.split)
        foreign = bolf.build_dataset(dataclasses.replace(cfg.data, family="B")).test
        frame_sets = {
            "in_dist": [("none", pixels)],
            "perturbed": self.perturbed_sets(pixels),
            "cross_family": [("none", np.stack([s.pixels for s in foreign]))],
        }
        problems = []
        for protocol, snap in zip(PROTOCOLS, snapshots):
            rows = list(csv.DictReader(io.StringIO(snap[1].decode())))
            sets = frame_sets[protocol]
            if len(rows) != len(sets):
                problems.append(f"{protocol}: {len(rows)} report rows, expected {len(sets)}")
                continue
            for row, (kind, frames) in zip(rows, sets):
                if row["perturbation"] != kind:
                    problems.append(f"{protocol}: row {row['perturbation']}, expected {kind}")
                    continue
                if protocol == "cross_family":
                    lab, vid = np.array([s.label for s in foreign]), [s.video_id for s in foreign]
                else:
                    lab, vid = labels, vids
                scores = reference.fake_scores(self.ref_forward(frames, params)[0])
                problems += self.check_metrics(f"{protocol}/{kind}", row, scores, lab, vid)
        return problems

    def perturbed_sets(self, pixels):
        """The frames `bolf eval` scores under run.protocol=perturbed, in
        report order: clean, each kind at run.level, then the mixed suites.
        Per-frame perturbation seeds follow the CLI's documented scheme."""
        cfg, kinds, spec = self.cfg, bolf.data.PERTURBATION_KINDS, bolf.PerturbationSpec
        level, seed = cfg.level, cfg.data.seed

        def under(spec_for, salt):
            return np.stack([bolf.perturb(p, spec_for(i), seed * 1_000_003 + salt * 9_973 + i)
                             for i, p in enumerate(pixels)])

        sets = [("none", pixels)]
        for salt, kind in enumerate(kinds, start=1):
            sets.append((kind, under(lambda i: spec(kind, level), salt)))
        pick = np.random.default_rng(np.random.SeedSequence([seed, 71]))
        drawn = [kinds[k] for k in pick.integers(0, len(kinds), size=len(pixels))]
        sets.append(("sing", under(lambda i: spec(drawn[i], level), 5)))
        sets.append(("rand", under(lambda i: spec(drawn[i], "random" if level else 0), 6)))
        sets.append(("mix3", under(lambda i: spec("mix", level, mix_count=3), 7)))
        return sets


class Explain(Workload):
    """One `bolf rollout` request per test-split frame, in manifest order."""

    def __init__(self, client, work, seed):
        super().__init__(client, work, seed)
        self.out = work / "explain"
        self.images: list[Path] = []

    def ops(self):
        if not self.images:
            self.images = [self.work / r["path"] for r in manifest_rows(self.work, "test")]
        return [("rollout", (str(p),), 1) for p in self.images]

    def outputs(self, index) -> tuple[Path, Path]:
        stem = self.images[index].stem
        return self.out / f"{stem}-rollout.pgm", self.out / f"{stem}-overlay.ppm"

    def snapshot(self, index, stdout):
        heat, overlay = self.outputs(index)
        return stdout.encode(), heat.read_bytes(), overlay.read_bytes()

    def check(self, snapshots):
        m, params = self.cfg.model, self.params()
        pixels = np.stack([bolf.read_ppm(p) for p in self.images])
        logits, attentions = self.ref_forward(pixels, params)
        scores = reference.fake_scores(logits)
        weights = reference.rollout(attentions)
        program = bolf.ModelParams.from_arrays(m, params, requires_grad=False)
        problems = []
        for i, snap in enumerate(snapshots):
            where = self.images[i].name
            printed = float(snap[0].decode().split()[1])
            if abs(printed - scores[i]) > SCORE_TOL:
                problems.append(f"{where}: fake_score {printed!r}, reference {float(scores[i])!r}")
            heat = np.rint(bolf.read_ppm(self.outputs(i)[0])[:, :, 0] * 255.0)
            want = reference.heat_levels(weights[i], (m.grid_rows, m.grid_cols), m.patch_size)
            if np.max(np.abs(heat - want)) > 1:
                problems.append(f"{where}: heatmap off the reference by "
                                f"{np.max(np.abs(heat - want)):.0f} levels")
            got = bolf.attention_rollout(bolf.forward(pixels[i], program, m)[1])
            if got.min() < 0 or abs(got.sum() - 1.0) > 1e-12:
                problems.append(f"{where}: rollout weights min {got.min()!r} sum {got.sum()!r}")
            if np.max(np.abs(got - weights[i])) > SCORE_TOL:
                problems.append(f"{where}: rollout weights off the reference by "
                                f"{np.max(np.abs(got - weights[i])):.3g}")
        return problems


WORKLOADS = {"train": Train, "eval": Eval, "explain": Explain}


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, workload: Workload):
        self.w = workload
        self.yard = Yardstick(workload.pooled)
        # set-up generates data and trains, on one thread
        self.setup_yard = Yardstick(False) if workload.pooled else self.yard
        self.reference: list[tuple[bytes, ...]] = []  # warm-up outputs, one per operation
        self.attempted = self.failed = 0
        self.mismatches: list[str] = []

    def round(self) -> list[tuple[float, float]]:
        """One round of operations; (wall, scaled) seconds of each that
        succeeded."""
        times = []
        for i, (verb, args, _) in enumerate(self.w.ops()):
            self.attempted += 1
            try:
                elapsed, stdout = self.w.client.call(verb, *args, out=self.w.out)
            except Exception:
                self.failed += 1
                if self.failed <= 3:
                    traceback.print_exc(file=sys.stderr)
                continue
            times.append((elapsed, self.yard.scaled(elapsed)))
            snap = self.w.snapshot(i, stdout)
            if len(self.reference) <= i:
                self.reference.append(snap)
            elif snap != self.reference[i] and len(self.mismatches) < 10:
                self.mismatches.append(f"operation {i} ({verb} {' '.join(args)}) output differs "
                                       f"from the warm-up round's")
        return times

    def timed(self, seconds: float, tracer: Tracer | None = None, set_up=None, setups: int = 0):
        """Whole rounds until they have taken ``seconds`` of wall time.
        Returns (untraced rounds, traced rounds, set-up times), each round a
        list of (wall, scaled) operation times. With a tracer, untraced and
        traced rounds alternate, so that both kinds see the same machine.
        For the same reason the ``setups`` calls of ``set_up`` are spread
        evenly between the rounds; their time does not count towards
        ``seconds``."""
        rounds, traced, setup_times = [], [], []
        spent = 0.0
        while not rounds or spent < seconds:
            if len(setup_times) < setups and spent >= seconds * len(setup_times) / setups:
                setup_times.append(set_up())
            start = time.perf_counter()
            rounds.append(self.round())
            if tracer:
                with tracing(self.w.client, tracer):
                    traced.append(self.round())
            spent += time.perf_counter() - start
        while len(setup_times) < setups:
            setup_times.append(set_up())
        return rounds, traced, setup_times


@contextlib.contextmanager
def tracing(client: Client, tracer: Tracer | None, span: str | None = None):
    """Wrap bolf's functions and the client's verbs for the duration, inside
    one span when ``span`` is given; does nothing without a tracer."""
    if tracer is None:
        yield
        return
    tracer.install()
    client.tracer = tracer
    try:
        with tracer.span(span) if span else contextlib.nullcontext():
            yield
    finally:
        client.tracer = None
        tracer.remove()


def set_up(workload: Workload, into: Path, tracer: Tracer | None = None):
    """Set up into ``into``; (seconds, every file written)."""
    with tracing(workload.client, tracer, "setup"):
        start = time.perf_counter()
        workload.set_up(into)
        elapsed = time.perf_counter() - start
    return elapsed, tree_bytes(into)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print("machine", json.dumps(machine_record()), flush=True)
    seed = args.seed % 2**31
    run_dir = HERE / "runs" / f"{args.workload}-{seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    try:
        config = run_dir / "bolf.cfg"
        config.write_text(config_text(seed, run_dir / "work"))
        workload = WORKLOADS[args.workload](Client(config), run_dir / "work", seed)
        tracer = Tracer({m: importlib.import_module(f"bolf.{m}")
                         for m in ("cli", "data", "model", "train")}) if args.trace else None
        runner = Runner(workload)
        # untimed: it pays the first-call costs of a fresh process
        _, first = set_up(workload, workload.work)

        def set_up_again(traced_by=None) -> tuple[float, float]:
            """A set-up into a fresh directory; it must write what the first
            wrote. Returns its (wall, scaled) seconds."""
            runner.setup_yard.restart(SETUP_AHEAD_S)
            elapsed, written = set_up(workload, run_dir / "again", traced_by)
            scaled = runner.setup_yard.scaled(elapsed)
            shutil.rmtree(run_dir / "again")
            if written != first:
                runner.mismatches.append("a set-up wrote different files from the first")
            return elapsed, scaled

        setup_times = [set_up_again(tracer)] if tracer else []
        phases = {"setup": time.perf_counter()}
        runner.round()  # warm-up; its outputs are the ones checked below
        phases["warm-up"] = time.perf_counter()
        frames = sum(f for _, _, f in workload.ops())
        rounds, traced_rounds, timed_setups = runner.timed(
            args.seconds, tracer, set_up_again, 0 if tracer else SETUP_REPS)
        setup_times += timed_setups
        ops = [t for r in rounds for t in r]
        if not ops:
            raise SystemExit("perfbench: every timed operation failed")
        # before the checks, whose reference arrays are the benchmark's own
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        phases["timed"] = time.perf_counter()
        problems = list(runner.mismatches)
        if len(runner.reference) == len(workload.ops()):
            problems += workload.check(runner.reference)
        else:
            problems.append("the warm-up round failed, nothing to check")
        for p in problems[:20]:
            print(f"CHECK FAILED: {p}", file=sys.stderr)

        def figures(k: int) -> tuple[float, float, float]:
            """set-up s, frames/s and 90th-percentile operation ms, from the
            wall (k = 0) or the scaled (k = 1) times"""
            lat = [t[k] for t in ops]
            p90 = statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]
            return (statistics.median(t[k] for t in setup_times),
                    frames * len(rounds) / sum(lat), 1e3 * p90)

        if tracer:
            verbs = sorted({f"cli.{verb}" for verb, _, _ in workload.ops()})
            values = layer_metrics(SpanStats(tracer.spans), verbs)
            mean_round = [statistics.mean(sum(t[1] for t in r) for r in rs)
                          for rs in (rounds, traced_rounds)]
            values["trace.overhead_pct"] = (100 * (mean_round[1] / mean_round[0] - 1), "%")
            tracer.write(HERE / "spans" / f"{args.workload}.tsv")
        else:
            # total over total, not a median round: a total averages over
            # whatever the yardstick leaves of the host's spells
            setup_s, frames_per_s, op_ms_p90 = figures(1)
            values = {
                "setup_s": (setup_s, "s"),
                "frames_per_s": (frames_per_s, "1/s"),
                "op_ms_p90": (op_ms_p90, "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        phases["checks"] = time.perf_counter()
        ends = list(phases.values())
        traced_note = f" and {len(traced_rounds)} traced" if tracer else ""
        print(f"{args.workload}: {len(rounds)} timed rounds{traced_note}, "
              f"{len(ops)} operations, scaled set-ups "
              f"{', '.join(f'{t[1]:.3f}' for t in setup_times)} s; in wall time: "
              "setup_s %.3f, frames_per_s %.1f, op_ms_p90 %.1f; " % figures(0)
              + f"yardstick {1e3 * statistics.median(runner.yard.history):.2f} ms "
              f"(nominal {1e3 * runner.yard.nominal:.1f}); phase s "
              + ", ".join(f"{k} {b - a:.1f}" for k, a, b in zip(list(phases)[1:], ends, ends[1:])))
        result = {"correct": not problems, "attempted": runner.attempted, "failed": runner.failed,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
