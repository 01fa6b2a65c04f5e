"""Command-line front end: data generation, training, evaluation
protocols, attention-rollout export, and gradient checking.

Exit codes: 0 success, 2 config error, 3 data error (missing or malformed
files, impossible metrics), 4 numeric failure (non-finite loss, failed
gradient check).
"""
from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .data import (
    PERTURBATION_KINDS,
    SPLITS,
    FormatError,
    PerturbationSpec,
    build_dataset,
    build_split,
    gen_original,
    load_manifest,
    perturb,
    read_ppm,
    write_dataset,
    write_ppm,
)
from .metrics import ScoredSample, UndefinedMetric, accuracy, roc_auc, video_level
from .model import (
    ModelParams,
    attention_rollout,
    forward,
    heatmap_to_image,
    init_params,
)
from .tensor import NumericError, ShapeMismatch, grad_check, primitive_checks
from .train import EpochStats, cross_entropy, evaluate, fake_score, score_samples, train
from .weights import WeightsError, load_weights, save_weights

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

REPORT_COLUMNS = ("protocol", "split", "family", "perturbation", "level",
                  "acc", "auc_frame", "auc_video", "n")
HISTORY_COLUMNS = tuple(f.name for f in fields(EpochStats))

_OTHER_FAMILY = {"A": "B", "B": "A"}


def _fmt(value) -> str:
    """CSV cell: repr for floats (round-trips exactly), blank for None."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, columns, rows) -> None:
    os.makedirs(path.parent, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in columns])


def _manifest_path(cfg: RunConfig) -> Path:
    return Path(cfg.out_dir) / "manifest.csv"


def _load_params(cfg: RunConfig, path: Path | None = None) -> ModelParams:
    """The float64 model in ``path``, by default run.weights_in or else weights_out."""
    if path is None:
        path = Path(cfg.weights_in) if cfg.weights_in else cfg.weights_out_path()
    arrays = load_weights(path)
    try:
        return ModelParams.from_arrays(cfg.model, arrays, requires_grad=False)
    except ValueError as exc:
        raise WeightsError(f"{path}: {exc}") from None


def _report_row(cfg: RunConfig, scored: list[ScoredSample], *, split: str,
                family: str, perturbation: str, level: int) -> dict:
    return {
        "protocol": cfg.protocol,
        "split": split,
        "family": family,
        "perturbation": perturbation,
        "level": level,
        "acc": accuracy(scored, cfg.threshold),
        "auc_frame": roc_auc(scored),
        "auc_video": roc_auc(video_level(scored)),
        "n": len(scored),
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(cfg: RunConfig) -> int:
    splits = build_dataset(cfg.data)
    manifest = write_dataset(splits, cfg.out_dir)
    counts = ", ".join(f"{name} {len(splits.split(name))}" for name in SPLITS)
    print(f"wrote {manifest} ({counts})")
    return EXIT_OK


def cmd_train(cfg: RunConfig) -> int:
    splits = load_manifest(_manifest_path(cfg), ("train", "val"))
    params = init_params(cfg.model, seed=cfg.train.seed)
    params, history = train(params, splits, cfg.train, cfg.model)

    weights_path = cfg.weights_out_path()
    os.makedirs(weights_path.parent, exist_ok=True)
    save_weights(weights_path, {name: t.data for name, t in params.named()})
    _write_csv(Path(cfg.out_dir) / "history.csv", HISTORY_COLUMNS,
               [vars(stats) for stats in history])

    for stats in history:
        val = ("" if stats.val_acc is None else
               f"  val_acc {stats.val_acc:.4f} val_auc {stats.val_auc:.4f}")
        print(f"epoch {stats.epoch:3d}  loss {stats.mean_loss:.4f}  "
              f"train_acc {stats.train_acc:.4f}{val}")

    # Report final metrics from the weights file, loaded as `bolf eval`
    # loads it: the float32 weights exactly, computing in float64. A later
    # eval then reproduces these numbers bit-exactly; the float32 metrics
    # of the last history row may differ in their last digits.
    saved = _load_params(cfg, weights_path)
    val_acc, val_auc = evaluate(saved, splits.val, cfg.model, cfg.threshold)
    print(f"saved {weights_path}  val_acc {val_acc!r}  val_auc {val_auc!r}")
    return EXIT_OK


def _perturbed_rows(cfg: RunConfig, params: ModelParams,
                    base: list, split: str, family: str) -> list[dict]:
    """Clean reference, each kind at the configured level, then the three
    mixed suites (random kind / random kind+level / three kinds composed).
    Level 0 turns every row into the identity for A/B comparison."""
    rows = [_report_row(cfg, score_samples(params, base, cfg.model), split=split,
                        family=family, perturbation="none", level=0)]

    def scored_under(spec_for, salt: int) -> list[ScoredSample]:
        perturbed = [replace(s, pixels=perturb(s.pixels, spec_for(i),
                                               cfg.data.seed * 1_000_003 + salt * 9_973 + i))
                     for i, s in enumerate(base)]
        return score_samples(params, perturbed, cfg.model)

    for salt, kind in enumerate(PERTURBATION_KINDS, start=1):
        rows.append(_report_row(
            cfg, scored_under(lambda i: PerturbationSpec(kind, cfg.level), salt),
            split=split, family=family, perturbation=kind, level=cfg.level))

    pick = np.random.default_rng(np.random.SeedSequence([cfg.data.seed, 71]))
    kinds = [PERTURBATION_KINDS[k] for k in pick.integers(0, len(PERTURBATION_KINDS),
                                                          size=len(base))]
    rows.append(_report_row(
        cfg, scored_under(lambda i: PerturbationSpec(kinds[i], cfg.level), 5),
        split=split, family=family, perturbation="sing", level=cfg.level))
    rows.append(_report_row(
        cfg, scored_under(
            lambda i: PerturbationSpec(kinds[i], "random" if cfg.level else 0), 6),
        split=split, family=family, perturbation="rand", level=0))
    rows.append(_report_row(
        cfg, scored_under(lambda i: PerturbationSpec("mix", cfg.level, mix_count=3), 7),
        split=split, family=family, perturbation="mix3", level=cfg.level))
    return rows


def cmd_eval(cfg: RunConfig) -> int:
    params = _load_params(cfg)

    if cfg.protocol == "cross_family":
        # The unseen-generator protocol scores the other family's test
        # split, regenerated in memory from the same spec; only those rows
        # go in the report.
        other = _OTHER_FAMILY[cfg.data.family]
        foreign = build_split(replace(cfg.data, family=other), "test")
        scored = score_samples(params, foreign, cfg.model)
        rows = [_report_row(cfg, scored, split="test", family=other,
                            perturbation="none", level=0)]
    else:
        base = load_manifest(_manifest_path(cfg), (cfg.split,)).split(cfg.split)
        family = base[0].family if base else cfg.data.family
        if cfg.protocol == "in_dist":
            scored = score_samples(params, base, cfg.model)
            rows = [_report_row(cfg, scored, split=cfg.split, family=family,
                                perturbation="none", level=0)]
        else:
            rows = _perturbed_rows(cfg, params, base, cfg.split, family)

    report_path = Path(cfg.out_dir) / "report.csv"
    _write_csv(report_path, REPORT_COLUMNS, rows)
    for row in rows:
        print(f"{row['protocol']}/{row['split']} {row['family']} "
              f"{row['perturbation']}@{row['level']}: acc {row['acc']:.4f} "
              f"auc_frame {row['auc_frame']:.4f} auc_video {row['auc_video']:.4f} "
              f"n={row['n']}")
    print(f"wrote {report_path}")
    return EXIT_OK


def cmd_rollout(cfg: RunConfig, image_path: str) -> int:
    params = _load_params(cfg)
    pixels = read_ppm(image_path)
    expected = (cfg.model.height, cfg.model.width, cfg.model.channels)
    if pixels.shape != expected:
        raise FormatError(f"{image_path}: image shape {pixels.shape} does not "
                          f"match model input {expected}")

    logits, record = forward(pixels, params, cfg.model)
    weights = attention_rollout(record)
    pixel_map = heatmap_to_image(weights, cfg.model)

    span = pixel_map.max() - pixel_map.min()
    if span > 1e-12:
        heat = (pixel_map - pixel_map.min()) / span
    else:
        heat = np.zeros_like(pixel_map)

    out_dir = Path(cfg.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    stem = Path(image_path).stem
    heat_path = out_dir / f"{stem}-rollout.pgm"
    write_ppm(heat_path, heat[:, :, None])

    # Color overlay: the input in gray, rollout heat blended in on the red
    # channel at 50% opacity.
    base = pixels if pixels.shape[2] == 3 else np.repeat(pixels, 3, axis=2)
    heat_rgb = np.zeros_like(base)
    heat_rgb[:, :, 0] = heat
    overlay_path = out_dir / f"{stem}-overlay.ppm"
    write_ppm(overlay_path, 0.5 * base + 0.5 * heat_rgb)

    print(f"fake_score {fake_score(logits)!r}")
    print(f"wrote {heat_path} and {overlay_path}")
    return EXIT_OK


def cmd_gradcheck(cfg: RunConfig) -> int:
    checks = primitive_checks()

    # Probe the model loss at a 0.25-scaled init: central differences at
    # the fixed step need the quadratic regime, and at the full training
    # init the loss curvature along the patch bias (which shifts every
    # token at once) makes the h^2 truncation term alone exceed the
    # tolerance. A step-shrinking study confirms the adjoints themselves
    # agree to ~1e-6; the scaling only tames third derivatives.
    params = init_params(cfg.model, seed=cfg.train.seed)
    params = ModelParams.from_arrays(
        cfg.model, {name: t.data * 0.25 for name, t in params.named()})
    image = gen_original(cfg.data, "gradcheck", 0).pixels

    def model_loss(name):
        def f(x):
            logits, _ = forward(image, params.with_tensor(name, x), cfg.model)
            return cross_entropy(logits, 1)
        return f

    failures = 0
    for name, f, x in checks + [(f"model/{n}", model_loss(n), t.data)
                                for n, t in params.named()]:
        report = grad_check(f, x, step=1e-3, tol=1e-2)
        failures += not report.passed
        status = "ok" if report.passed else "FAIL"
        print(f"{name:28s} n={report.n_checked:3d} "
              f"worst_rel={report.worst_rel:.3e} {status}")

    total = len(checks) + len(params.named())
    print(f"{total - failures}/{total} checks passed")
    if failures:
        raise NumericError(f"{failures} gradient check(s) exceeded tolerance")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: repeated in-process
    calls to :func:`main` share it, since parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="bolf",
        description="Bag-of-local-feature transformer for face-manipulation "
                    "detection on procedural data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", default=None,
                       help="key = value config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override data.seed and train.seed together")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="override run.out_dir")
        p.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                       dest="overrides", help="override any config key")

    common(sub.add_parser("gen-data", help="write the image corpus + manifest"))
    common(sub.add_parser("train", help="train from a manifest, save weights"))
    common(sub.add_parser("eval", help="run the configured evaluation protocol"))
    rollout = sub.add_parser("rollout", help="export attention-rollout images")
    rollout.add_argument("image", help="input PPM/PGM frame")
    common(rollout)
    common(sub.add_parser("gradcheck", help="finite-difference gradient audit"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides, args.seed, args.out)
        if args.command == "gen-data":
            return cmd_gen_data(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "rollout":
            return cmd_rollout(cfg, args.image)
        return cmd_gradcheck(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, WeightsError, UndefinedMetric, ShapeMismatch,
            OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
