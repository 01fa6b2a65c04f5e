"""Command-line front end: data generation, training, evaluation
protocols, attention-rollout export, and gradient checking.

Exit codes: 0 success, 2 config error, 3 data error (missing or malformed
files, impossible metrics), 4 numeric failure (non-finite loss, failed
gradient check).
"""
from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Iterator
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
    write_csv,
    write_dataset,
    write_ppm,
)
from .metrics import ScoredSample, UndefinedMetric, accuracy, roc_auc, video_level
from .model import (
    ModelConfig,
    ModelParams,
    _keep_freed_memory,
    attention_rollout,
    forward,
    heatmap_to_image,
    init_params,
)
from .tensor import NumericError, ShapeMismatch, grad_check, primitive_checks
from .train import EpochStats, cross_entropy, evaluate, fake_score, score_samples, train
from .weights import WeightsError, load_weights, read_weights, save_weights

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

REPORT_COLUMNS = ("protocol", "split", "family", "perturbation", "level",
                  "acc", "auc_frame", "auc_video", "n")
HISTORY_COLUMNS = tuple(f.name for f in fields(EpochStats))

_OTHER_FAMILY = {"A": "B", "B": "A"}


def _write_csv(path: Path, columns, rows) -> None:
    # csv writes a float as its repr, which round-trips exactly
    write_csv(path, [columns, *([row[col] for col in columns] for row in rows)])


def _manifest_path(cfg: RunConfig) -> Path:
    return Path(cfg.out_dir) / "manifest.csv"


# The last model _load_params built: (model config, the weights file's
# bytes, the model). One entry, replaced only by a load that succeeds.
_last_model: tuple[ModelConfig, bytes, ModelParams] | None = None


def _load_params(cfg: RunConfig, path: Path | None = None) -> ModelParams:
    """The float64 model in ``path``, by default run.weights_in or else weights_out.

    The file is read on every call. Decoding, checksumming and validating
    are pure functions of its bytes and of ``cfg.model``, so when both
    equal the last successful call's, that call's model is returned as is;
    its arrays are read-only. Anything else decodes the bytes just read.
    """
    global _last_model
    if path is None:
        path = Path(cfg.weights_in) if cfg.weights_in else cfg.weights_out_path()
    blob = read_weights(path)
    last = _last_model  # one read, so another thread's load cannot split the entry
    if last is not None and last[0] == cfg.model and last[1] == blob:
        return last[2]
    arrays = load_weights(path, blob)
    try:
        params = ModelParams.from_arrays(cfg.model, arrays, requires_grad=False)
    except ValueError as exc:
        raise WeightsError(f"{path}: {exc}") from None
    for _, tensor in params.named():
        tensor.data.flags.writeable = False
    _last_model = (cfg.model, blob, params)
    return params


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
    params, history = train(params, splits, cfg.train, cfg.model, cfg.threshold)

    weights_path = cfg.weights_out_path()
    save_weights(weights_path, {name: t.data for name, t in params.named()})
    # the trained tensors hold the optimizer's parameter and gradient
    # buffers; the closing metrics below come from the weights file
    del params
    _write_csv(Path(cfg.out_dir) / "history.csv", HISTORY_COLUMNS,
               [vars(stats) for stats in history])

    for stats in history:
        print(f"epoch {stats.epoch:3d}  loss {stats.mean_loss:.4f}  "
              f"train_acc {stats.train_acc:.4f}  val_acc {stats.val_acc:.4f} "
              f"val_auc {stats.val_auc:.4f}")

    # Report final metrics from the weights file, loaded as `bolf eval`
    # loads it: the float32 weights exactly, computing in float64. A later
    # eval then reproduces these numbers bit-exactly; the float32 metrics
    # of the last history row may differ in their last digits.
    saved = _load_params(cfg, weights_path)
    val_acc, val_auc = evaluate(saved, splits.val, cfg.model, cfg.threshold)
    print(f"saved {weights_path}  val_acc {val_acc!r}  val_auc {val_auc!r}")
    return EXIT_OK


def _scored_rows(cfg: RunConfig, params: ModelParams
                 ) -> Iterator[tuple[str, str, str, int, list[ScoredSample]]]:
    """The rows of ``bolf eval``'s report in order, as (split, family,
    perturbation, level, scored samples), each made when it is asked for.

    Every protocol's first row is the clean split. ``perturbed`` follows it
    with each kind at run.level, then the three mixed suites (random kind /
    random kind+level / three kinds composed). Level 0 turns every row into
    the identity for A/B comparison. Each perturbed row stacks the clean
    frames afresh for ``perturb``, so no stack outlives its row, and scores
    the stack ``perturb`` returns against the clean samples' labels and
    video ids.
    """
    if cfg.protocol == "cross_family":
        # The unseen-generator protocol scores the other family's test
        # split, regenerated in memory from the same spec; only those rows
        # go in the report.
        split, family = "test", _OTHER_FAMILY[cfg.data.family]
        base = build_split(replace(cfg.data, family=family), split)
    else:
        split = cfg.split
        base = load_manifest(_manifest_path(cfg), (split,)).split(split)
        family = base[0].family
    yield split, family, "none", 0, score_samples(params, base, cfg.model)
    if cfg.protocol != "perturbed":
        return
    n, level = len(base), cfg.level
    pick = np.random.default_rng(np.random.SeedSequence([cfg.data.seed, 71]))
    kinds = [PERTURBATION_KINDS[k] for k in pick.integers(0, len(PERTURBATION_KINDS), size=n)]
    table = [*((kind, level, [PerturbationSpec(kind, level)] * n) for kind in PERTURBATION_KINDS),
             ("sing", level, [PerturbationSpec(k, level) for k in kinds]),
             ("rand", 0, [PerturbationSpec(k, "random" if level else 0) for k in kinds]),
             ("mix3", level, [PerturbationSpec("mix", level, mix_count=3)] * n)]
    for salt, (name, row_level, specs) in enumerate(table, start=1):
        frames = perturb(np.stack([s.pixels for s in base]), specs,
                         [cfg.data.seed * 1_000_003 + salt * 9_973 + i for i in range(n)])
        scored = score_samples(params, base, cfg.model, frames)
        del frames  # released before the next row is perturbed
        yield split, family, name, row_level, scored


def cmd_eval(cfg: RunConfig) -> int:
    params = _load_params(cfg)
    rows = [{"protocol": cfg.protocol, "split": split, "family": family,
             "perturbation": perturbation, "level": level,
             "acc": accuracy(scored, cfg.threshold), "auc_frame": roc_auc(scored),
             "auc_video": roc_auc(video_level(scored)), "n": len(scored)}
            for split, family, perturbation, level, scored in _scored_rows(cfg, params)]

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

    logits, attn = forward(pixels, params, cfg.model)
    weights = attention_rollout(attn)
    pixel_map = heatmap_to_image(weights, cfg.model)

    low = pixel_map.min()
    span = pixel_map.max() - low
    if span > 1e-12:
        heat = (pixel_map - low) / span
    else:
        heat = np.zeros_like(pixel_map)

    out_dir = Path(cfg.out_dir)
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

    print(f"fake_score {float(fake_score(logits.data))!r}")
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
        report = grad_check(f, x)
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
    _keep_freed_memory()  # forward sets it too, but gen-data runs no forward
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
