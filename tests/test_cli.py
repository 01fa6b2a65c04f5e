"""End-to-end command-line tests, run in-process through main().

A small corpus is generated and trained once per module; the protocol,
rollout, determinism, and exit-code tests all work against it.
"""

import builtins
import csv
import ctypes
import io
import os
import platform
import resource
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bolf.cli as cli
from bolf.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from bolf.config import load_config
from bolf.data import (PERTURBATION_KINDS, DatasetSpec, FormatError, PerturbationSpec,
                       build_split, gen_original, load_manifest, perturb, read_ppm,
                       write_ppm)
from bolf.metrics import accuracy, roc_auc, video_level
from bolf.model import ModelConfig, ModelParams, forward, init_params
from bolf.tensor import Tensor, mul, sum_all
from bolf.train import score_samples
from bolf.weights import load_weights, save_weights

CFG_TEXT = """\
# small end-to-end run
data.train_count = 8
data.val_count = 4
data.test_count = 4
data.frames_per_video = 2
data.height = 16
data.width = 16
train.epochs = 2
train.batch_size = 4
train.lr0 = 0.05
model.dim = 16
model.depth = 1
model.heads = 2
model.mlp_ratio = 2
"""

# must mirror CFG_TEXT for tests that build weights by hand
CFG_MODEL = ModelConfig(height=16, width=16, channels=1, patch_size=8,
                        dim=16, depth=1, heads=2, mlp_ratio=2)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with a generated corpus and one trained model."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(CFG_TEXT)
    out = root / "out"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    return {"cfg": str(cfg), "out": out, "root": root}


class TestGenData:
    def test_corpus_layout(self, ws, capsys):
        assert (ws["out"] / "manifest.csv").exists()
        images = list((ws["out"] / "images" / "train").glob("*.pgm"))
        assert len(images) == 8

    def test_counts_reported(self, ws, capsys):
        assert main(["gen-data", "--config", ws["cfg"],
                     "--out", str(ws["root"] / "counts")]) == EXIT_OK
        assert "train 8, val 4, test 4" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, ws):
        a = ws["root"] / "rerun_a"
        b = ws["root"] / "rerun_b"
        for out in (a, b):
            assert main(["gen-data", "--config", ws["cfg"], "--out", str(out)]) == EXIT_OK
        assert (a / "manifest.csv").read_bytes() == (b / "manifest.csv").read_bytes()
        name = next((a / "images" / "val").glob("*.pgm")).name
        assert (a / "images" / "val" / name).read_bytes() == \
               (b / "images" / "val" / name).read_bytes()


class TestTrain:
    def test_artifacts_written(self, ws):
        assert (ws["out"] / "weights.bolf").exists()
        rows = _read_csv(ws["out"] / "history.csv")
        assert rows[0] == list(cli.HISTORY_COLUMNS)
        assert len(rows) == 1 + 2  # header + one row per epoch
        assert [r[0] for r in rows[1:]] == ["0", "1"]

    def test_history_floats_roundtrip(self, ws):
        rows = _read_csv(ws["out"] / "history.csv")
        header = rows[0]
        loss = float(rows[1][header.index("mean_loss")])
        assert np.isfinite(loss)
        # validation runs every epoch, so no val cell is blank
        for row in rows[1:]:
            assert 0.0 <= float(row[header.index("val_acc")]) <= 1.0
            assert 0.0 <= float(row[header.index("val_auc")]) <= 1.0

    def test_printed_metrics_match_later_eval(self, ws, capsys, tmp_path):
        """The val metrics printed at save time must reproduce exactly when
        the persisted weights are loaded back by `eval` (f32 quantization
        happens before both measurements)."""
        replay = ws["root"] / "replay"
        assert main(["gen-data", "--config", ws["cfg"], "--out", str(replay)]) == EXIT_OK
        assert main(["train", "--config", ws["cfg"], "--out", str(replay)]) == EXIT_OK
        saved_line = [l for l in capsys.readouterr().out.splitlines()
                      if l.startswith("saved ")][0]
        parts = saved_line.split()
        train_acc = float(parts[parts.index("val_acc") + 1])
        train_auc = float(parts[parts.index("val_auc") + 1])

        assert main(["eval", "--config", ws["cfg"], "--out", str(replay),
                     "--set", "run.split=val"]) == EXIT_OK
        capsys.readouterr()
        rows = _read_csv(replay / "report.csv")
        header, row = rows[0], rows[1]
        assert float(row[header.index("acc")]) == train_acc
        assert float(row[header.index("auc_frame")]) == train_auc

    def test_history_val_acc_uses_run_threshold(self, ws, tmp_path, capsys):
        # training is the same at any threshold, so the float32 model that
        # the last epoch validated is the saved weights, cast back
        val = load_manifest(ws["out"] / "manifest.csv", ("val",)).val
        params = ModelParams.from_arrays(CFG_MODEL, load_weights(ws["out"] / "weights.bolf"))
        for _, t in params.named():
            t.data = t.data.astype(np.float32)
        scored = score_samples(params, val, CFG_MODEL)
        # a threshold at which the accuracy differs from the default's
        threshold = next(s.score for s in sorted(scored, key=lambda s: s.score)
                         if accuracy(scored, s.score) != accuracy(scored, 0.5))
        shutil.copytree(ws["out"] / "images", tmp_path / "images")
        shutil.copy(ws["out"] / "manifest.csv", tmp_path)
        assert main(["train", "--config", ws["cfg"], "--out", str(tmp_path),
                     "--set", f"run.threshold={threshold!r}"]) == EXIT_OK
        capsys.readouterr()
        assert (tmp_path / "weights.bolf").read_bytes() == \
               (ws["out"] / "weights.bolf").read_bytes()
        header, *rows = _read_csv(tmp_path / "history.csv")
        assert float(rows[-1][header.index("val_acc")]) == accuracy(scored, threshold)
        assert float(rows[-1][header.index("val_auc")]) == roc_auc(scored)

    def test_seed_flag_changes_weights(self, ws):
        out = ws["root"] / "seeded"
        assert main(["gen-data", "--config", ws["cfg"], "--out", str(out)]) == EXIT_OK
        assert main(["train", "--config", ws["cfg"], "--out", str(out),
                     "--seed", "5"]) == EXIT_OK
        assert (out / "weights.bolf").read_bytes() != \
               (ws["out"] / "weights.bolf").read_bytes()


class TestEvalProtocols:
    def test_in_dist_report(self, ws, capsys):
        assert main(["eval", "--config", ws["cfg"],
                     "--out", str(ws["out"])]) == EXIT_OK
        rows = _read_csv(ws["out"] / "report.csv")
        assert rows[0] == list(cli.REPORT_COLUMNS)
        assert len(rows) == 2
        row = dict(zip(rows[0], rows[1]))
        assert row["protocol"] == "in_dist"
        assert row["split"] == "test"
        assert row["family"] == "A"
        assert row["perturbation"] == "none"
        assert row["level"] == "0"
        assert row["n"] == "4"
        assert 0.0 <= float(row["acc"]) <= 1.0
        assert "wrote" in capsys.readouterr().out

    def test_cross_family_reports_only_foreign_rows(self, ws, capsys):
        assert main(["eval", "--config", ws["cfg"], "--out", str(ws["out"]),
                     "--set", "run.protocol=cross_family"]) == EXIT_OK
        rows = _read_csv(ws["out"] / "report.csv")
        assert len(rows) == 2  # header + exactly one foreign test row
        row = dict(zip(rows[0], rows[1]))
        assert row["family"] == "B"
        assert row["split"] == "test"
        assert row["protocol"] == "cross_family"

    def test_perturbed_row_inventory(self, ws):
        assert main(["eval", "--config", ws["cfg"], "--out", str(ws["out"]),
                     "--set", "run.protocol=perturbed"]) == EXIT_OK
        rows = _read_csv(ws["out"] / "report.csv")
        header = rows[0]
        kinds = [dict(zip(header, r))["perturbation"] for r in rows[1:]]
        assert kinds == ["none", "gaussian_noise", "gaussian_blur",
                         "block_quantize", "brightness_shift",
                         "sing", "rand", "mix3"]
        levels = [dict(zip(header, r))["level"] for r in rows[1:]]
        assert levels == ["0", "3", "3", "3", "3", "3", "0", "3"]

    @pytest.mark.parametrize("protocol,level", [
        ("in_dist", 3), ("cross_family", 3), ("perturbed", 3), ("perturbed", 0)])
    def test_report_matches_an_independent_assembly(self, ws, protocol, level):
        # Each row is rebuilt frame by frame from the documented scheme: the
        # clean split first; under perturbed, the four kinds at run.level,
        # then sing, rand and mix3, with salts 1-7 in that order, frame i
        # perturbed with seed data.seed * 1_000_003 + salt * 9_973 + i, and
        # the kinds of sing and rand drawn once from SeedSequence([data.seed, 71]).
        overrides = [f"run.protocol={protocol}", f"run.level={level}"]
        assert main(["eval", "--config", ws["cfg"], "--out", str(ws["out"]),
                     *(a for o in overrides for a in ("--set", o))]) == EXIT_OK
        cfg = load_config(ws["cfg"], overrides, None, str(ws["out"]))
        params = ModelParams.from_arrays(cfg.model, load_weights(cfg.weights_out_path()),
                                         requires_grad=False)
        if protocol == "cross_family":
            base = build_split(replace(cfg.data, family="B"), "test")
        else:
            base = load_manifest(ws["out"] / "manifest.csv", ("test",)).test
        seed, n = cfg.data.seed, len(base)
        suite = [("none", 0, [None] * n)]
        if protocol == "perturbed":
            pick = np.random.default_rng(np.random.SeedSequence([seed, 71]))
            drawn = [PERTURBATION_KINDS[k]
                     for k in pick.integers(0, len(PERTURBATION_KINDS), size=n)]
            suite += [(kind, level, [PerturbationSpec(kind, level)] * n)
                      for kind in PERTURBATION_KINDS]
            suite += [("sing", level, [PerturbationSpec(k, level) for k in drawn]),
                      ("rand", 0, [PerturbationSpec(k, "random" if level else 0)
                                   for k in drawn]),
                      ("mix3", level, [PerturbationSpec("mix", level, mix_count=3)] * n)]
        text = io.StringIO()
        out = csv.writer(text, lineterminator="\n")
        out.writerow(cli.REPORT_COLUMNS)
        for salt, (name, row_level, specs) in enumerate(suite):
            samples = [s if spec is None else
                       replace(s, pixels=perturb(s.pixels, spec,
                                                 seed * 1_000_003 + salt * 9_973 + i))
                       for i, (s, spec) in enumerate(zip(base, specs))]
            scored = score_samples(params, samples, cfg.model)
            out.writerow([protocol, "test", base[0].family, name, row_level,
                          accuracy(scored, cfg.threshold), roc_auc(scored),
                          roc_auc(video_level(scored)), n])
        assert (ws["out"] / "report.csv").read_text() == text.getvalue()

    def test_perturbed_level_zero_equals_clean(self, ws):
        assert main(["eval", "--config", ws["cfg"], "--out", str(ws["out"]),
                     "--set", "run.protocol=perturbed",
                     "--set", "run.level=0"]) == EXIT_OK
        rows = _read_csv(ws["out"] / "report.csv")
        header = rows[0]
        metric_cols = [header.index(c) for c in ("acc", "auc_frame", "auc_video", "n")]
        baseline = [rows[1][i] for i in metric_cols]
        for row in rows[2:]:
            assert [row[i] for i in metric_cols] == baseline

    def test_eval_split_override(self, ws):
        assert main(["eval", "--config", ws["cfg"], "--out", str(ws["out"]),
                     "--set", "run.split=train"]) == EXIT_OK
        rows = _read_csv(ws["out"] / "report.csv")
        row = dict(zip(rows[0], rows[1]))
        assert row["split"] == "train"
        assert row["n"] == "8"


class TestRollout:
    def test_writes_heat_and_overlay(self, ws):
        image = next((ws["out"] / "images" / "test").glob("*.pgm"))
        out = ws["root"] / "rollout"
        assert main(["rollout", str(image), "--config", ws["cfg"],
                     "--out", str(out),
                     "--set", f"run.weights_in={ws['out'] / 'weights.bolf'}"]) == EXIT_OK
        heat = read_ppm(out / f"{image.stem}-rollout.pgm")
        overlay = read_ppm(out / f"{image.stem}-overlay.ppm")
        assert heat.shape == (16, 16, 1)
        assert overlay.shape == (16, 16, 3)
        # normalization stretches the heatmap to the full byte range
        assert heat.min() == 0.0
        assert heat.max() == 1.0

    def test_prints_fake_score(self, ws, capsys):
        image = next((ws["out"] / "images" / "test").glob("*.pgm"))
        assert main(["rollout", str(image), "--config", ws["cfg"],
                     "--out", str(ws["root"] / "rollout2"),
                     "--set", f"run.weights_in={ws['out'] / 'weights.bolf'}"]) == EXIT_OK
        out = capsys.readouterr().out
        score_line = [l for l in out.splitlines() if l.startswith("fake_score")][0]
        assert 0.0 <= float(score_line.split()[1]) <= 1.0

    def test_uniform_attention_yields_blank_heatmap(self, ws, flat_params):
        """Zeroed projections give uniform attention everywhere; the
        degenerate constant heatmap must come out as all-zero bytes, not
        NaNs from a zero span."""
        flat = ws["root"] / "flat.bolf"
        params = flat_params(CFG_MODEL)
        save_weights(flat, {n: t.data for n, t in params.named()})
        image = next((ws["out"] / "images" / "test").glob("*.pgm"))
        out = ws["root"] / "rollout_flat"
        assert main(["rollout", str(image), "--config", ws["cfg"],
                     "--out", str(out),
                     "--set", f"run.weights_in={flat}"]) == EXIT_OK
        heat = read_ppm(out / f"{image.stem}-rollout.pgm")
        assert np.array_equal(heat, np.zeros((16, 16, 1)))

    def test_wrong_geometry_is_data_error(self, ws, tmp_path, capsys):
        from bolf.data import write_ppm
        bad = tmp_path / "small.pgm"
        write_ppm(bad, np.zeros((4, 4, 1)))
        code = main(["rollout", str(bad), "--config", ws["cfg"],
                     "--out", str(tmp_path),
                     "--set", f"run.weights_in={ws['out'] / 'weights.bolf'}"])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_clean_run(self, capsys):
        # stock configuration: every primitive and every parameter tensor
        assert main(["gradcheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "checks passed" in out
        assert len([l for l in out.splitlines() if l.endswith(" ok")]) == 53

    def test_failure_exits_numeric(self, capsys, monkeypatch):
        # fault injection: a check whose analytic gradient is detached
        b = Tensor(np.ones((2, 2)))

        def broken():
            return [("broken", lambda t: sum_all(mul(Tensor(t.data), b)),
                     np.ones((2, 2)))]

        monkeypatch.setattr(cli, "primitive_checks", broken)
        code = main(["gradcheck"])
        assert code == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "numeric failure" in captured.err


class TestExitCodes:
    def test_unknown_config_key(self, ws, capsys):
        assert main(["eval", "--config", ws["cfg"], "--out", str(ws["out"]),
                     "--set", "run.portocol=x"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "no.cfg")]) == EXIT_CONFIG

    def test_config_path_that_is_a_directory(self, tmp_path, capsys):
        assert main(["eval", "--config", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"config error: cannot read config file {tmp_path}: Is a directory\n"

    def test_nul_byte_in_config_path(self, tmp_path, capsys):
        path = f"{tmp_path}/ru\0n.cfg"
        assert main(["eval", "--config", path]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: config file not found: {path}\n"

    def test_non_finite_float_override(self, ws, tmp_path, capsys):
        weights = tmp_path / "w.bolf"
        assert main(["train", "--config", ws["cfg"], "--out", str(ws["out"]),
                     "--set", "train.momentum=nan",
                     "--set", f"run.weights_out={weights}"]) == EXIT_CONFIG
        assert "finite" in capsys.readouterr().err
        assert not weights.exists()

    def test_layer_norm_overflow_exits_numeric(self, ws, tmp_path, capsys):
        # a runaway step overflows layer_norm's float32 variance while the
        # loss is still finite
        shutil.copytree(ws["out"] / "images", tmp_path / "images")
        shutil.copy(ws["out"] / "manifest.csv", tmp_path / "manifest.csv")
        weights = tmp_path / "w.bolf"
        assert main(["train", "--config", ws["cfg"], "--out", str(tmp_path),
                     "--set", "train.lr0=1e6", "--set", "train.momentum=0.999999",
                     "--set", f"run.weights_out={weights}"]) == EXIT_NUMERIC
        assert "layer_norm variance is not finite" in capsys.readouterr().err
        assert not weights.exists()

    def test_num_classes_is_not_a_key(self, capsys):
        # the head is fixed at two classes; the old key is unknown
        assert main(["gen-data", "--set", "model.num_classes=2"]) == EXIT_CONFIG
        assert "unknown config keys ['model.num_classes']" in capsys.readouterr().err

    def test_eval_every_is_not_a_key(self, capsys):
        # validation runs every epoch; there is no key to thin it out
        assert main(["gen-data", "--set", "train.eval_every=1"]) == EXIT_CONFIG
        assert "unknown config keys ['train.eval_every']" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows + [rows[-1]], "listed twice"),
        (lambda rows: rows[:-1] + [rows[-1][:-1] + ["val"]], "listed under splits"),
    ], ids=["repeated_frame", "video_in_two_splits"])
    def test_train_on_manifest_with_repeats(self, ws, tmp_path, capsys, edit, message):
        shutil.copytree(ws["out"] / "images", tmp_path / "images")
        rows = _read_csv(ws["out"] / "manifest.csv")
        assert rows[-1][-1] == "test"
        with open(tmp_path / "manifest.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(edit(rows))
        weights = tmp_path / "w.bolf"
        assert main(["train", "--config", ws["cfg"], "--out", str(tmp_path),
                     "--set", f"run.weights_out={weights}"]) == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not weights.exists()

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_train_on_empty_split(self, ws, tmp_path, capsys, split):
        shutil.copytree(ws["out"] / "images", tmp_path / "images")
        rows = _read_csv(ws["out"] / "manifest.csv")
        with open(tmp_path / "manifest.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                row for row in rows if row[-1] != split)
        weights = tmp_path / "w.bolf"
        assert main(["train", "--config", ws["cfg"], "--out", str(tmp_path),
                     "--set", f"run.weights_out={weights}"]) == EXIT_DATA
        assert f"lists no {split!r} samples" in capsys.readouterr().err
        assert not weights.exists()

    @pytest.mark.parametrize("command, split, shape", [
        ("train", "train", (8, 8, 1)),
        ("eval", "test", (16, 16, 3)),
    ])
    def test_images_of_mixed_shapes(self, ws, tmp_path, capsys, command, split, shape):
        # one image of another size or channel count is a data error, not a
        # traceback from np.stack
        shutil.copytree(ws["out"] / "images", tmp_path / "images")
        shutil.copy(ws["out"] / "manifest.csv", tmp_path / "manifest.csv")
        odd = [row[0] for row in _read_csv(ws["out"] / "manifest.csv") if row[-1] == split][-1]
        write_ppm(tmp_path / odd, np.zeros(shape))
        weights = tmp_path / "w.bolf"
        assert main([command, "--config", ws["cfg"], "--out", str(tmp_path),
                     "--set", f"run.weights_in={ws['out'] / 'weights.bolf'}",
                     "--set", f"run.weights_out={weights}"]) == EXIT_DATA
        assert f"image {odd} has shape {shape}" in capsys.readouterr().err
        assert not weights.exists()

    def test_malformed_override(self, capsys):
        assert main(["gen-data", "--set", "train.epochs"]) == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [["train"], ["gradcheck"],
                                      ["eval", "--set", "run.protocol=perturbed"]])
    def test_negative_seed(self, ws, argv, capsys):
        # numpy's generators reject a negative seed with a traceback
        assert main(argv + ["--config", ws["cfg"], "--out", str(ws["out"]),
                            "--seed", "-1"]) == EXIT_CONFIG
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value", [("fc_b", np.nan), ("layer0.wq", np.inf)])
    def test_non_finite_weights(self, ws, tmp_path, capsys, name, value):
        arrays = load_weights(ws["out"] / "weights.bolf")
        arrays[name] = arrays[name].copy()
        arrays[name].flat[0] = value
        weights = tmp_path / "w.bolf"
        save_weights(weights, arrays)  # a valid file with a valid checksum
        image = next((ws["out"] / "images" / "test").glob("*.pgm"))
        for argv in (["eval"], ["rollout", str(image)]):
            assert main(argv + ["--config", ws["cfg"], "--out", str(tmp_path),
                                "--set", f"run.weights_in={weights}"]) == EXIT_DATA
            assert f"parameter {name}: non-finite values" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    def test_missing_manifest(self, ws, tmp_path, capsys):
        assert main(["train", "--config", ws["cfg"],
                     "--out", str(tmp_path / "empty")]) == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_missing_weights(self, ws, tmp_path, capsys):
        image = next((ws["out"] / "images" / "test").glob("*.pgm"))
        assert main(["rollout", str(image), "--config", ws["cfg"],
                     "--out", str(tmp_path),
                     "--set", "run.weights_in=/definitely/missing.bolf"]) == EXIT_DATA

    @pytest.mark.parametrize("weights", ["/definitely/mis\0sing.bolf", "{tmp_path}"])
    def test_weights_path_with_nul_byte_or_directory(self, ws, tmp_path, capsys, weights):
        weights = weights.format(tmp_path=tmp_path)
        image = next((ws["out"] / "images" / "test").glob("*.pgm"))
        assert main(["rollout", str(image), "--config", ws["cfg"], "--out", str(tmp_path),
                     "--set", f"run.weights_in={weights}"]) == EXIT_DATA
        err = capsys.readouterr().err
        if "\0" in weights:
            assert err == f"data error: weights file not found: {weights}\n"
        else:
            assert err == f"data error: [Errno 21] Is a directory: '{weights}'\n"

    def test_non_utf8_config_file(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"run.out_dir = r\xe9sultats\n")
        assert main(["train", "--config", str(path)]) == EXIT_CONFIG
        assert "not UTF-8" in capsys.readouterr().err

    def test_non_utf8_manifest(self, ws, tmp_path, capsys):
        manifest = (ws["out"] / "manifest.csv").read_bytes()
        (tmp_path / "manifest.csv").write_bytes(manifest.replace(b"-f,", b"-\xff,", 1))
        assert main(["train", "--config", ws["cfg"], "--out", str(tmp_path)]) == EXIT_DATA
        assert "not UTF-8" in capsys.readouterr().err

    def test_oversized_manifest_field(self, ws, tmp_path, capsys):
        # a field past csv's 131072-character limit is a data error
        manifest = (ws["out"] / "manifest.csv").read_bytes()
        (tmp_path / "manifest.csv").write_bytes(
            manifest.replace(b"images/", b"images/" + b"x" * 131073, 1))
        assert main(["train", "--config", ws["cfg"], "--out", str(tmp_path)]) == EXIT_DATA
        assert "field larger than field limit" in capsys.readouterr().err

    def test_nul_byte_in_manifest_path(self, ws, tmp_path, capsys):
        manifest = (ws["out"] / "manifest.csv").read_bytes()
        (tmp_path / "manifest.csv").write_bytes(manifest.replace(b"images/", b"ima\0ges/", 1))
        assert main(["train", "--config", ws["cfg"], "--out", str(tmp_path)]) == EXIT_DATA
        assert "null byte" in capsys.readouterr().err

    def test_eval_before_gen_data(self, ws, tmp_path):
        assert main(["eval", "--config", ws["cfg"],
                     "--out", str(tmp_path / "fresh")]) == EXIT_DATA

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["transmogrify"])
        assert err.value.code == 2


class TestModuleEntryPoint:
    """``python -m bolf.cli`` exits with main()'s return code."""

    @staticmethod
    def _run(args, cwd):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        return subprocess.run([sys.executable, "-m", "bolf.cli", *args], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)

    def test_config_error_exit_code(self, tmp_path):
        done = self._run(["gen-data", "--set", "model.num_classes=2"], tmp_path)
        assert done.returncode == EXIT_CONFIG
        assert done.stderr.startswith("config error:")

    def test_gen_data_succeeds(self, ws, tmp_path):
        done = self._run(["gen-data", "--config", ws["cfg"], "--out", "corpus"], tmp_path)
        assert done.returncode == EXIT_OK, done.stderr
        assert (tmp_path / "corpus" / "manifest.csv").read_bytes() == \
               (ws["out"] / "manifest.csv").read_bytes()


TINY_GEN_DATA = ["gen-data", "--set", "data.train_count=2", "--set", "data.val_count=2",
                 "--set", "data.test_count=2"]


# 20 default-model 16-frame float64 forwards after 3 warm-up ones, in a
# process that never imports bolf.cli; prints whether it did, and the minor
# page faults of the 20
FORWARDS_WITHOUT_MAIN = """
import resource, sys
import numpy as np
from bolf.data import DatasetSpec, gen_original
from bolf.model import ModelConfig, ModelParams, forward, init_params
cfg = ModelConfig()
params = ModelParams.from_arrays(
    cfg, {name: t.data for name, t in init_params(cfg, seed=0).named()}, requires_grad=False)
images = np.stack([gen_original(DatasetSpec(), "v", i).pixels for i in range(16)])
for _ in range(3):
    forward(images, params, cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    forward(images, params, cfg)
print("bolf.cli" in sys.modules, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _raising(exc):
    def cdll(name):
        raise exc
    return cdll


class TestKeepFreedMemory:
    """main() and the first forward ask glibc once per process to keep
    freed memory at the top of the heap, so forwards reuse pages instead of
    faulting them in."""

    @pytest.fixture
    def fresh(self):
        cli._keep_freed_memory.cache_clear()
        yield
        cli._keep_freed_memory.cache_clear()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_forwards_fault_no_pages_back_in(self, tmp_path, capsys):
        assert main(TINY_GEN_DATA + ["--out", str(tmp_path)]) == EXIT_OK
        cfg = ModelConfig()
        params = ModelParams.from_arrays(
            cfg, {name: t.data for name, t in init_params(cfg, seed=0).named()},
            requires_grad=False)
        images = np.stack([gen_original(DatasetSpec(), "v", i).pixels for i in range(16)])
        for _ in range(3):
            forward(images, params, cfg)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            forward(images, params, cfg)
        # 9,600-12,900 when glibc trims the heap after every forward
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_forwards_without_main_fault_no_pages_back_in(self):
        # a library caller: a fresh process that runs forwards and never main()
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run([sys.executable, "-c", FORWARDS_WITHOUT_MAIN],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        cli_loaded, faults = done.stdout.split()
        assert cli_loaded == "False"
        # 12,900 when glibc trims the heap after every forward
        assert int(faults) < 50

    @pytest.mark.parametrize("cdll", [
        pytest.param(lambda name: object(), id="no-mallopt"),
        pytest.param(_raising(OSError("no libc")), id="oserror"),
        pytest.param(_raising(TypeError("needs a library name")), id="typeerror"),
    ])
    def test_runs_without_mallopt(self, fresh, monkeypatch, tmp_path, capsys, cdll):
        calls = []
        monkeypatch.setattr(ctypes, "CDLL", lambda name: calls.append(name) or cdll(name))
        assert main(TINY_GEN_DATA + ["--out", str(tmp_path)]) == EXIT_OK
        assert main(TINY_GEN_DATA + ["--out", str(tmp_path)]) == EXIT_OK
        assert calls == [None]


def _tree(root):
    return [(p.relative_to(root).as_posix(), p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()]


class TestReuse:
    """main() may be called again and again in one process, as tests,
    notebooks and the benchmark do; the one parser it builds must carry
    nothing from one call into the next."""

    @staticmethod
    def _run(argv, monkeypatch):
        """Run one command and return the config it ran with."""
        seen = []
        real = cli.load_config

        def capture(*args, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(cli, "load_config", capture)
        assert main(argv) == EXIT_OK
        monkeypatch.setattr(cli, "load_config", real)
        return seen[0]

    def test_successive_calls_match_lone_calls(self, ws, monkeypatch):
        root = ws["root"] / "reuse"

        def first(out):
            return ["gen-data", "--config", ws["cfg"], "--seed", "5", "--out", str(root / out),
                    "--set", "data.family=B", "--set", "data.val_count=2"]

        def second(out):
            return ["gen-data", "--config", ws["cfg"], "--seed", "6", "--out", str(root / out)]

        lone = []
        for argv in (first("lone1"), second("lone2")):
            cli.build_parser.cache_clear()
            lone.append(self._run(argv, monkeypatch))
        cli.build_parser.cache_clear()
        got = [self._run(first("run1"), monkeypatch), self._run(second("run2"), monkeypatch)]
        assert cli.build_parser.cache_info().misses == 1

        assert got[0].data.family == "B" and got[1].data.family == "A"
        for i, (want, cfg) in enumerate(zip(lone, got), start=1):
            assert replace(cfg, out_dir=want.out_dir) == want
            assert _tree(root / f"run{i}") == _tree(root / f"lone{i}")

    def test_repeated_rollout_writes_identical_bytes(self, ws, capsys):
        image = next((ws["out"] / "images" / "test").glob("*.pgm"))
        out = ws["root"] / "rollout_twice"
        argv = ["rollout", str(image), "--config", ws["cfg"], "--out", str(out),
                "--set", f"run.weights_in={ws['out'] / 'weights.bolf'}"]
        runs = []
        for _ in range(2):
            assert main(argv) == EXIT_OK
            runs.append((capsys.readouterr().out, _tree(out)))
        assert runs[0] == runs[1]
        assert len(runs[0][1]) == 2


class TestModelMemo:
    """In one process, _load_params keeps the last model it built, keyed on
    cfg.model and the exact bytes of the weights file; every call still
    reads the file, and a changed byte or config builds the model anew."""

    @pytest.fixture
    def weights(self, ws, tmp_path):
        path = tmp_path / "w.bolf"
        path.write_bytes((ws["out"] / "weights.bolf").read_bytes())
        return path

    @staticmethod
    def _rollout(ws, weights, out, *extra):
        image = next((ws["out"] / "images" / "test").glob("*.pgm"))
        return main(["rollout", str(image), "--config", ws["cfg"], "--out", str(out),
                     "--set", f"run.weights_in={weights}", *extra])

    @staticmethod
    def _count_decodes(monkeypatch) -> list:
        """The path of each load that decodes a weights file from here on."""
        calls = []
        real = cli.load_weights

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(cli, "load_weights", counting)
        return calls

    @staticmethod
    def _rewrite_in_place(path, blob: bytes) -> None:
        """Write ``blob`` over the file, keeping its inode, size and mtime,
        as a rewrite within one timestamp tick would."""
        before = os.stat(path)
        assert len(blob) == before.st_size
        with open(path, "r+b") as fh:
            fh.write(blob)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_ino, after.st_size, after.st_mtime_ns) == \
               (before.st_ino, before.st_size, before.st_mtime_ns)

    def test_flipped_payload_byte_is_caught(self, ws, weights, tmp_path, capsys):
        out = tmp_path / "out"
        good = weights.read_bytes()
        assert self._rollout(ws, weights, out) == EXIT_OK
        want = (capsys.readouterr().out, _tree(out))
        assert self._rollout(ws, weights, out) == EXIT_OK  # a hit
        assert (capsys.readouterr().out, _tree(out)) == want

        flipped = bytearray(good)
        flipped[len(good) // 2] ^= 0x01
        self._rewrite_in_place(weights, bytes(flipped))
        assert self._rollout(ws, weights, out) == EXIT_DATA
        assert "checksum mismatch" in capsys.readouterr().err

        self._rewrite_in_place(weights, good)
        assert self._rollout(ws, weights, out) == EXIT_OK
        assert (capsys.readouterr().out, _tree(out)) == want

    def test_other_weights_at_same_path_score_as_a_fresh_process(self, ws, weights,
                                                                 tmp_path, capsys):
        out = tmp_path / "out"
        assert self._rollout(ws, weights, out) == EXIT_OK
        first = capsys.readouterr().out
        other = {name: t.data for name, t in init_params(CFG_MODEL, seed=11).named()}
        save_weights(weights, other)  # rewrites the same inode in place
        assert self._rollout(ws, weights, out) == EXIT_OK
        got = capsys.readouterr().out

        image = next((ws["out"] / "images" / "test").glob("*.pgm"))
        fresh = TestModuleEntryPoint._run(
            ["rollout", str(image), "--config", ws["cfg"], "--out", str(tmp_path / "fresh"),
             "--set", f"run.weights_in={weights}"], tmp_path)
        assert fresh.returncode == EXIT_OK, fresh.stderr
        score = got.splitlines()[0]
        assert score.startswith("fake_score ")
        assert score == fresh.stdout.splitlines()[0]
        assert score != first.splitlines()[0]

    def test_model_config_mismatch_after_a_hit(self, ws, weights, tmp_path, capsys,
                                               monkeypatch):
        out = tmp_path / "out"
        assert self._rollout(ws, weights, out) == EXIT_OK
        decodes = self._count_decodes(monkeypatch)
        assert self._rollout(ws, weights, out) == EXIT_OK
        assert decodes == []
        capsys.readouterr()
        assert self._rollout(ws, weights, out, "--set", "model.dim=32") == EXIT_DATA
        assert "parameter layer0.ln1_gamma: shape (16,) != expected (32,)" in \
               capsys.readouterr().err
        assert len(decodes) == 1

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_failed_load_keeps_the_last_model(self, ws, weights, tmp_path, capsys,
                                              monkeypatch, value):
        out = tmp_path / "out"
        good = weights.read_bytes()
        arrays = load_weights(weights)
        arrays["fc_b"].flat[0] = value
        bad = tmp_path / "bad.bolf"
        save_weights(bad, arrays)  # a valid file with a valid checksum

        assert self._rollout(ws, weights, out) == EXIT_OK
        want = (capsys.readouterr().out, _tree(out))
        decodes = self._count_decodes(monkeypatch)
        self._rewrite_in_place(weights, bad.read_bytes())
        assert self._rollout(ws, weights, out) == EXIT_DATA
        assert "parameter fc_b: non-finite values" in capsys.readouterr().err
        self._rewrite_in_place(weights, good)
        assert self._rollout(ws, weights, out) == EXIT_OK
        assert (capsys.readouterr().out, _tree(out)) == want
        assert decodes == [weights]  # the bad file only: the good one hit

    def test_memoized_arrays_are_read_only(self, ws, weights):
        cfg = cli.load_config(ws["cfg"], [], None, None)
        params = cli._load_params(cfg, weights)
        assert cli._load_params(cfg, weights) is params
        for name, tensor in params.named():
            assert tensor.data.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                tensor.data[...] = 0.0
        # the loader itself still returns fresh, writable float32 arrays
        arrays = load_weights(weights)
        assert all(a.dtype == np.float32 and a.flags.writeable for a in arrays.values())
        assert load_weights(weights)["fc_b"] is not arrays["fc_b"]

    def test_each_call_reads_the_file_once(self, ws, weights, tmp_path, monkeypatch):
        reads = []
        real = io.open

        def counting(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file) == weights:
                reads.append(args[0] if args else kwargs.get("mode", "r"))
            return real(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting)
        monkeypatch.setattr(builtins, "open", counting)
        decodes = self._count_decodes(monkeypatch)
        trained = weights.read_bytes()
        save_weights(weights, {name: t.data
                               for name, t in init_params(CFG_MODEL, seed=13).named()})
        untrained = weights.read_bytes()
        for blob in (untrained, untrained, trained):  # a miss, a hit, a miss
            weights.write_bytes(blob)
            reads.clear()
            assert self._rollout(ws, weights, tmp_path / "out") == EXIT_OK
            assert reads == ["rb"]
        assert decodes == [weights, weights]


def _damage(data, blob: bytes) -> bytes:
    """Arbitrary bytes, a truncation or a single-byte flip of ``blob``."""
    kind = data.draw(st.sampled_from(["bytes", "cut", "flip"]))
    if kind == "bytes":
        return data.draw(st.binary(max_size=64))
    if kind == "cut":
        return blob[:data.draw(st.integers(0, len(blob) - 1))]
    flipped = bytearray(blob)
    flipped[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
    return bytes(flipped)


class TestDamagedInputs:
    """Damaged weights, images or manifests end in EXIT_DATA through main,
    never in a traceback."""

    @staticmethod
    def _rollout(ws, image, weights):
        return main(["rollout", str(image), "--config", ws["cfg"],
                     "--out", str(ws["root"] / "fuzz_out"),
                     "--set", f"run.weights_in={weights}"])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_damaged_weights(self, ws, data):
        path = ws["root"] / "fuzz.bolf"
        path.write_bytes(_damage(data, (ws["out"] / "weights.bolf").read_bytes()))
        image = next((ws["out"] / "images" / "test").glob("*.pgm"))
        assert self._rollout(ws, image, path) == EXIT_DATA

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_damaged_image(self, ws, data):
        image = next((ws["out"] / "images" / "test").glob("*.pgm"))
        path = ws["root"] / "fuzz.pgm"
        path.write_bytes(_damage(data, image.read_bytes()))
        code = self._rollout(ws, path, ws["out"] / "weights.bolf")
        try:
            shape = read_ppm(path).shape
        except FormatError:
            shape = None
        assert code == (EXIT_OK if shape == (16, 16, 1) else EXIT_DATA)

    @pytest.fixture(scope="class")
    def fuzz_corpus(self, ws):
        """A copy of the corpus images, under a manifest each example rewrites."""
        root = ws["root"] / "fuzz_corpus"
        shutil.copytree(ws["out"] / "images", root / "images")
        return root

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_damaged_manifest(self, ws, fuzz_corpus, data):
        manifest = fuzz_corpus / "manifest.csv"
        manifest.write_bytes(_damage(data, (ws["out"] / "manifest.csv").read_bytes()))
        code = main(["eval", "--config", ws["cfg"], "--out", str(fuzz_corpus),
                     "--set", f"run.weights_in={ws['out'] / 'weights.bolf'}"])
        try:
            load_manifest(manifest, ("test",))
        except (FormatError, OSError):
            assert code == EXIT_DATA
        else:  # EXIT_DATA still, if the damage leaves the test split one class
            assert code in (EXIT_OK, EXIT_DATA)
