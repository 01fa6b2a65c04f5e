"""End-to-end command-line tests, run in-process through main().

A small corpus is generated and trained once per module; the protocol,
rollout, determinism, and exit-code tests all work against it.
"""

import csv
import shutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bolf.cli as cli
from bolf.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from bolf.data import FormatError, load_manifest, read_ppm
from bolf.model import ModelConfig
from bolf.tensor import Tensor, mul, sum_all
from bolf.weights import save_weights

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

    def test_non_finite_float_override(self, ws, tmp_path, capsys):
        weights = tmp_path / "w.bolf"
        assert main(["train", "--config", ws["cfg"], "--out", str(ws["out"]),
                     "--set", "train.weight_decay=nan",
                     "--set", f"run.weights_out={weights}"]) == EXIT_CONFIG
        assert "finite" in capsys.readouterr().err
        assert not weights.exists()

    def test_num_classes_is_not_a_key(self, capsys):
        # the head is fixed at two classes; the old key is unknown
        assert main(["gen-data", "--set", "model.num_classes=2"]) == EXIT_CONFIG
        assert "unknown config keys ['model.num_classes']" in capsys.readouterr().err

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

    def test_malformed_override(self, capsys):
        assert main(["gen-data", "--set", "train.epochs"]) == EXIT_CONFIG

    def test_missing_manifest(self, ws, tmp_path, capsys):
        assert main(["train", "--config", ws["cfg"],
                     "--out", str(tmp_path / "empty")]) == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_missing_weights(self, ws, tmp_path, capsys):
        image = next((ws["out"] / "images" / "test").glob("*.pgm"))
        assert main(["rollout", str(image), "--config", ws["cfg"],
                     "--out", str(tmp_path),
                     "--set", "run.weights_in=/definitely/missing.bolf"]) == EXIT_DATA

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
