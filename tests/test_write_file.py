"""Every artifact is written through bolf.data.write_file, which rewrites an
existing file in place: the helper's contract, each writer through it, and
every verb rerun over an earlier run's files."""

import errno
import filecmp
import io
import os
import stat
import types
from pathlib import Path

import numpy as np
import pytest

import bolf.cli as cli
from bolf import data
from bolf.cli import EXIT_OK, main
from bolf.data import FormatError, read_ppm, write_dataset, write_file, write_ppm
from bolf.weights import WeightsError, load_weights, save_weights

NEW = b"new bytes\n"
OLD = b"an older and much longer file\n" * 10


class TestWriteFile:
    def test_rewrite_over_a_longer_file_leaves_exactly_the_new_bytes(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(OLD)
        write_file(path, NEW)
        assert path.read_bytes() == NEW

    def test_rewrite_over_a_shorter_file(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(NEW)
        write_file(path, bytearray(OLD))
        assert path.read_bytes() == OLD

    def test_empty_payload_empties_the_file(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(OLD)
        write_file(path, b"")
        assert path.read_bytes() == b""

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
    def test_new_file_gets_the_bits_open_would_give(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            write_file(tmp_path / "helper", NEW)
            with open(tmp_path / "builtin", "wb") as fh:
                fh.write(NEW)
        finally:
            os.umask(old)
        mode = stat.S_IMODE((tmp_path / "helper").stat().st_mode)
        assert mode == stat.S_IMODE((tmp_path / "builtin").stat().st_mode)
        assert mode == 0o666 & ~umask

    def test_rewrite_keeps_the_inode_and_the_bits(self, tmp_path):
        path, link = tmp_path / "f", tmp_path / "link"
        path.write_bytes(OLD)
        path.chmod(0o600)
        os.link(path, link)
        inode = path.stat().st_ino
        write_file(path, NEW)
        assert path.stat().st_ino == inode
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert link.read_bytes() == NEW

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
    def test_missing_parents_get_the_bits_makedirs_would_give(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            write_file(tmp_path / "made" / "deeper" / "f", NEW)
            os.makedirs(tmp_path / "builtin" / "deeper")
        finally:
            os.umask(old)
        assert (tmp_path / "made" / "deeper" / "f").read_bytes() == NEW
        for sub in ("", "deeper"):
            mode = stat.S_IMODE((tmp_path / "made" / sub).stat().st_mode)
            assert mode == stat.S_IMODE((tmp_path / "builtin" / sub).stat().st_mode)
            assert mode == 0o777 & ~umask

    def test_a_parent_that_is_a_file_is_not_a_directory(self, tmp_path):
        (tmp_path / "afile").write_bytes(OLD)
        with pytest.raises(NotADirectoryError):
            write_file(tmp_path / "afile" / "f", NEW)
        assert (tmp_path / "afile").read_bytes() == OLD

    def test_a_bare_name_that_cannot_be_opened_keeps_its_own_error(self, tmp_path, monkeypatch):
        # a dangling symlink into a missing directory: ENOENT, and no parent to make
        monkeypatch.chdir(tmp_path)
        os.symlink(tmp_path / "missing" / "target", "dangling")
        with pytest.raises(FileNotFoundError) as caught:
            write_file("dangling", NEW)
        assert caught.value.filename == "dangling"
        assert not (tmp_path / "missing").exists()

    def test_failed_write_leaves_the_bytes_written_so_far(self, tmp_path, fill_disk):
        path = tmp_path / "f"
        path.write_bytes(OLD)
        fill_disk()
        with pytest.raises(OSError, match="No space"):
            write_file(path, OLD[::-1])
        assert path.read_bytes() == OLD[::-1][:len(OLD) // 2]


class _FailsHalfway(io.FileIO):
    """Writes the first half of what it is given, then fails as a full disk would."""

    def write(self, b):
        super().write(memoryview(b)[:len(b) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture
def fill_disk(monkeypatch):
    """Call it, and every later write_file fails halfway."""
    def fake_open(path, mode, buffering, opener):
        return _FailsHalfway(path, mode, opener=opener)
    return lambda: monkeypatch.setattr(data, "open", fake_open, raising=False)


def _pixels(seed):
    return np.random.default_rng(seed).random((16, 16, 1))


def _weights(seed):
    rng = np.random.default_rng(seed)
    return {"a": rng.standard_normal((8, 4)), "b": rng.standard_normal(4)}


def _csv_rows(n):
    return [{"protocol": "in_dist", "split": "test", "family": "A",
             "perturbation": "none", "level": i, "acc": 0.5 + i, "auc_frame": 0.25,
             "auc_video": 1.0, "n": 4} for i in range(n)]


# Each artifact writer, as (write its first or second payload into a file,
# the check that rejects a damaged one, or None for CSV files).
WRITERS = {
    "write_ppm": (lambda path, k: write_ppm(path, _pixels(k)), read_ppm),
    "save_weights": (lambda path, k: save_weights(path, _weights(k)), load_weights),
    "cli._write_csv": (lambda path, k: cli._write_csv(path, cli.REPORT_COLUMNS,
                                                      _csv_rows(8 if k else 1)), None),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_writer_rewrites_in_place(tmp_path, writer):
    write, _ = WRITERS[writer]
    fresh, path, link = tmp_path / "fresh", tmp_path / "rewritten", tmp_path / "link"
    write(fresh, 0)
    write(path, 1)  # a different, for the CSV a longer, earlier file
    os.link(path, link)
    inode = path.stat().st_ino
    write(path, 0)
    assert path.read_bytes() == fresh.read_bytes()
    assert path.stat().st_ino == inode
    assert link.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("writer, error", [("write_ppm", FormatError),
                                           ("save_weights", WeightsError)])
def test_failed_rewrite_is_rejected_on_load(tmp_path, fill_disk, writer, error):
    write, load = WRITERS[writer]
    path = tmp_path / "f"
    write(path, 1)
    load(path)
    fill_disk()
    with pytest.raises(OSError, match="No space"):
        write(path, 0)
    with pytest.raises(error, match="truncated|checksum"):
        load(path)


def test_manifest_rewrite_in_place(tiny_splits, tmp_path):
    fresh = write_dataset(tiny_splits, tmp_path / "fresh")
    out = tmp_path / "rewritten"
    out.mkdir()
    manifest = out / "manifest.csv"
    manifest.write_bytes(fresh.read_bytes() * 2)
    os.link(manifest, out / "link.csv")
    write_dataset(tiny_splits, out)
    assert manifest.read_bytes() == fresh.read_bytes()
    assert (out / "link.csv").read_bytes() == fresh.read_bytes()


def test_csv_is_utf8(tmp_path):
    path = tmp_path / "report.csv"
    cli._write_csv(path, ("family", "n"), [{"family": "Ä-fälschung ✓", "n": 1}])
    assert path.read_bytes() == "family,n\nÄ-fälschung ✓,1\n".encode("utf-8")


def test_bolf_train_is_the_module():
    import bolf.train as m
    assert isinstance(m, types.ModuleType)
    assert m.train.__module__ == "bolf.train"


CFG_TEXT = """\
data.train_count = 8
data.val_count = 4
data.test_count = 4
data.frames_per_video = 2
data.height = 16
data.width = 16
train.epochs = 2
train.batch_size = 4
model.dim = 16
model.depth = 1
model.heads = 2
model.mlp_ratio = 2
"""


def _run_every_verb(cfg: Path, out: Path, *extra: str) -> None:
    """gen-data, train, eval and rollout of two test frames into ``out``."""
    for verb in ("gen-data", "train", "eval"):
        assert main([verb, "--config", str(cfg), "--out", str(out), *extra]) == EXIT_OK
    for image in sorted((out / "images" / "test").glob("*.pgm"))[:2]:
        assert main(["rollout", str(image), "--config", str(cfg), "--out", str(out),
                     *extra]) == EXIT_OK


def test_rerun_over_earlier_files_matches_a_fresh_run(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG_TEXT)
    fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
    _run_every_verb(cfg, fresh)
    # the earlier run differs in every artifact, and its report is longer
    _run_every_verb(cfg, rerun, "--seed", "1", "--set", "train.epochs=3",
                    "--set", "run.protocol=perturbed")
    _run_every_verb(cfg, rerun)
    capsys.readouterr()

    names = sorted(str(p.relative_to(fresh)) for p in fresh.rglob("*") if p.is_file())
    assert names == sorted(str(p.relative_to(rerun)) for p in rerun.rglob("*") if p.is_file())
    assert len(names) == 16 + 4 + 4  # images; manifest, weights, history, report; rollouts
    match, mismatch, errors = filecmp.cmpfiles(fresh, rerun, names, shallow=False)
    assert (mismatch, errors) == ([], [])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """(config, a generated and trained run directory), for the verbs below."""
    root = tmp_path_factory.mktemp("nested")
    cfg = root / "run.cfg"
    cfg.write_text(CFG_TEXT)
    out = root / "made" / "by" / "gen-data"  # gen-data into fresh nested directories
    for verb in ("gen-data", "train"):
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    return cfg, out


def test_verbs_write_into_fresh_nested_directories(corpus, tmp_path, capsys):
    cfg, out = corpus
    weights = tmp_path / "w" / "nested" / "weights.bolf"
    assert main(["train", "--config", str(cfg), "--out", str(out),
                 "--set", f"run.weights_out={weights}"]) == EXIT_OK
    assert weights.read_bytes() == (out / "weights.bolf").read_bytes()

    reads = ["--config", str(cfg), "--set", f"run.weights_in={weights}"]
    report = tmp_path / "eval" / "nested" / "report.csv"
    assert main(["eval", *reads, "--out", str(report.parent),
                 "--set", "run.protocol=cross_family"]) == EXIT_OK
    assert report.read_bytes().startswith(",".join(cli.REPORT_COLUMNS).encode())

    image = next((out / "images" / "test").glob("*.pgm"))
    rollout = tmp_path / "rollout" / "nested"
    assert main(["rollout", str(image), *reads, "--out", str(rollout)]) == EXIT_OK
    assert sorted(p.name for p in rollout.iterdir()) == [f"{image.stem}-overlay.ppm",
                                                         f"{image.stem}-rollout.pgm"]
    capsys.readouterr()


@pytest.mark.parametrize("verb", ["gen-data", "train", "eval", "rollout"])
def test_a_parent_that_is_a_file_exits_3(corpus, tmp_path, capsys, verb):
    cfg, out = corpus
    afile = tmp_path / "afile"
    afile.write_bytes(OLD)
    argv = [verb, "--config", str(cfg), "--out", str(afile / "out")]
    if verb == "train":  # the weights go under the file; out holds the corpus
        argv = [verb, "--config", str(cfg), "--out", str(out),
                "--set", f"run.weights_out={afile / 'w.bolf'}"]
    elif verb == "eval":
        argv += ["--set", f"run.weights_in={out / 'weights.bolf'}",
                 "--set", "run.protocol=cross_family"]
    elif verb == "rollout":
        image = next((out / "images" / "test").glob("*.pgm"))
        argv = [verb, str(image), *argv[1:], "--set", f"run.weights_in={out / 'weights.bolf'}"]
    assert main(argv) == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err.startswith("data error: [Errno 20] Not a directory: ")
    assert "Traceback" not in captured.err + captured.out
    assert afile.read_bytes() == OLD


def test_a_bare_name_that_cannot_be_opened_exits_3_naming_it(corpus, tmp_path, capsys,
                                                               monkeypatch):
    cfg, out = corpus
    monkeypatch.chdir(tmp_path)
    os.symlink(tmp_path / "missing" / "w.bolf", "dangling.bolf")
    assert main(["train", "--config", str(cfg), "--out", str(out),
                 "--set", "run.weights_out=dangling.bolf"]) == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "data error: [Errno 2] No such file or directory: 'dangling.bolf'")
    assert "Traceback" not in captured.err + captured.out
