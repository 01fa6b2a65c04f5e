"""tools/digest.py: one sha256 over a short run of bolf, the same on
every rerun and different for another seed."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

DIGEST = Path(__file__).resolve().parents[1] / "tools" / "digest.py"
_SPEC = importlib.util.spec_from_file_location("digest", DIGEST)
digest_tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digest_tool)

TINY_CFG = """\
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


def _digest(tmp_path, name, text):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    # each run starts in a directory of its own, which the digest must not read
    cwd = tmp_path / name
    cwd.mkdir()
    return subprocess.run([sys.executable, str(DIGEST), "--config", str(cfg)], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_reruns_agree_and_another_seed_differs(tmp_path):
    first = _digest(tmp_path, "first", TINY_CFG)
    second = _digest(tmp_path, "second", TINY_CFG)
    reseeded = _digest(tmp_path, "reseeded", TINY_CFG + "data.seed = 1\ntrain.seed = 1\n")
    for done in (first, second, reseeded):
        assert done.returncode == 0, done.stderr
        assert re.fullmatch(r"[0-9a-f]{64}\n", done.stdout)
    assert first.stdout == second.stdout
    assert reseeded.stdout != first.stdout


def test_a_failing_command_prints_no_digest(tmp_path):
    done = _digest(tmp_path, "failing", TINY_CFG + "model.num_classes = 2\n")
    assert done.returncode == 1
    assert done.stdout == ""
    assert "gen-data" in done.stderr and "exited 2" in done.stderr


def _fake_digest(gradcheck_code=4, gradcheck_out="1/2 checks passed\n"):
    """The digest of a stand-in for bolf.cli.main that writes a one-frame
    manifest, and the commands it was given."""
    argvs = []

    def fake_main(argv):
        argvs.append(argv)
        if argv[0] == "gen-data":
            Path("run").mkdir()
            Path("run/manifest.csv").write_text("path,split\nimages/test/a.pgm,test\n")
        if argv[0] == "gradcheck":
            print(gradcheck_out, end="")
            return gradcheck_code
        return 0

    return digest_tool.digest(fake_main, []), argvs


def test_gradcheck_runs_last_and_its_exit_code_counts(tmp_path, monkeypatch):
    for name in ("failing", "passing", "other"):
        (tmp_path / name).mkdir()
    monkeypatch.chdir(tmp_path / "failing")
    failing, argvs = _fake_digest()
    assert [argv[0] for argv in argvs] == ["gen-data", "train", "eval", "eval", "eval",
                                           "rollout", "gradcheck"]
    monkeypatch.chdir(tmp_path / "passing")
    assert _fake_digest(gradcheck_code=0)[0] != failing
    monkeypatch.chdir(tmp_path / "other")
    assert _fake_digest(gradcheck_out="2/2 checks passed\n")[0] != failing
