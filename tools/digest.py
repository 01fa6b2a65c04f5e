"""One sha256 over everything a short run of bolf writes and prints.

    python3 tools/digest.py [--config PATH]

In a fresh temporary working directory, runs every verb of the CLI
through ``bolf.cli.main``, each with ``--out run`` (and ``--config PATH``
when given): ``gen-data``, ``train``, ``eval`` under the ``in_dist``,
``perturbed`` and ``cross_family`` protocols, ``rollout`` of the first 20
test frames of the manifest, in manifest order, and ``gradcheck``. After
each command the digest takes its own arguments (not the shared ``--out``
and ``--config``), its exit code, everything it printed to stdout, and
each file it wrote, new or changed since the command before, as relative
path and bytes, in path order; so each eval's ``report.csv`` counts as
that eval wrote it. Prints the hex digest. Two source trees that print the
same digest wrote and printed the same bytes.

bolf is imported from ``src/`` of the checkout this file lies in. Exits 1,
printing no digest, if a command other than ``gradcheck`` does not exit 0.
``gradcheck`` runs last and may fail: its exit code is hashed instead,
since its model probes can exceed the tolerance on small models whose
adjoints are right.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = "run"
PROTOCOLS = ("in_dist", "perturbed", "cross_family")
ROLLOUT_FRAMES = 20


def commands():
    """Each command's own arguments, in order; the rollout frames are
    read from the manifest that gen-data wrote, once it has run."""
    yield ["gen-data"]
    yield ["train"]
    for protocol in PROTOCOLS:
        yield ["eval", "--set", f"run.protocol={protocol}"]
    with open(Path(OUT) / "manifest.csv", newline="", encoding="utf-8") as fh:
        test = [row["path"] for row in csv.DictReader(fh) if row["split"] == "test"]
    for path in test[:ROLLOUT_FRAMES]:
        yield ["rollout", str(Path(OUT) / path)]
    yield ["gradcheck"]


def digest(main, config: list[str]) -> str:
    """Run every command in the current directory and hash it all. The
    arguments every command shares, ``config`` among them, are not hashed."""
    sha = hashlib.sha256()
    seen: dict[str, bytes] = {}
    for own in commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([*own, "--out", OUT, *config])
        if code != 0 and own != ["gradcheck"]:
            raise SystemExit(f"digest: {' '.join(own)} exited {code}")
        sha.update(f"{own!r}\0{code}\0{out.getvalue()}\0".encode())
        for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
            rel, blob = path.as_posix(), path.read_bytes()
            if seen.get(rel) != blob:
                seen[rel] = blob
                sha.update(f"{rel}\0{len(blob)}\0".encode() + blob)
    return sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", help="bolf config file passed to every command")
    args = parser.parse_args(argv)
    config = ["--config", str(Path(args.config).resolve())] if args.config else []
    sys.path.insert(0, str(ROOT / "src"))
    from bolf.cli import main as bolf_main

    here = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="bolf-digest-") as work:
        os.chdir(work)
        try:
            print(digest(bolf_main, config))
        finally:
            os.chdir(here)
    return 0


if __name__ == "__main__":
    sys.exit(main())
