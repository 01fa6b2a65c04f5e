"""The statements of bolf that no benchmark workload runs.

    python3 tools/traffic.py

Runs ``perfbench/run.py --workload W --seed 0 --seconds 1 --trace 0``
for each of the three workloads, one after the other in this process,
under a line tracer: ``sys.settrace``, and ``threading.settrace`` for
the threads started meanwhile. Each run sets up, runs and makes every
check the benchmark makes, as it does alone; its output goes to stderr.
Then the statements under src/bolf that no run executed are printed, file
by file, as ``path:line: first line of the statement``. Import-time
statements count as run, since bolf is first imported under the tracer.

A statement is listed when none of its own lines ran: its lines less
those of the statements nested in it, so the header of a compound
statement, and for ``try`` its ``except`` lines too. Statements that
compile to no code (docstrings of functions, ``global``, a bare ``else:``
line) are never listed.

Exits 1 if any run is not correct, has a failed operation or ends without
its result object; the listing is printed all the same.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import sys
import threading
import traceback
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ROOT / "src" / "bolf"
WORKLOADS = ("train", "eval", "explain")
SEED = 0
SECONDS = 1.0


class LineTracer:
    """Records, per file, the line numbers executed in the ``.py`` files
    directly under ``root`` while it is installed."""

    def __init__(self, root: Path):
        self.root = root.resolve()
        self.hits: dict[Path, set[int]] = {}
        self._tracers: dict[str, object] = {}  # co_filename -> local tracer or None

    def _local(self, filename: str):
        path = Path(filename).resolve()
        if path.parent != self.root or path.suffix != ".py":
            return None
        lines = self.hits.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return self._tracers[filename]
        except KeyError:
            tracer = self._tracers[filename] = self._local(filename)
            return tracer

    @contextlib.contextmanager
    def installed(self):
        """Trace this thread, and the threads started meanwhile; then put
        back the trace functions there were before."""
        before = sys.gettrace(), threading.gettrace()
        threading.settrace(self._global)
        sys.settrace(self._global)
        try:
            yield self
        finally:
            sys.settrace(before[0])
            threading.settrace(before[1])


def _code_lines(source: str, filename: str) -> set[int]:
    """The lines of a module's source that some bytecode is attributed to."""
    lines: set[int] = set()
    stack = [compile(source, filename, "exec", dont_inherit=True)]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def statements(path: Path) -> list[tuple[int, frozenset[int]]]:
    """(first line, own lines) of each statement of the module at ``path``
    that compiles to code, in source order. A statement's own lines run
    from its first decorator or keyword to its last line, less the lines
    of the statements nested in it."""
    source = path.read_text()
    code = _code_lines(source, str(path))
    found = []
    for node in ast.walk(ast.parse(source, str(path))):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        own = set(range(first, node.end_lineno + 1))
        for child in ast.walk(node):
            if child is not node and isinstance(child, ast.stmt):
                own.difference_update(range(child.lineno, child.end_lineno + 1))
        if own & code:
            found.append((first, frozenset(own)))
    return sorted(found)


def unrun(path: Path, hits: set[int]) -> list[tuple[int, str]]:
    """(line, source text) of the first line of each statement of the
    module at ``path`` none of whose own lines is in ``hits``."""
    text = path.read_text().splitlines()
    return [(first, text[first - 1].strip()) for first, own in statements(path)
            if not own & hits]


def _load_benchmark():
    """perfbench/run.py as a module, which imports bolf from src/."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_workload(bench, workload: str) -> dict | None:
    """One benchmark run; its result object, or None if it ended without one.
    Everything the run prints goes to stderr."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = bench.main(["--workload", workload, "--seed", str(SEED),
                               "--seconds", str(SECONDS), "--trace", "0"])
    except (Exception, SystemExit):
        traceback.print_exc()
        code = 1
    finally:
        sys.stderr.write(out.getvalue())
    lines = out.getvalue().strip().splitlines()
    if code != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def main() -> int:
    tracer = LineTracer(SOURCES)
    faults = []
    with tracer.installed():
        bench = _load_benchmark()
        for workload in WORKLOADS:
            result = run_workload(bench, workload)
            if result is None:
                faults.append(f"{workload}: no result object")
            elif not result.get("correct") or result.get("failed"):
                faults.append(f"{workload}: correct {result.get('correct')}, "
                              f"failed {result.get('failed')} of {result.get('attempted')}")

    total = 0
    for path in sorted(SOURCES.glob("*.py")):
        missed = unrun(path, tracer.hits.get(path.resolve(), set()))
        total += len(missed)
        for line, text in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{total} statements under {SOURCES.relative_to(ROOT)} ran in no workload")
    for fault in faults:
        print(f"FAULT: {fault}", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
