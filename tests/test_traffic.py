"""The statement listing of tools/traffic.py: which statements of a module a
line tracer saw run, on a small module written for the test."""

import importlib.util
import textwrap
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "traffic.py"
_SPEC = importlib.util.spec_from_file_location("traffic", _PATH)
traffic = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(traffic)

MODULE = '''\
"""A module docstring, which runs."""
import functools

LIMIT = 3


@functools.cache
def pick(a):
    """A function docstring, which compiles to nothing."""
    global LIMIT
    try:
        b = (a +
             1)
    except TypeError:
        b = 0
    else:
        pass
    if a > LIMIT:
        return b
    elif a < 0:
        return -b
    else:
        return [i
                for i in range(b)]


def never(x):
    return x
'''


def _trace_module(tmp_path, calls):
    """Import MODULE from tmp_path under a LineTracer, run ``calls`` on it,
    and return what ``unrun`` lists for it."""
    path = tmp_path / "small.py"
    path.write_text(MODULE)
    tracer = traffic.LineTracer(tmp_path)
    spec = importlib.util.spec_from_file_location("small", path)
    module = importlib.util.module_from_spec(spec)
    with tracer.installed():
        spec.loader.exec_module(module)
        calls(module)
    return traffic.unrun(path, tracer.hits.get(path.resolve(), set()))


def _line(text):
    return MODULE.splitlines().index(text) + 1


def test_lists_each_statement_no_call_reached(tmp_path):
    missed = _trace_module(tmp_path, lambda m: (m.pick(5), m.pick(1)))
    assert missed == [
        (_line("    except TypeError:") + 1, "b = 0"),
        (_line("        return -b"), "return -b"),
        (_line("    return x"), "return x"),
    ]


def test_a_module_run_through_lists_nothing(tmp_path):
    def every_branch(m):
        m.pick(5), m.pick(1), m.pick(-1), m.never(0)
        m.pick.__wrapped__(None)  # TypeError inside the try, then None > 3 raises

    def calls(m):
        try:
            every_branch(m)
        except TypeError:
            pass

    assert _trace_module(tmp_path, calls) == []


def test_a_module_never_imported_lists_every_statement_with_code(tmp_path):
    path = tmp_path / "small.py"
    path.write_text(MODULE)
    firsts = [line for line, _ in traffic.unrun(path, set())]
    # neither docstring of a function, nor `global`, nor `else:` has code
    assert _line('    """A function docstring, which compiles to nothing."""') not in firsts
    assert _line("    global LIMIT") not in firsts
    assert _line("@functools.cache") in firsts  # a decorated def starts at its decorator
    assert _line("def pick(a):") not in firsts
    assert _line("        b = (a +") in firsts
    assert _line("             1)") not in firsts  # a statement is listed once, at its start
    assert len(firsts) == len(set(firsts))
