"""The benchmark's tracer must find every function it wraps.

``perfbench/spans.py`` replaces functions where bolf's modules bind them
(``bolf.model.dropout``, ...). A binding that a refactor renames or moves
would make a traced benchmark run fail, so this test installs the tracer
over the same modules the benchmark does, then removes it again.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(spans, modules):
    """The object each WRAPPED entry names, as its owner holds it."""
    found = []
    for where, attr, _ in spans.WRAPPED:
        module, _, cls = where.partition(".")
        owner = modules[module]
        found.append(vars(getattr(owner, cls))[attr] if cls else getattr(owner, attr))
    return found


def test_tracer_wraps_and_restores_every_binding():
    spans = _load_spans()
    modules = {m: importlib.import_module(f"bolf.{m}")
               for m in ("cli", "data", "model", "train")}
    original = _bindings(spans, modules)
    tracer = spans.Tracer(modules)
    try:
        tracer.install()
        installed = _bindings(spans, modules)
    finally:
        tracer.remove()
    for (where, attr, _), before, during in zip(spans.WRAPPED, original, installed):
        assert during is not before, f"{where}.{attr} was not wrapped"
    for (where, attr, _), before, after in zip(spans.WRAPPED, original,
                                               _bindings(spans, modules)):
        assert after is before, f"{where}.{attr} was not restored"


def test_traced_build_split_records_one_span_per_frame():
    # data.gen_ms_per_frame divides generation time by these span counts
    spans = _load_spans()
    modules = {m: importlib.import_module(f"bolf.{m}")
               for m in ("cli", "data", "model", "train")}
    spec = modules["data"].DatasetSpec(train_count=14, frames_per_video=3,
                                       height=16, width=16)
    tracer = spans.Tracer(modules)
    try:
        tracer.install()
        samples = modules["data"].build_split(spec, "train")
    finally:
        tracer.remove()
    names = [span[1] for span in tracer.spans]
    labels = [s.label for s in samples]
    assert names.count("data.gen_original") == labels.count(0) == 7
    assert names.count("data.gen_manipulated") == labels.count(1) == 7
