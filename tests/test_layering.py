"""The autodiff core stands alone: ``bolf.tensor`` imports no other bolf
module, so the package has no import cycle, and the loss that its probe
table checks is the one that training runs."""

import ast
from pathlib import Path

import bolf.train
from bolf.tensor import cross_entropy, primitive_checks

TENSOR = Path(__file__).resolve().parents[1] / "src" / "bolf" / "tensor.py"


def _bolf_imports(source: str) -> list[str]:
    """Every import of a bolf module in ``source``, at any depth, as written."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name == "bolf" or alias.name.startswith("bolf.")]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module == "bolf" or module.startswith("bolf."):
                found.append(module)
    return found


def test_tensor_imports_no_bolf_module():
    assert _bolf_imports(TENSOR.read_text()) == []


def test_finds_every_form_of_bolf_import():
    source = """
import numpy, bolf.model
from . import train
def f():
    from .train import cross_entropy
    from bolf import data
    import bolf
from bolfish import x
"""
    assert _bolf_imports(source) == ["bolf.model", ".", ".train", "bolf", "bolf"]


def test_training_runs_the_loss_the_probe_table_checks():
    assert bolf.train.cross_entropy is cross_entropy
    checks = primitive_checks()
    assert len(checks) == 21
    assert checks[-1][0] == "cross_entropy"
