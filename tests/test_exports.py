"""Every name the package exports has a caller outside the unit tests.

A name in a module's ``__all__`` must be read somewhere besides its own
definition and its ``__all__`` entry: in ``src/``, in ``perfbench/``
(which patches names by their string) or in ``tests/test_acceptance.py``.
Code that only the unit tests reach belongs in the tests.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import wavetraffic

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(wavetraffic.__file__).resolve().parent
# every module but the package's own and the exception hierarchy's
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem not in ("__init__", "errors"))


class _Reads(ast.NodeVisitor):
    """Counts the names a file reads: loaded names, attributes and string
    constants, leaving out the strings of ``__all__``."""

    def __init__(self):
        self.names = Counter()

    def visit_Assign(self, node):
        if not any(getattr(target, "id", None) == "__all__" for target in node.targets):
            self.generic_visit(node)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names[node.id] += 1

    def visit_Attribute(self, node):
        self.names[node.attr] += 1
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self.names[node.value] += 1


@pytest.fixture(scope="module")
def reads():
    files = [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    counts = Counter()
    for path in files:
        visitor = _Reads()
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        counts.update(visitor.names)
    return counts


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_has_a_caller(module, reads):
    exported = importlib.import_module(f"wavetraffic.{module}").__all__
    assert [name for name in exported if not reads[name]] == []
