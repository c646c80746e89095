"""Every module of the package uses each name it imports. ``__init__`` is
exempt: its imports are the package's re-exports."""

import ast
import pathlib

import pytest

import densedistill

MODULES = sorted(p for p in pathlib.Path(densedistill.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_import_finder():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from . import tensor as T\nfrom .tensor import Tensor, from_op\n"
              "def f(x: Tensor):\n    return os.path.join(from_op(x))\n")
    assert unused_imports(source) == ["T", "np"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
