"""Every module of the package uses each name it imports (``__init__`` is
exempt: its imports are the package's re-exports), every engine op has a
caller, and every config field has a reader."""

import ast
import pathlib
from dataclasses import fields

import pytest

import densedistill
from densedistill.config import RunConfig

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


def tensor_ops_without_caller(sources):
    """Public functions of ``tensor.py`` that no module of ``sources`` (name ->
    source text) calls. Elsewhere a call counts through a name bound by
    ``from .tensor import`` or an attribute of the module bound by ``from .
    import tensor``; inside ``tensor.py``, a call from any other function."""
    tree = ast.parse(sources["tensor.py"])
    ops = {node.name for node in tree.body
           if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    called = set()
    for def_node in tree.body:
        if isinstance(def_node, ast.FunctionDef):
            called.update(node.func.id for node in ast.walk(def_node)
                          if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                          and node.func.id != def_node.name)
    for name, source in sources.items():
        if name == "tensor.py":
            continue
        tree = ast.parse(source)
        module_names, op_names = set(), {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    module_names.update(a.asname or a.name for a in node.names
                                        if a.name == "tensor")
                elif node.module == "tensor":
                    op_names.update((a.asname or a.name, a.name) for a in node.names)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in op_names:
                called.add(op_names[func.id])
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id in module_names):
                called.add(func.attr)
    return sorted(ops - called)


def test_tensor_op_caller_finder():
    sources = {
        "tensor.py": ("def add(a, b):\n    return from_op(a, b)\n"
                      "def from_op(a, b):\n    return from_op(a, b)\n"
                      "def neg(a):\n    return neg(a)\n"
                      "def mul(a, b):\n    return a\ndef exp(a):\n    return a\n"
                      "def _private(a):\n    return a\n"),
        "vit.py": "from . import tensor as T\ndef f(x):\n    return T.add(x, x).exp()\n",
        "losses.py": "from .tensor import mul as times\ntimes(1, 2)\n",
    }
    assert tensor_ops_without_caller(sources) == ["exp", "neg"]


def test_every_tensor_op_has_a_caller():
    """An engine op that no model code calls is dead code: delete it with its
    last caller. A gradcheck entry alone does not keep an op alive."""
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in pathlib.Path(densedistill.__file__).parent.glob("*.py")
               if p.name != "gradcheck.py"}
    assert tensor_ops_without_caller(sources) == []


def unread_fields(names, sources):
    """The names among ``names`` that no source text of ``sources`` reads as
    an attribute (``cfg.lam``) or holds as a string constant (``getattr(cfg,
    "lam")``)."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return sorted(set(names) - read)


def test_unread_field_finder():
    sources = ["def f(cfg):\n    return cfg.lam, getattr(cfg, 'tau')\n",
               "x = 'seed of ' + cfg.seeds\n"]
    assert unread_fields(["lam", "tau", "seed", "roi_n"], sources) == ["roi_n", "seed"]


def test_every_config_field_is_read_outside_config():
    """A RunConfig field that only config.py reads is a dead config key:
    parsed, validated and echoed, but it changes no run. Delete it, or
    read it."""
    sources = [path.read_text(encoding="utf-8")
               for path in pathlib.Path(densedistill.__file__).parent.glob("*.py")
               if path.name != "config.py"]
    assert unread_fields([f.name for f in fields(RunConfig)], sources) == []
