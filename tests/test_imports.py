"""Every module of the package uses each name it imports (``__init__`` is
exempt: its imports are the package's re-exports), every engine op has a
caller, every config field has a reader, only ``vit`` imports a thread
library, only ``trainer.labels_section`` reads a labels section, and the
runtime needs numpy alone."""

import ast
import os
import pathlib
import subprocess
import sys
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


def thread_importers(sources):
    """The names of ``sources`` (name -> source text) whose module imports
    ``threading`` or ``concurrent.futures``, in any spelling."""
    found = set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] in ("threading", "concurrent") for m in modules):
                found.add(name)
    return sorted(found)


def test_thread_importer_finder():
    sources = {"a.py": "import threading\n",
               "b.py": "from concurrent.futures import ThreadPoolExecutor\n",
               "c.py": "from concurrent import futures\n",
               "d.py": "import os, concurrent.futures as cf\n",
               "e.py": "from .threading import lock\nimport threadingx\nx = 'threading'\n"}
    assert thread_importers(sources) == ["a.py", "b.py", "c.py", "d.py"]


def test_only_vit_starts_threads():
    """``vit._beside`` is the one way the package runs work beside the
    calling thread, so no other module imports a thread library."""
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in pathlib.Path(densedistill.__file__).parent.glob("*.py")}
    assert thread_importers(sources) == ["vit.py"]


def readers(sources, reads):
    """Where in ``sources`` (file name -> source text) a node that ``reads``
    accepts sits, as ``module.function`` (the innermost def; ``module``
    alone at top level)."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.split('.')[0]}.{node.name}"
        if reads(node):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for name, source in sources.items():
        visit(ast.parse(source), name.removesuffix(".py"))
    return sorted(found)


def labels_readers(sources):
    """Where in ``sources`` a "labels" section is read (``readers``): the
    constant "labels" as a subscript key that is read, a call argument or a
    comparison operand (``"labels" in sections``). A dict key or an
    assigned subscript, the ways a file is written, is no read."""

    def reads(node):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            keys = [node.slice]
        elif isinstance(node, ast.Call):
            keys = node.args + [k.value for k in node.keywords]
        elif isinstance(node, ast.Compare):
            keys = [node.left, *node.comparators]
        else:
            keys = []
        return any(isinstance(k, ast.Constant) and k.value == "labels" for k in keys)

    return readers(sources, reads)


def test_labels_reader_finder():
    sources = {"a.py": "def f(s):\n    return s['labels']\n",
               "b.py": "def g(p):\n    return section(p, read(p), key='labels')\n",
               "c.py": "def h(s):\n    def inner():\n        return 'labels' in s\n    return inner\n",
               "d.py": ("def w(p, x, s):\n    write(p, {'labels': x})\n    s['labels'] = x\n"
                        "    return f\"section 'labels' of {p}\", 'labels.txt'\n"),
               "e.py": "x = read(p).get('labels')\n"}
    assert labels_readers(sources) == ["a.f", "b.g", "c.inner", "e"]


def test_only_labels_section_reads_a_labels_section():
    """``trainer.labels_section`` is the one labels check of every command
    (distill, eval-seg, eval-region), so no other function reads the
    section and skips the check."""
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in pathlib.Path(densedistill.__file__).parent.glob("*.py")}
    assert labels_readers(sources) == ["trainer.labels_section"]


TILE_NAMES = ("TILE_BYTES", "TILE_ALIGN")


def tile_readers(sources):
    """Where in ``sources`` TILE_BYTES or TILE_ALIGN is read (``readers``): a
    name or an attribute (``vit.TILE_BYTES``) that is loaded, or the name as
    a string constant (``getattr(vit, "TILE_BYTES")``). The assignment that
    defines it is no read."""

    def reads(node):
        if isinstance(node, ast.Constant):
            return node.value in TILE_NAMES
        name = getattr(node, "id", getattr(node, "attr", None))
        return name in TILE_NAMES and isinstance(node.ctx, ast.Load)

    return readers(sources, reads)


def test_tile_reader_finder():
    sources = {"a.py": "TILE_BYTES = 2\ndef f(n):\n    return n * TILE_BYTES\n",
               "b.py": "def g():\n    def inner():\n        return vit.TILE_ALIGN\n    return inner\n",
               "c.py": "def h(vit):\n    return getattr(vit, 'TILE_BYTES')\n",
               "d.py": ("def w(vit):\n    vit.TILE_BYTES = 0\n"
                        "    return 'TILE_BYTES is 2 MiB', TILE_BYTESX\n"),
               "e.py": "r = TILE_ALIGN * 2\n"}
    assert tile_readers(sources) == ["a.f", "b.inner", "c.h", "e"]


def test_only_tiles_reads_the_tile_budget():
    """``vit._tiles`` is the one cut of every attention's score maps, so no
    other function reads TILE_BYTES or TILE_ALIGN and cuts a map its own
    way."""
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in pathlib.Path(densedistill.__file__).parent.glob("*.py")}
    assert tile_readers(sources) == ["vit._tiles"]


def callers(sources, name):
    """Where in ``sources`` a function is called by the plain name ``name``
    (``readers``)."""
    return readers(sources, lambda node: isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name) and node.func.id == name)


def test_caller_finder():
    sources = {"a.py": "def f(x):\n    with _beside(g, x, 0) as done:\n        return list(done)\n",
               "b.py": "def g():\n    def inner():\n        return _beside\n    return inner()\n",
               "c.py": "def h():\n    return vit._beside(f, [], 0), _besidex(), '_beside'\n",
               "d.py": "x = _beside(f, [], 0)\n"}
    assert callers(sources, "_beside") == ["a.f", "d"]


def test_only_lanes_drives_attention_lanes():
    """``vit._lanes`` is the one place an attention's cut becomes lanes and
    workspaces, so in ``vit.py`` no other function calls ``_beside``, and
    only it and ``capture_attention`` (whole per-group maps) call
    ``_tiles``."""
    sources = {"vit.py": (pathlib.Path(densedistill.__file__).parent / "vit.py").read_text(
        encoding="utf-8")}
    assert callers(sources, "_beside") == ["vit._lanes"]
    assert callers(sources, "_tiles") == ["vit._lanes", "vit.capture_attention"]


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


def test_the_runtime_loads_no_scipy():
    """Importing every module and running the CLI's --help, in a fresh
    interpreter, loads numpy and no scipy module."""
    script = (
        "import importlib, pkgutil, runpy, sys\n"
        "import densedistill\n"
        "for m in pkgutil.iter_modules(densedistill.__path__):\n"
        "    if m.name != '__main__':\n"
        "        importlib.import_module('densedistill.' + m.name)\n"
        "sys.argv = ['densedistill', '--help']\n"
        "try:\n"
        "    runpy.run_module('densedistill', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print('numpy' in sys.modules, len([m for m in sys.modules if m.startswith('densedistill.')]))\n"
    )
    src = str(pathlib.Path(densedistill.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "usage: densedistill" in proc.stdout
    assert lines[-2] == "[]"
    # run_module executes __main__ without registering it as a submodule
    assert lines[-1] == f"True {sum(p.name != '__main__.py' for p in MODULES)}"
