"""Every import in ``src/rfmc`` is relative, from the standard library, or
numpy, the one runtime dependency that ``pyproject.toml`` declares; every
name the package exports resolves; and every public function or class has
a user: the package itself, its exports, or the benchmark."""

import ast
import sys
from pathlib import Path

import pytest

import rfmc
from test_benchmark_names import CALLED, load_perfbench_module

SRC = Path(__file__).resolve().parent.parent / "src" / "rfmc"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_imports_are_relative_stdlib_or_numpy():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert outside == []


def test_every_export_resolves():
    # a stale name in __all__ would only fail at a user's ``from rfmc import *``
    assert [name for name in rfmc.__all__ if not hasattr(rfmc, name)] == []


def test_every_public_function_and_class_is_used():
    # Used means named in the package (as a name or an attribute), exported
    # in ``rfmc.__all__``, or traced or called by the benchmark; a function
    # left behind when its last caller goes is flagged here.
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    defined = [
        node.name for tree in trees for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    named = {node.id for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)}
    with pytest.MonkeyPatch.context() as mp:
        load_perfbench_module(mp, "tracer")
        layers = load_perfbench_module(mp, "layers")
    benchmarked = {path.rsplit(".", 1)[-1]
                   for path in [target.path for target in layers.TARGETS] + list(CALLED)}
    assert [name for name in defined
            if name not in named | set(rfmc.__all__) | benchmarked] == []
