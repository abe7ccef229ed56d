"""Every import in ``src/rfmc`` is relative, from the standard library, or
numpy, the one runtime dependency that ``pyproject.toml`` declares; and
every name the package exports resolves."""

import ast
import sys
from pathlib import Path

import rfmc

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
