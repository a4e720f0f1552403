"""Module-graph rules for the package sources.

No module imports another module's private (underscore) name, except the
shared helpers in _stats and _streams, and no import hides inside a
function, where it would keep the module graph out of sight.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pimd_kubo"
SHARED = ("_stats", "_streams")


def _trees():
    return [(path.name, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(SRC.glob("*.py"))]


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_private_cross_module_import():
    bad = [f"{name}:{node.lineno}: from .{node.module or ''} import {alias.name}"
           for name, tree in _trees() for node in ast.walk(tree)
           if isinstance(node, ast.ImportFrom) and node.level and node.module not in SHARED
           for alias in node.names if _private(alias.name) and alias.name not in SHARED]
    assert not bad, bad


def test_no_import_inside_function():
    bad = [f"{name}:{inner.lineno} in {fn.name}"
           for name, tree in _trees() for fn in ast.walk(tree)
           if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
           for inner in ast.walk(fn) if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert not bad, bad
