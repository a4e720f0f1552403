"""Module-graph rules for the package sources.

No module imports another module's private (underscore) name, except the
shared helpers in _stats and _streams, and no import hides inside a
function, where it would keep the module graph out of sight.  Only _streams
makes random generators, so every draw is keyed by (seed, purpose, index).
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pimd_kubo"
SHARED = ("_stats", "_streams")
# constructors of numpy generators, bit generators and seed sequences
RANDOM_MAKERS = {"Generator", "RandomState", "default_rng", "SeedSequence", "BitGenerator",
                 "Philox", "PCG64", "PCG64DXSM", "MT19937", "SFC64"}


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



def _makes_randomness(node):
    """A reference to a generator constructor, or an import of a random module."""
    if isinstance(node, ast.Attribute):
        return node.attr in RANDOM_MAKERS
    if isinstance(node, ast.Name):
        return node.id in RANDOM_MAKERS
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        modules = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
        return any("random" in module.split(".") for module in modules)
    return False


def test_only_streams_makes_generators():
    bad = [f"{name}:{node.lineno}" for name, tree in _trees() if name != "_streams.py"
           for node in ast.walk(tree) if _makes_randomness(node)]
    assert not bad, bad
