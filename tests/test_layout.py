"""Module-graph rules for the package sources.

No module imports another module's private (underscore) name, except the
shared helpers in _stats and _streams, and no import hides inside a
function, where it would keep the module graph out of sight.  Only _streams
makes random generators, so every draw is keyed by (seed, purpose, index).
The per-layer trace (perfbench/traced.py) patches package attributes by
name, so every name it uses must exist, with the parameters it reads and
the SamplerConfig fields it reads.
"""

import ast
import dataclasses
import importlib
import inspect
import pathlib

from pimd_kubo.sampler import SamplerConfig

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pimd_kubo"
TRACED = SRC.parent.parent / "perfbench" / "traced.py"
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


def _traced_uses():
    """(package attributes traced.py names, {wrapped attribute: argument names read}).

    Attributes are (module, name) pairs: module.name in any expression or
    assignment, getattr/setattr(module, v) with v looping over string
    constants, and from-imports.  The argument names are the a["..."] keys
    read by the on_return counter passed to tracer.wrap(span, attribute, counter).
    """
    tree = ast.parse(TRACED.read_text())
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name.startswith("pimd_kubo.")}
    loops = {node.target.id: [elt.value for elt in node.iter.elts] for node in ast.walk(tree)
             if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple)}

    def refs(expr):
        if isinstance(expr, ast.Attribute):
            owner, names = expr.value, [expr.attr]
        elif (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
              and expr.func.id in ("getattr", "setattr")):
            owner, names = expr.args[0], loops.get(getattr(expr.args[1], "id", None), [])
        else:
            return []
        if isinstance(owner, ast.Name) and owner.id in modules:
            return [(modules[owner.id], name) for name in names]
        return []

    used = {ref for node in ast.walk(tree) for ref in refs(node)}
    used |= {(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pimd_kubo")
             for alias in node.names}
    functions = {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}

    def keys(counter):
        arguments = counter.args.args[1].arg  # on_return(span, arguments, result)
        return {sub.slice.value for sub in ast.walk(counter) if isinstance(sub, ast.Subscript)
                and getattr(sub.value, "id", None) == arguments
                and isinstance(sub.slice, ast.Constant)}

    read = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap" and len(node.args) == 3
                and isinstance(node.args[2], ast.Name)):
            for ref in refs(node.args[1]):
                read[ref] = keys(functions[node.args[2].id])
    return used, read


def _sampler_fields_read():
    """Attributes traced.py reads from a sampler config: cfg.<name> and
    a["cfg"].<name> / a["sampler_cfg"].<name>."""
    tree = ast.parse(TRACED.read_text())
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and (getattr(node.value, "id", None) == "cfg"
                 or (isinstance(node.value, ast.Subscript)
                     and getattr(node.value.slice, "value", None) in ("cfg", "sampler_cfg")))}


def test_traced_entry_points_exist():
    used, read = _traced_uses()
    missing = [f"{module}.{name}" for module, name in sorted(used)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, missing
    lost = [f"{module}.{name}({key})" for (module, name), keys in sorted(read.items())
            for key in sorted(keys)
            if key not in inspect.signature(
                getattr(importlib.import_module(module), name)).parameters]
    assert not lost, lost
    # the parse must see the correlator counters, or the checks above prove nothing
    for name in ("rpmd_kubo_correlator", "cmd_kubo_correlator"):
        assert {"sampler_cfg", "integrator_cfg"} <= read[("pimd_kubo.runner", name)]
    assert "thermo" in read[("pimd_kubo.runner", "rpmd_kubo_correlator")]
    fields = _sampler_fields_read()
    assert fields <= {f.name for f in dataclasses.fields(SamplerConfig)}, fields
    assert {"n_walkers", "n_samples", "burn_in", "decorrelation_stride"} <= fields
    assert ("pimd_kubo.io", "write_meta_json") in used
    assert ("pimd_kubo.estimators", "sample_ring_positions") in used
