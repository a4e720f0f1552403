"""Module-graph rules for the package sources.

No module imports another module's private (underscore) name, except the
shared helpers in _stats and _streams, and no import hides inside a
function, where it would keep the module graph out of sight.  Only _streams
makes random generators, so every draw is keyed by (seed, purpose, index).
The per-layer trace (perfbench/traced.py) patches package attributes by
name, so every name it uses must exist, with the parameters it reads and
the SamplerConfig fields it reads.  The benchmark driver
(perfbench/run.py) imports package names, in its own source and in the
programs it runs with python -c, and reads a parsed RunConfig's
attributes and [section] keys, so those must exist too; so must every
name the demos (demos/*.py), which no test runs, import.  The runtime
needs numpy only: a run must not load scipy, which the tests use as a
reference.  Importing the runner and parsing a config load no
numpy.polynomial: quadrature rules are formed on first use.  The oracle,
which judges the sampler, the dynamics and the estimators, imports none of
them, even by way of another module.  No module calls np.power.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

from pimd_kubo.runner import _SCHEMA, parse_config
from pimd_kubo.sampler import SamplerConfig

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pimd_kubo"
TRACED = SRC.parent.parent / "perfbench" / "traced.py"
BENCH_RUN = SRC.parent.parent / "perfbench" / "run.py"
DEMOS = sorted((SRC.parent.parent / "demos").glob("*.py"))
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


def test_oracle_imports_none_of_the_code_it_judges():
    graph = {name[:-3]: {node.module or alias.name for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom) and node.level
                         for alias in node.names}
             for name, tree in _trees()}
    reached, todo = set(), ["oracle"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo += graph.get(module, ())
    # the walk must see the oracle's own imports, or the check proves nothing
    assert {"model", "ringpoly", "series"} <= reached
    judged = reached & {"sampler", "dynamics", "estimators", "runner"}
    assert not judged, judged


def test_no_numpy_power_call():
    """No module calls np.power: a power of a position is model.horner's products.

    numpy's general pow took about 75 times as long as (q q) q on a
    (1024, 32) array.  A ** operator is no call and this rule passes it;
    sampler.static_average forms its power sums of u by running products
    all the same.
    """
    bad = [f"{name}:{node.lineno}" for name, tree in _trees() for node in ast.walk(tree)
           if isinstance(node, ast.Call) and "power" in (getattr(node.func, "attr", None),
                                                         getattr(node.func, "id", None))]
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


def _programs(tree):
    """The string constants of tree that parse as Python and import the package."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and "from pimd_kubo" in str(node.value):
            try:
                out.append(ast.parse(node.value))
            except SyntaxError:
                pass
    return out


def _config_reads(tree):
    """({attribute: called}, {(section, key)}) that run.py reads from a parse_config result.

    A result is held in an attribute assigned from parse_config(...) (say
    self.config) or in the parameter a module function receives it in.
    """
    held = {t.attr for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "parse_config"
            for t in node.targets if isinstance(t, ast.Attribute)}
    functions = {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    params = {(functions[call.func.id], param.arg) for call in ast.walk(tree)
              if isinstance(call, ast.Call) and getattr(call.func, "id", None) in functions
              for param, arg in zip(functions[call.func.id].args.args, call.args)
              if isinstance(arg, ast.Attribute) and arg.attr in held}
    holders = {id(node) for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr in held}
    holders |= {id(node) for fn, name in params for node in ast.walk(fn)
                if isinstance(node, ast.Name) and node.id == name}
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    reads = {node.attr: id(node) in called for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and id(node.value) in holders}
    keys = {(outer.value.slice.value, outer.slice.value) for outer in ast.walk(tree)
            if isinstance(outer, ast.Subscript) and isinstance(outer.value, ast.Subscript)
            and isinstance(outer.value.value, ast.Attribute)
            and outer.value.value.attr == "sections" and id(outer.value.value.value) in holders}
    return reads, keys


def _package_imports(trees):
    """(module, name) of every `from pimd_kubo... import name` in trees."""
    return {(node.module, alias.name) for t in trees for node in ast.walk(t)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pimd_kubo")
            for alias in node.names}


def _missing(imported):
    return [f"{module}.{name}" for module, name in sorted(imported)
            if not hasattr(importlib.import_module(module), name)]


def test_benchmark_driver_names_exist():
    tree = ast.parse(BENCH_RUN.read_text())
    imported = _package_imports([tree] + _programs(tree))
    missing = _missing(imported)
    assert not missing, missing
    assert {("pimd_kubo.runner", "main"), ("pimd_kubo.runner", "parse_config"),
            ("pimd_kubo.sampler", "resolve_workers")} <= imported
    reads, keys = _config_reads(tree)
    config = parse_config("[model]\nkind = harmonic\n[thermo]\nbeta = 1\nn_beads = 4\n"
                          "[sampler]\nn_samples = 64\n[run]\ncommand = static\nseed = 1\n"
                          "output_dir = x\n")
    lost = [name for name, call in sorted(reads.items())
            if not hasattr(config, name) or call and not callable(getattr(config, name))]
    assert not lost, lost
    assert [k for k in sorted(keys) if k[0] not in _SCHEMA or k[1] not in _SCHEMA[k[0]]] == []
    # the parse must see reference() and the precision note, or the checks prove nothing
    assert {"model", "thermo", "grid", "observables", "command", "sections"} <= set(reads)
    assert ("sampler", "n_samples") in keys


def test_demo_imports_exist():
    imported = _package_imports(ast.parse(path.read_text(), filename=str(path)) for path in DEMOS)
    # the parse must see the demos' imports, or the check proves nothing
    assert len(DEMOS) >= 4 and ("pimd_kubo", "rpmd_kubo_correlator") in imported
    missing = _missing(imported)
    assert not missing, missing


NO_SCIPY = """
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("the runtime must not import " + name)
        return None


sys.meta_path.insert(0, RefuseScipy())
from pimd_kubo import runner

config = runner.parse_config('''
[model]
kind = mildly_anharmonic
[thermo]
beta = 2.0
n_beads = 4
[sampler]
n_samples = 64
n_walkers = 16
burn_in = 16
[integrator]
dt = 0.05
n_steps = 20
[run]
command = cmd
seed = 3
output_dir = {out}
# over 8 thermal widths of the centroid (1 / sqrt(beta m w^2) = 0.71) on
# each side, so no centroid escapes the table at any seed
table_min = -6.0
table_max = 6.0
table_nodes = 9
''')
status = runner.run(config)
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
print(status, loaded)
"""


def test_runtime_never_loads_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY.format(out=tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[-2] == "0 []", (proc.stdout, proc.stderr)
    assert (tmp_path / "out" / "force_table.csv").is_file()


NO_POLYNOMIAL = """
import sys

from pimd_kubo import runner

runner.parse_config('''
[model]
kind = harmonic
[thermo]
beta = 1.0
n_beads = 4
[sampler]
n_samples = 64
[integrator]
dt = 0.05
n_steps = 20
[oracle]
[run]
command = compare
seed = 1
output_dir = unused
''')
print(sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "polynomial"]))
"""


def test_import_and_parse_build_no_quadrature_rule():
    # the swarm trace's Gauss-Hermite rules are formed on first use, so a CLI
    # start does not load numpy.polynomial or build them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", NO_POLYNOMIAL],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[-2] == "[]", (proc.stdout, proc.stderr)
