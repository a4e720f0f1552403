"""Batch front-end: run configurations in, CSV/JSON artifacts out.

Runs are described by a flat key-value file with sections; flags are
reserved for paths and verbosity.  Every artifact is a pure function of
(config, seed): rerunning the config echoed in meta.json reproduces
results.csv byte for byte at any thread count (PIMD_KUBO_THREADS).

Config grammar.  A ``[name]`` line opens one of the sections model, thermo,
sampler, integrator, oracle or run; each following ``key = value`` line sets
one key of that section (names and keys are case-insensitive, values are
stripped).  Blank lines and lines starting with ``#`` or ``;`` are ignored.
A section or key may appear once.  The keys, their types and defaults are
_SCHEMA below.  [model], [thermo], [sampler] and [integrator] are the fields
of PotentialModel, ThermoParams, SamplerConfig (less seed, which [run] sets)
and IntegratorConfig, with the fields' types and defaults.  model.py owns
the keys each model kind takes (KIND_PARAMETERS): a key of another kind may
appear only at its default.  ``command`` in [run] picks the job and the
sections it needs:

    command      sections                                    artifacts
    static       model thermo sampler run                    results.csv, ensemble.csv*
    rpmd         model thermo sampler integrator run         results.csv, trajectory.csv*
    cmd          model thermo sampler integrator run         results.csv, force_table.csv
    oracle       model thermo oracle integrator run          results.csv
    compare      model thermo sampler integrator oracle run  results.csv, diff.csv
    spectrum     model thermo sampler integrator oracle run  results.csv, correlator.csv
    convergence  model thermo sampler oracle run             results.csv

(* with dump_ensemble / dump_trajectory = true.)  compare runs ``method``
rpmd or cmd against the oracle; spectrum transforms the correlator of
method rpmd, cmd or oracle under a Hann taper (estimators.spectrum).
``blocks`` sets the error blocks of static and convergence; the other
commands have fixed blocks and reject the key.  static and convergence
run one estimator, sampler.static_average, which integrates the centroid
out of each sampled ring for every position observable (q, q2, q3 and
poly:) and takes the bead mean of the momentum draw for p.  At the same
rings its standard error is smaller than that of the plain bead mean.
Both reduce each row to its value as it is drawn
(sampler.sample_static_average), so neither holds an ensemble; only a
static run with dump_ensemble holds the rings, and it averages the rings
it dumps to the same bytes.  The labels a and b are checked at parse time
for every command, including those that ignore them.

Every run also writes meta.json, which records the process's peak resident
set size (peak_rss_mb), its thread count (threads) and each distinct
warning message once, with its count, in first-seen order (warnings), among
other things.
All files of a run are written to a temporary directory beside output_dir
and moved in once every writer has finished, so a failing run adds no file
to output_dir.

Exit codes: 0 success, 2 configuration error (a well the sampler cannot
serve, a time step too coarse for the well, a PIMD_KUBO_THREADS that is
not a positive integer, and an [oracle] grid that leaks at its edges, is
too coarse or retains too few states, included), 3 runtime error.  compare
runs the oracle before its method, so a faulty grid exits 2 before any
sampling.
"""

import argparse
import dataclasses
import os
import resource
import sys
import tempfile
import time
import warnings

import numpy as np

from . import __version__, io
from ._stats import N_BLOCKS
from .dynamics import IntegratorConfig, build_centroid_force_table, check_accuracy, rpmd_trajectory
from .errors import ConfigError
from .estimators import (CMD_OBSERVABLES, cmd_kubo_correlator, rpmd_initial_conditions,
                         rpmd_kubo_correlator, spectrum)
from .model import PotentialModel, ThermoParams
from .oracle import GridSpec, diagonalize, exact_kubo_correlator, thermal_average
from .ringpoly import MOMENTUM, OBS_P, OBS_Q, OBS_Q2, observable_from_label
from .sampler import (SamplerConfig, resolve_workers, sample_ring_positions,
                      sample_static_average, static_average)
from .series import CorrelationSeries

# section -> key -> (converter, default); _REQUIRED means the key must appear
_REQUIRED = dataclasses.MISSING


def _fields(cls, skip=()):
    """Schema section of a config dataclass: each field's type and default."""
    return {f.name: (f.type, f.default) for f in dataclasses.fields(cls) if f.name not in skip}


def _to_bool(s):
    if s.lower() in ("true", "yes", "1"):
        return True
    if s.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _to_int_list(s):
    return [int(v) for v in s.split(",") if v.strip()]


_SCHEMA = {
    "model": _fields(PotentialModel),
    "thermo": _fields(ThermoParams),
    "sampler": _fields(SamplerConfig, skip=("seed",)),  # [run] sets the seed
    "integrator": _fields(IntegratorConfig),
    "oracle": {
        "q_min": (float, -12.0),
        "q_max": (float, 12.0),
        "n_points": (int, 640),
        "n_retained": (int, 32),
    },
    "run": {
        "command": (str, _REQUIRED),
        "seed": (int, _REQUIRED),
        "output_dir": (str, _REQUIRED),
        "a": (str, "q"),
        "b": (str, "q"),
        "method": (str, "rpmd"),
        "n_values": (_to_int_list, [8, 16]),
        "table_min": (float, -4.0),
        "table_max": (float, 4.0),
        "table_nodes": (int, 33),
        "blocks": (int, N_BLOCKS),
        "dump_ensemble": (_to_bool, False),
        "dump_trajectory": (_to_bool, False),
    },
}

# the correlator commands that compare and spectrum run as their `method`
_METHODS = {"compare": ("rpmd", "cmd"), "spectrum": ("rpmd", "cmd", "oracle")}
# the commands whose error bars take [run] blocks; a correlator's are the fixed
# N_BLOCKS blocks, each chunk adding its sums over the blocks it reaches
# (_stats.block_sums) in chunk order, so they do not depend on the thread count
# but are not numpy's full reduction of the products bit for bit
_BLOCKED = ("static", "convergence")


def _built(what, make, *args, **kwargs):
    """make(*args, **kwargs), with its ValueError raised as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


class RunConfig:
    """Typed, validated run configuration."""

    def __init__(self, sections):
        self.sections = sections

    @property
    def command(self):
        return self.sections["run"]["command"]

    @property
    def seed(self):
        return self.sections["run"]["seed"]

    @property
    def output_dir(self):
        return self.sections["run"]["output_dir"]

    def model(self):
        return _built("model", PotentialModel, **self.sections["model"])

    def thermo(self):
        return _built("thermo", ThermoParams, **self.sections["thermo"])

    def sampler(self):
        return _built("sampler", SamplerConfig, seed=self.seed, **self.sections["sampler"])

    def integrator(self):
        return _built("integrator", IntegratorConfig, **self.sections["integrator"])

    def grid(self):
        raw = self.sections["oracle"]
        return (_built("oracle grid", GridSpec, raw["q_min"], raw["q_max"], raw["n_points"]),
                raw["n_retained"])

    def observables(self):
        run = self.sections["run"]
        try:
            return observable_from_label(run["a"]), observable_from_label(run["b"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def parse_config(text):
    """Strict parser for the sectioned key-value grammar; errors carry lines."""
    sections = {}
    current = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SCHEMA:
                raise ConfigError(f"unknown section [{name}]", line=lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", line=lineno)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", line=lineno)
        if current is None:
            raise ConfigError("key outside any section", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _SCHEMA[current]:
            raise ConfigError(f"unknown key {key!r} in section [{current}]", line=lineno, key=key)
        if (current, key) in seen:
            raise ConfigError(f"duplicate key {key!r}", line=lineno, key=key)
        seen.add((current, key))
        conv = _SCHEMA[current][key][0]
        try:
            sections[current][key] = conv(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", line=lineno, key=key)

    if "run" not in sections:
        raise ConfigError("missing [run] section")
    command = sections["run"].get("command")
    if command not in _COMMANDS:
        raise ConfigError(f"command must be one of {tuple(_COMMANDS)}, got {command!r}")
    needed_sections = _COMMANDS[command][0]
    for needed in needed_sections:
        if needed not in sections:
            raise ConfigError(f"command {command!r} requires section [{needed}]")

    # apply defaults, reject missing required keys
    full = {}
    for name, schema in _SCHEMA.items():
        if name not in sections and name not in needed_sections:
            continue
        got = sections.get(name, {})
        full[name] = {}
        for key, (_, default) in schema.items():
            if key in got:
                full[name][key] = got[key]
            elif default is _REQUIRED:
                raise ConfigError(f"section [{name}] is missing required key {key!r}")
            else:
                full[name][key] = default if name in needed_sections else None
    _check_run_values(command, full, sections["run"])
    if command not in _BLOCKED:
        full["run"]["blocks"] = None  # echoed as null, like the keys of an unused section
    return RunConfig(full)


def _check_run_values(command, full, given):
    """Reject values that would fail only after sampling, or do nothing.

    full holds every key of every section, given only the [run] keys the
    config text sets.  Each key is checked only where the command uses it,
    and the dataclass of each section the command needs is built here.
    """
    run, needed = full["run"], _COMMANDS[command][0]
    if "blocks" in given and command not in _BLOCKED:
        raise ConfigError(f"blocks applies to the commands {_BLOCKED} only; "
                          f"command {command!r} ignores it", key="blocks")
    method = run["method"] if command in _METHODS else command
    if command in _METHODS and method not in _METHODS[command]:
        raise ConfigError(f"method for command {command!r} must be one of "
                          f"{_METHODS[command]}, got {method!r}")
    config = RunConfig(full)
    a_obs, _ = config.observables()  # a bad label exits 2 for every command
    if method == "cmd":
        if a_obs not in CMD_OBSERVABLES:
            allowed = tuple(obs.label for obs in CMD_OBSERVABLES)
            raise ConfigError(f"centroid dynamics needs a linear A, one of {allowed}, "
                              f"got {run['a']!r}")
        if run["table_nodes"] < 2 or not -np.inf < run["table_min"] < run["table_max"] < np.inf:
            raise ConfigError("table_nodes must be >= 2 and table_min < table_max, both finite")
    blocks = run["blocks"] if command in _BLOCKED else N_BLOCKS
    if blocks < 2:
        raise ConfigError("blocks must be >= 2", key="blocks")
    if "sampler" in needed and full["sampler"]["n_samples"] < 2 * blocks:
        raise ConfigError(f"n_samples must be >= 2 * blocks = {2 * blocks}", key="n_samples")
    for name in ("model", "thermo", "sampler", "integrator"):
        if name in needed:
            getattr(config, name)()  # a bad section exits 2 here, before any run
    if "oracle" in needed:
        grid, n_retained = config.grid()
        if not 1 <= n_retained <= grid.n_points:
            raise ConfigError("n_retained must be in [1, n_points]", key="n_retained")
    if command == "convergence" and not (run["n_values"] and min(run["n_values"]) >= 1):
        raise ConfigError("n_values must list one or more bead counts >= 1", key="n_values")


# ----------------------------------------------------------------------
# command implementations: compute everything, return (filename, writer) pairs

def _oracle_series(config):
    """The exact correlator on the integrator's times."""
    model, thermo = config.model(), config.thermo()
    a_obs, b_obs = config.observables()
    grid, n_retained = config.grid()
    eig = diagonalize(model, grid, n_retained, hbar=thermo.hbar)
    return exact_kubo_correlator(eig, a_obs, b_obs, thermo.beta, config.integrator().times())


def _method_series(config, method):
    """The correlator of method rpmd, cmd or oracle, and its own artifacts.

    Run as its own command, rpmd adds trajectory.csv (with dump_trajectory)
    and cmd adds force_table.csv; run as the method of compare or spectrum,
    neither does.
    """
    if method == "oracle":
        return _oracle_series(config), []
    run = config.sections["run"]
    model, thermo = config.model(), config.thermo()
    scfg, icfg = config.sampler(), config.integrator()
    a_obs, b_obs = config.observables()
    own = method == config.command
    if method == "cmd":
        check_accuracy(icfg, model)  # before the force table is sampled
        grid = np.linspace(run["table_min"], run["table_max"], run["table_nodes"])
        table = build_centroid_force_table(model, thermo, scfg, grid)
        series = cmd_kubo_correlator(model, thermo, table, scfg, icfg, a_obs, b_obs)
        extra = [("force_table.csv", lambda p: io.write_table_csv(
            p, ["q_c", "force", "std_error"], [table.grid, table.force, table.std_errors]))]
    else:
        x0, p0 = rpmd_initial_conditions(model, thermo, scfg, icfg)
        series = rpmd_kubo_correlator(model, thermo, scfg, icfg, a_obs, b_obs, initial=(x0, p0))
        extra = []
        if own and run["dump_trajectory"]:
            extra = [("trajectory.csv",
                      _trajectory_writer(model, thermo, icfg, b_obs, x0[0], p0[0]))]
    return series, extra if own else []


def _trajectory_writer(model, thermo, integrator_cfg, b_obs, x, p):
    """Propagate the first correlator trajectory, the ring (x, p), now; the writer only writes."""
    record = [OBS_Q, OBS_P] + ([b_obs] if b_obs.label not in ("q", "p") else [])
    times, rec = rpmd_trajectory(x, p, model, thermo, integrator_cfg, record)
    return lambda path: io.write_table_csv(
        path, ["t", "x0", "p0"] + [o.label for o in record[2:]],
        [times] + [rec[o.label] for o in record])


def _static(config, stats):
    run = config.sections["run"]
    model, thermo, scfg = config.model(), config.thermo(), config.sampler()
    a_obs, _ = config.observables()
    # only the dump holds the rings; <p> needs only the exact momentum draw
    ens = sample_ring_positions(model, thermo, scfg) if run["dump_ensemble"] else None
    if ens is None or a_obs.kind == MOMENTUM:
        mean, se = sample_static_average(a_obs, model, thermo, scfg, run["blocks"])
    else:
        mean, se = static_average(a_obs, ens, model, thermo, run["blocks"])
    stats["mean"], stats["std_error"] = mean, se
    series = CorrelationSeries([0.0], [mean], [se])
    artifacts = [("results.csv", lambda p: io.write_series_csv(p, series))]
    if run["dump_ensemble"]:
        artifacts.append(("ensemble.csv", lambda p: io.write_ensemble_csv(p, ens)))
    return artifacts


def _correlator(config, stats):
    series, artifacts = _method_series(config, config.command)
    return artifacts + [("results.csv", lambda p: io.write_series_csv(p, series))]


def _compare(config, stats):
    oracle_series = _oracle_series(config)  # first: a grid fault exits 2 before any sampling
    series, _ = _method_series(config, config.sections["run"]["method"])
    diff = series.values - oracle_series.values
    combined = np.sqrt(series.std_errors**2 + oracle_series.std_errors**2)
    ratio = np.abs(diff) / np.maximum(combined, 1e-300)
    stats["max_abs_diff"] = float(np.abs(diff).max())
    stats["max_diff_over_se"] = float(ratio.max())
    return [("results.csv", lambda p: io.write_series_csv(p, series)),
            ("diff.csv", lambda p: io.write_table_csv(
                p, ["t", "method_value", "oracle_value", "diff", "combined_se"],
                [series.times, series.values, oracle_series.values, diff, combined]))]


def _spectrum(config, stats):
    series, _ = _method_series(config, config.sections["run"]["method"])
    omega, intensity = spectrum(series)
    # the t column of results.csv holds the angular frequency
    spec_series = CorrelationSeries(omega, intensity, np.zeros_like(intensity))
    return [("correlator.csv", lambda p: io.write_series_csv(p, series)),
            ("results.csv", lambda p: io.write_series_csv(p, spec_series))]


def _convergence(config, stats):
    run = config.sections["run"]
    model, base_thermo, scfg = config.model(), config.thermo(), config.sampler()
    grid, n_retained = config.grid()
    eig = diagonalize(model, grid, n_retained, hbar=base_thermo.hbar)
    exact = thermal_average(eig, OBS_Q2.f, base_thermo.beta)
    rows_n, rows_v, rows_e = [], [], []
    for n_beads in run["n_values"]:
        thermo = ThermoParams(base_thermo.beta, n_beads, base_thermo.hbar)
        mean, se = sample_static_average(OBS_Q2, model, thermo, scfg, run["blocks"])
        rows_n.append(float(n_beads))
        rows_v.append(mean)
        rows_e.append(se)
    errors = [abs(v - exact) for v in rows_v]
    stats["exact"] = exact
    stats["errors"] = errors
    if len(errors) >= 2 and errors[-1] > 0:
        stats["error_ratio_first_last"] = errors[0] / errors[-1]
    return [("results.csv", lambda p: io.write_table_csv(
        p, ["n_beads", "mean_square", "std_error"], [rows_n, rows_v, rows_e]))]


# command -> (sections it needs, fn(config, stats) -> [(filename, writer)])
_COMMANDS = {
    "static": (("model", "thermo", "sampler", "run"), _static),
    "rpmd": (("model", "thermo", "sampler", "integrator", "run"), _correlator),
    "cmd": (("model", "thermo", "sampler", "integrator", "run"), _correlator),
    "oracle": (("model", "thermo", "oracle", "integrator", "run"), _correlator),
    "compare": (("model", "thermo", "sampler", "integrator", "oracle", "run"), _compare),
    "spectrum": (("model", "thermo", "sampler", "integrator", "oracle", "run"), _spectrum),
    "convergence": (("model", "thermo", "sampler", "oracle", "run"), _convergence),
}


def _peak_rss_mb():
    """Peak resident set size of this process so far, in MB (2^20 bytes)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024  # bytes there, KiB on Linux


def run(config):
    """Execute a parsed RunConfig; returns the exit status."""
    t_start = time.time()
    try:
        threads = resolve_workers()  # a bad PIMD_KUBO_THREADS exits 2 here, before any sampler
        with warnings.catch_warnings(record=True) as wlist:
            warnings.simplefilter("always")
            stats = {}
            artifacts = _COMMANDS[config.command][1](config, stats)
        counts = {}  # message -> count, in first-seen order
        for message in (str(w.message) for w in wlist):
            counts[message] = counts.get(message, 0) + 1
        os.makedirs(config.output_dir, exist_ok=True)
        # the whole set is written beside output_dir first, so a failing
        # writer leaves no new file in output_dir
        parent = os.path.dirname(os.path.abspath(config.output_dir))
        with tempfile.TemporaryDirectory(dir=parent, prefix=".pimd-kubo-") as staging:
            for name, writer in artifacts:
                writer(os.path.join(staging, name))
            meta = {
                "command": config.command,
                "seed": config.seed,
                "config": config.sections,
                "package_version": __version__,
                "numpy_version": np.__version__,
                "wall_time_s": round(time.time() - t_start, 3),
                "peak_rss_mb": _peak_rss_mb(),
                "threads": threads,
                "warnings": [{"message": m, "count": n} for m, n in counts.items()],
                "artifacts": sorted(name for name, _ in artifacts),
                "stats": stats,
            }
            io.write_meta_json(os.path.join(staging, "meta.json"), meta)
            for name in os.listdir(staging):
                os.replace(os.path.join(staging, name), os.path.join(config.output_dir, name))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures, writing included, map to exit code 3
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pimd-kubo",
        description="Run a correlation-function batch job from a config file.")
    parser.add_argument("config", help="path to the run configuration file")
    parser.add_argument("--output-dir", help="override output_dir from the config")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
        config = parse_config(text)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if args.output_dir:
        config.sections["run"]["output_dir"] = args.output_dir
    status = run(config)
    if status == 0 and not args.quiet:
        print(f"{config.command}: artifacts written to {config.output_dir}")
    return status


if __name__ == "__main__":
    sys.exit(main())
