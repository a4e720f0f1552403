"""Batch front-end: run configurations in, CSV/JSON artifacts out.

Runs are described by a flat key-value file with sections (grammar in the
README); flags are reserved for paths and verbosity.  Every artifact is a
pure function of (config, seed): rerunning the config echoed in meta.json
reproduces results.csv byte for byte at any worker count.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

import argparse
import json
import sys
import time
import warnings

import numpy as np

from . import __version__, io
from .dynamics import IntegratorConfig, build_centroid_force_table, rpmd_trajectory
from .errors import ConfigError
from .estimators import (cmd_kubo_correlator, rpmd_initial_conditions, rpmd_kubo_correlator,
                         spectrum)
from .model import PotentialModel, ThermoParams
from .oracle import GridSpec, diagonalize, exact_kubo_correlator, thermal_average
from .ringpoly import OBS_P, OBS_Q, RingPolymerState, observable_from_label
from .sampler import (SamplerConfig, estimate_static_average, mean_square_position,
                      sample_ring_positions)
from .series import CorrelationSeries

_COMMANDS = ("static", "rpmd", "cmd", "oracle", "compare", "spectrum", "convergence")

_MODEL_KEYS = {
    "harmonic": {"kind", "mass", "omega"},
    "mildly_anharmonic": {"kind", "mass", "omega", "c3", "c4"},
    "quartic": {"kind", "mass", "a4"},
}

# section -> key -> (converter, default); _REQUIRED means the key must appear
_REQUIRED = object()

def _to_bool(s):
    if s.lower() in ("true", "yes", "1"):
        return True
    if s.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _to_int_list(s):
    return [int(v) for v in s.split(",") if v.strip()]


_SCHEMA = {
    "model": {
        "kind": (str, _REQUIRED),
        "mass": (float, 1.0),
        "omega": (float, 1.0),
        "c3": (float, 0.0),
        "c4": (float, 0.0),
        "a4": (float, 0.0),
    },
    "thermo": {
        "beta": (float, _REQUIRED),
        "n_beads": (int, _REQUIRED),
        "hbar": (float, 1.0),
    },
    "sampler": {
        "n_samples": (int, _REQUIRED),
        "burn_in": (int, 256),
        "decorrelation_stride": (int, 4),
        "move_scale": (float, 0.5),
        "target_acceptance": (float, 0.4),
        "n_walkers": (int, 1024),
    },
    "integrator": {
        "dt": (float, _REQUIRED),
        "n_steps": (int, _REQUIRED),
    },
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
        "momentum_convention": (str, "bead"),
        "method": (str, "rpmd"),
        "window": (str, "hann"),
        "n_values": (_to_int_list, [8, 16]),
        "table_min": (float, -4.0),
        "table_max": (float, 4.0),
        "table_nodes": (int, 33),
        "blocks": (int, 16),
        "dump_ensemble": (_to_bool, False),
        "dump_trajectory": (_to_bool, False),
    },
}

_NEEDED = {
    "static": ("model", "thermo", "sampler", "run"),
    "rpmd": ("model", "thermo", "sampler", "integrator", "run"),
    "cmd": ("model", "thermo", "sampler", "integrator", "run"),
    "oracle": ("model", "thermo", "oracle", "integrator", "run"),
    "compare": ("model", "thermo", "sampler", "integrator", "oracle", "run"),
    "spectrum": ("model", "thermo", "sampler", "integrator", "oracle", "run"),
    "convergence": ("model", "thermo", "sampler", "oracle", "run"),
}


class RunConfig:
    """Typed, validated run configuration."""

    def __init__(self, sections):
        self.sections = sections
        run = sections["run"]
        self.command = run["command"]
        self.seed = run["seed"]
        self.output_dir = run["output_dir"]

    def model(self):
        raw = self.sections["model"]
        kind = raw["kind"]
        if kind not in _MODEL_KEYS:
            raise ConfigError(f"unknown model kind {kind!r}")
        extra = {k for k, v in raw.items() if k not in _MODEL_KEYS[kind] and v is not None}
        if extra:
            raise ConfigError(f"keys {sorted(extra)} not valid for model kind {kind!r}")
        args = {k: v for k, v in raw.items() if v is not None and k != "kind"}
        try:
            return PotentialModel(kind, **args)
        except ValueError as exc:
            raise ConfigError(f"invalid model: {exc}") from exc

    def thermo(self):
        raw = self.sections["thermo"]
        try:
            return ThermoParams(raw["beta"], raw["n_beads"], raw["hbar"])
        except ValueError as exc:
            raise ConfigError(f"invalid thermo: {exc}") from exc

    def sampler(self):
        raw = dict(self.sections["sampler"])
        try:
            return SamplerConfig(seed=self.seed, **raw)
        except ValueError as exc:
            raise ConfigError(f"invalid sampler: {exc}") from exc

    def integrator(self):
        raw = self.sections["integrator"]
        try:
            return IntegratorConfig(raw["dt"], raw["n_steps"])
        except ValueError as exc:
            raise ConfigError(f"invalid integrator: {exc}") from exc

    def grid(self):
        raw = self.sections["oracle"]
        try:
            return GridSpec(raw["q_min"], raw["q_max"], raw["n_points"]), raw["n_retained"]
        except ValueError as exc:
            raise ConfigError(f"invalid oracle grid: {exc}") from exc

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
        raise ConfigError(f"command must be one of {_COMMANDS}, got {command!r}")
    for needed in _NEEDED[command]:
        if needed not in sections:
            raise ConfigError(f"command {command!r} requires section [{needed}]")

    # apply defaults, reject missing required keys
    full = {}
    for name, schema in _SCHEMA.items():
        if name not in sections and name not in _NEEDED[command]:
            continue
        got = sections.get(name, {})
        full[name] = {}
        for key, (_, default) in schema.items():
            if key in got:
                full[name][key] = got[key]
            elif default is _REQUIRED:
                raise ConfigError(f"section [{name}] is missing required key {key!r}")
            else:
                full[name][key] = default if name in _NEEDED[command] else None
    # model keys not set explicitly stay None so kind-specific validation can
    # distinguish "omitted" from "given"
    if "model" in sections:
        for key in _SCHEMA["model"]:
            if key not in sections["model"] and key != "kind":
                full["model"][key] = None
    return RunConfig(full)


# ----------------------------------------------------------------------
# command implementations: compute everything, then write artifacts

def _series_from_run(config, workers):
    model, thermo = config.model(), config.thermo()
    a_obs, b_obs = config.observables()
    method = config.sections["run"]["method"]
    if method == "rpmd":
        return rpmd_kubo_correlator(model, thermo, config.sampler(), config.integrator(),
                                    a_obs, b_obs,
                                    config.sections["run"]["momentum_convention"],
                                    workers=workers)
    if method == "cmd":
        table, _ = _cmd_table(config, workers)
        return cmd_kubo_correlator(model, thermo, table, config.sampler(),
                                   config.integrator(), a_obs, b_obs, workers=workers)
    raise ConfigError(f"method must be rpmd or cmd, got {method!r}")


def _cmd_table(config, workers):
    run = config.sections["run"]
    grid = np.linspace(run["table_min"], run["table_max"], run["table_nodes"])
    table = build_centroid_force_table(config.model(), config.thermo(), config.sampler(),
                                       grid, workers=workers)
    return table, grid


def _oracle_series(config, times):
    model, thermo = config.model(), config.thermo()
    a_obs, b_obs = config.observables()
    grid, n_retained = config.grid()
    eig = diagonalize(model, grid, n_retained, hbar=thermo.hbar)
    return exact_kubo_correlator(eig, a_obs, b_obs, thermo.beta, times)


def _run_command(config, workers, stats):
    """Returns a list of (filename, writer callable)."""
    run = config.sections["run"]
    command = config.command
    artifacts = []

    if command == "static":
        model, thermo = config.model(), config.thermo()
        a_obs, _ = config.observables()
        ens = sample_ring_positions(model, thermo, config.sampler(), workers=workers)
        mean, se = estimate_static_average(a_obs, ens, run["blocks"])
        series = CorrelationSeries([0.0], [mean], [se], {})
        artifacts.append(("results.csv", lambda p: io.write_series_csv(p, series)))
        if run["dump_ensemble"]:
            artifacts.append(("ensemble.csv", lambda p: io.write_ensemble_csv(p, ens)))
        stats["mean"], stats["std_error"] = mean, se

    elif command in ("rpmd", "cmd"):
        if command == "cmd":
            model, thermo = config.model(), config.thermo()
            table, grid = _cmd_table(config, workers)
            a_obs, b_obs = config.observables()
            series = cmd_kubo_correlator(model, thermo, table, config.sampler(),
                                         config.integrator(), a_obs, b_obs, workers=workers)
            artifacts.append(("force_table.csv", lambda p: io.write_table_csv(
                p, ["q_c", "force", "std_error"], [table.grid, table.force, table.std_errors])))
        else:
            model, thermo = config.model(), config.thermo()
            scfg, icfg = config.sampler(), config.integrator()
            a_obs, b_obs = config.observables()
            x0, p0 = rpmd_initial_conditions(model, thermo, scfg, icfg,
                                             run["momentum_convention"], workers)
            series = rpmd_kubo_correlator(model, thermo, scfg, icfg, a_obs, b_obs,
                                          run["momentum_convention"], workers=workers,
                                          initial=(x0, p0))
            if run["dump_trajectory"]:
                artifacts.append(("trajectory.csv", _trajectory_writer(
                    model, thermo, icfg, b_obs, RingPolymerState(x0[0], p0[0]))))
        artifacts.append(("results.csv", lambda p: io.write_series_csv(p, series)))

    elif command == "oracle":
        series = _oracle_series(config, config.integrator().times())
        artifacts.append(("results.csv", lambda p: io.write_series_csv(p, series)))

    elif command == "compare":
        series = _series_from_run(config, workers)
        oracle_series = _oracle_series(config, series.times)
        diff = series.values - oracle_series.values
        combined = np.sqrt(series.std_errors**2 + oracle_series.std_errors**2)
        ratio = np.abs(diff) / np.maximum(combined, 1e-300)
        stats["max_abs_diff"] = float(np.abs(diff).max())
        stats["max_diff_over_se"] = float(ratio.max())
        artifacts.append(("results.csv", lambda p: io.write_series_csv(p, series)))
        artifacts.append(("diff.csv", lambda p: io.write_table_csv(
            p, ["t", "method_value", "oracle_value", "diff", "combined_se"],
            [series.times, series.values, oracle_series.values, diff, combined])))

    elif command == "spectrum":
        method = run["method"]
        if method == "oracle":
            series = _oracle_series(config, config.integrator().times())
        else:
            series = _series_from_run(config, workers)
        omega, intensity = spectrum(series, run["window"])
        spec_series = CorrelationSeries(omega, intensity, np.zeros_like(intensity),
                                        {"note": "t column holds angular frequency"})
        artifacts.append(("correlator.csv", lambda p: io.write_series_csv(p, series)))
        artifacts.append(("results.csv", lambda p: io.write_series_csv(p, spec_series)))

    elif command == "convergence":
        model = config.model()
        base_thermo = config.thermo()
        grid, n_retained = config.grid()
        eig = diagonalize(model, grid, n_retained, hbar=base_thermo.hbar)
        exact = thermal_average(eig, lambda q: q * q, base_thermo.beta)
        rows_n, rows_v, rows_e = [], [], []
        for n_beads in run["n_values"]:
            thermo = ThermoParams(base_thermo.beta, n_beads, base_thermo.hbar)
            ens = sample_ring_positions(model, thermo, config.sampler(), workers=workers)
            mean, se = mean_square_position(ens, model, thermo, conditioned=True,
                                            blocks=run["blocks"])
            rows_n.append(float(n_beads))
            rows_v.append(mean)
            rows_e.append(se)
        errors = [abs(v - exact) for v in rows_v]
        stats["exact"] = exact
        stats["errors"] = errors
        if len(errors) >= 2 and errors[-1] > 0:
            stats["error_ratio_first_last"] = errors[0] / errors[-1]
        artifacts.append(("results.csv", lambda p: io.write_table_csv(
            p, ["n_beads", "mean_square", "std_error"], [rows_n, rows_v, rows_e])))

    return artifacts


def _trajectory_writer(model, thermo, integrator_cfg, b_obs, initial):
    """Propagate the first correlator trajectory now; the writer only writes."""
    record = [OBS_Q, OBS_P] + ([b_obs] if b_obs.label not in ("q", "p") else [])
    times, rec = rpmd_trajectory(initial, model, thermo, integrator_cfg, record)
    return lambda path: io.write_table_csv(
        path, ["t", "x0", "p0"] + [o.label for o in record[2:]],
        [times] + [rec[o.label] for o in record])


def run(config, workers=None):
    """Execute a parsed RunConfig; returns the exit status."""
    import os

    t_start = time.time()
    caught = []
    try:
        with warnings.catch_warnings(record=True) as wlist:
            warnings.simplefilter("always")
            stats = {}
            artifacts = _run_command(config, workers, stats)
        caught = [str(w.message) for w in wlist]
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit code 3
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    out_dir = config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, writer in artifacts:
        path = os.path.join(out_dir, name)
        writer(path)
        written.append(name)
    meta = {
        "command": config.command,
        "seed": config.seed,
        "config": config.sections,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "wall_time_s": round(time.time() - t_start, 3),
        "warnings": caught,
        "artifacts": sorted(written),
        "stats": stats,
    }
    io.write_meta_json(os.path.join(out_dir, "meta.json"), meta)
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
        config.output_dir = args.output_dir
    status = run(config)
    if status == 0 and not args.quiet:
        print(f"{config.command}: artifacts written to {config.output_dir}")
    return status


if __name__ == "__main__":
    sys.exit(main())
