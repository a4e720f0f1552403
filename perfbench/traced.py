"""Run `pimd-kubo <config>` in this process with spans around each layer.

Usage: python3 traced.py <src dir> <config> <spans json>

The layers' entry points are wrapped at the module attributes where the
runner, estimators, dynamics and io callers look them up, so the program
itself is unchanged.  After the CLI returns, the free sampler's ensembles
are analysed for walker-chain ESS; that analysis has its own span
(`trace.analysis`) so it shows as trace overhead, not as a program layer.
"""

import sys
import time

_IMPORT_START = (time.monotonic(), time.process_time())

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402

import numpy as np  # noqa: E402

from chainstats import chain_tau  # noqa: E402
from spans import Tracer  # noqa: E402


def _free_sweeps(cfg):
    walkers = min(cfg.n_walkers, cfg.n_samples)
    rounds = -(-cfg.n_samples // walkers)
    return walkers, rounds, cfg.burn_in + rounds * cfg.decorrelation_stride


def _first_internal_mode(x):
    """Amplitude of the k=1 cosine normal mode, sqrt(2/N) sum_j x_j cos(2 pi j / N)."""
    n = x.shape[1]
    return x @ (math.sqrt(2.0 / n) * np.cos(2.0 * np.pi * np.arange(n) / n))


def _sampler_efficiency(captured):
    """Walker-chain tau of q^2, a_1 and a_1^2 for each free-sampler call."""
    calls = []
    for model, thermo, cfg, x in captured:
        _, rounds, _ = _free_sweeps(cfg)
        a1 = _first_internal_mode(x)
        taus = {"q2": chain_tau((x * x).mean(axis=1), rounds),
                "a1": chain_tau(a1, rounds),
                "a1_sq": chain_tau(a1 * a1, rounds)}
        slow = max(taus, key=taus.get)
        n = thermo.n_beads
        w1 = 2.0 * thermo.omega_n * math.sin(math.pi / n)
        v2 = model.poly_coefficients()[0]
        gaussian_a1_sq = n / (thermo.beta * (model.mass * w1 * w1 + 2.0 * v2))
        calls.append({"rows": int(x.shape[0]), "chain_length": rounds, "tau": taus,
                      "slowest": slow, "ess": x.shape[0] / taus[slow],
                      "a1_sq_mean": float(np.mean(a1 * a1)),
                      "a1_sq_gaussian": gaussian_a1_sq,
                      "harmonic": model.kind == "harmonic"})
    return calls


def main(src, config, spans_path):
    tracer = Tracer()
    # numpy is imported above; the CLI pays for it inside its own import
    span = {"id": 0, "name": "runner.import", "parent": None,
            "start": _IMPORT_START[0], "cpu_start": _IMPORT_START[1]}
    sys.path.insert(0, src)
    import pimd_kubo.dynamics as dynamics
    import pimd_kubo.estimators as estimators
    import pimd_kubo.io as io
    import pimd_kubo.runner as runner
    from pimd_kubo.sampler import resolve_workers
    span["cpu_end"], span["end"] = time.process_time(), time.monotonic()
    tracer.spans.append(span)

    captured = []

    def free_done(span, a, result):
        walkers, _, sweeps = _free_sweeps(a["cfg"])
        span["work"] = {"bead_moves": walkers * a["thermo"].n_beads * sweeps}
        captured.append((a["model"], a["thermo"], a["cfg"], result))

    def constrained_done(span, a, result):
        walkers, _, sweeps = _free_sweeps(a["cfg"])
        span["work"] = {"mode_moves": walkers * (a["thermo"].n_beads - 1) * sweeps}

    def rpmd_done(span, a, result):
        span["work"] = {"bead_steps": a["sampler_cfg"].n_samples * a["integrator_cfg"].n_steps
                        * a["thermo"].n_beads}

    def cmd_done(span, a, result):
        span["work"] = {"traj_steps": a["sampler_cfg"].n_samples * a["integrator_cfg"].n_steps}

    def write_done(span, a, result):
        span["work"] = {"bytes": os.path.getsize(a["path"])}

    free = tracer.wrap("sampler.free", runner.sample_ring_positions, free_done)
    runner.sample_ring_positions = free
    estimators.sample_ring_positions = free
    dynamics.sample_ring_positions_constrained = tracer.wrap(
        "sampler.constrained", dynamics.sample_ring_positions_constrained, constrained_done)
    runner.parse_config = tracer.wrap("runner.parse", runner.parse_config)
    runner.rpmd_kubo_correlator = tracer.wrap(
        "dynamics.rpmd", runner.rpmd_kubo_correlator, rpmd_done)
    runner.cmd_kubo_correlator = tracer.wrap(
        "dynamics.cmd", runner.cmd_kubo_correlator, cmd_done)
    runner.build_centroid_force_table = tracer.wrap(
        "dynamics.force_table", runner.build_centroid_force_table)
    runner.rpmd_trajectory = tracer.wrap("dynamics.rpmd_trajectory", runner.rpmd_trajectory)
    runner.diagonalize = tracer.wrap("oracle.diagonalize", runner.diagonalize)
    runner.exact_kubo_correlator = tracer.wrap(
        "oracle.spectral_sum", runner.exact_kubo_correlator)
    for name in ("write_series_csv", "write_table_csv", "write_ensemble_csv",
                 "write_meta_json"):
        setattr(io, name, tracer.wrap("io.write", getattr(io, name), write_done))

    status = tracer.wrap("runner", runner.main)([config, "--quiet"])

    sampler = tracer.wrap("trace.analysis", _sampler_efficiency)(captured)
    with open(spans_path, "w") as fh:
        json.dump({"status": status, "workers": resolve_workers(),
                   "spans": tracer.spans, "sampler_free": sampler}, fh, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
