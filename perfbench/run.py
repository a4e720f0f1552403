"""pimd_kubo benchmark: run one workload through the CLI and report metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measured run is one `pimd-kubo <config>` process (the console script's
entry point, `pimd_kubo.runner:main`, with `src/` on PYTHONPATH), started
one at a time from this process.  Thread settings are inherited unchanged.
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a separate traced run.  Full
results, the environment and the traced run's spans are written under
perfbench/out/.  See perfbench/NOTES.md for what each metric means.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import layer_totals
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
BENCH = Path(__file__).resolve().parent

DEADLINE_S = 170.0     # every run ends within 180 s
SETUP_REPEATS = 5
NM_ROWS = 1024

CLI = "import sys; from pimd_kubo.runner import main; sys.exit(main())"
SETUP = ("import sys; from pimd_kubo.runner import parse_config; "
         "parse_config(open(sys.argv[1]).read())")

# Gross-error tolerance on the headline estimate: an invocation fails when
# it is off the reference by more than 25 % AND by more than 6 standard
# errors.  The known deviations (static <q^2> -3.6 to -5 SE at -1.2 %,
# quartic C(0) +3 to +5 SE at +11 to +15 %) stay inside it.
GROSS_REL = 0.25
GROSS_Z = 6.0

LAYERS = ("process.self", "runner.import", "runner.parse", "runner.self",
          "sampler.free", "sampler.constrained", "dynamics.rpmd", "dynamics.cmd",
          "dynamics.force_table", "dynamics.rpmd_trajectory", "oracle.diagonalize",
          "oracle.spectral_sum", "io.write", "trace.analysis")
OUTSIDE_RUNNER = ("process.self", "runner.import", "trace.analysis")
NM_CASES = (("n32", 32, False), ("n128", 128, False), ("matrix_n128", 128, True))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def launch(argv, log_path, timeout):
    """Run argv to its exit; returns (start, wall s, exit code, rusage)."""
    with open(log_path, "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        lock = threading.Lock()
        reaped = []

        def kill():
            with lock:
                if not reaped:
                    proc.kill()

        timer = threading.Timer(max(timeout, 1.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            with lock:
                reaped.append(True)
            timer.cancel()
            timer.join()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, wall, proc.returncode, usage


def environment(seed):
    import numpy as np
    import scipy
    from pimd_kubo.sampler import resolve_workers

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"seed": seed, "nproc": os.cpu_count(), "workers": resolve_workers(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "PIMD_KUBO_THREADS": os.environ.get("PIMD_KUBO_THREADS"),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def reference(cfg):
    """The headline's exact value: analytic finite-N <q^2>, else the oracle C(0)."""
    import numpy as np
    from pimd_kubo.oracle import GridSpec, diagonalize, exact_kubo_correlator

    model, thermo = cfg.model(), cfg.thermo()
    if cfg.command == "static":
        # sum_k 1 / (beta m (omega^2 + omega_k^2)), free ring frequencies omega_k
        n = thermo.n_beads
        wk = 2.0 * thermo.omega_n * np.sin(np.pi * np.arange(n) / n)
        return float(np.sum(1.0 / (thermo.beta * model.mass * (model.omega**2 + wk**2))))
    grid, n_retained = ((GridSpec(-12.0, 12.0, 640), 32) if "oracle" not in cfg.sections
                        else cfg.grid())
    eig = diagonalize(model, grid, n_retained, hbar=thermo.hbar)
    return float(exact_kubo_correlator(eig, *cfg.observables(), thermo.beta, [0.0]).values[0])


def check_artifacts(spec, out_dir):
    """(problem or None, headline (value, se), digest of the CSV artifacts)."""
    digest = hashlib.sha256()
    headline = None
    for name in spec["artifacts"]:
        path = out_dir / name
        if not path.is_file():
            return f"missing {name}", None, None
        data = path.read_bytes()
        digest.update(name.encode() + b"\0" + data)
        lines = data.decode().splitlines()
        for line in lines[1:]:
            try:
                row = [float(v) for v in line.split(",")]
            except ValueError:
                return f"{name}: unparsable row {line!r}", None, None
            if not all(math.isfinite(v) for v in row):
                return f"{name}: non-finite value in {line!r}", None, None
        if name == spec["headline"]:
            if len(lines) < 2:
                return f"{name}: no rows", None, None
            _, value, se = (float(v) for v in lines[1].split(","))
            headline = (value, se)
    meta_path = out_dir / "meta.json"
    if not meta_path.is_file():
        return "missing meta.json", None, None
    stats = json.loads(meta_path.read_text()).get("stats", {})
    for key, val in stats.items():
        vals = val if isinstance(val, list) else [val]
        if not all(math.isfinite(float(v)) for v in vals):
            return f"meta.json: non-finite stats[{key!r}]", None, None
    return None, headline, digest.hexdigest()


class Run:
    """One benchmark run: its workload, seed, invocations and their checks."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.spec = WORKLOADS[name]
        self.base = OUT / f"{name}-seed{seed}"
        self.start = time.monotonic()
        self.attempted = 0
        self.failures = []
        self.digests = set()
        self.invocations = []
        shutil.rmtree(self.base, ignore_errors=True)
        self.base.mkdir(parents=True)
        self.config_text = self.spec["config"].format(seed=seed, out="{out}")
        from pimd_kubo.runner import parse_config

        self.config = parse_config(self.config_text.format(out="unused"))
        self.ref = reference(self.config)

    def time_left(self):
        return DEADLINE_S - (time.monotonic() - self.start)

    def write_config(self, tag):
        work = self.base / tag
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        cfg = work / "run.cfg"
        cfg.write_text(self.config_text.format(out=work / "artifacts"))
        return work, cfg

    def setup_s(self):
        """Median wall time of fresh interpreters importing the runner and parsing."""
        work, cfg = self.write_config("setup")
        walls = []
        for i in range(SETUP_REPEATS):
            _, wall, code, _ = launch([sys.executable, "-c", SETUP, str(cfg)],
                                      work / f"setup{i}.log", self.time_left())
            self.attempted += 1
            if code != 0:
                self.failures.append(f"setup probe {i}: exit {code}")
            walls.append(wall)
        return statistics.median(walls), walls

    def invoke(self, tag, traced=False):
        """One CLI process; records wall, peak RSS and the output checks."""
        work, cfg = self.write_config(tag)
        spans_path = work / "spans.json"
        argv = ([sys.executable, str(BENCH / "traced.py"), str(SRC), str(cfg), str(spans_path)]
                if traced else [sys.executable, "-c", CLI, str(cfg), "--quiet"])
        start, wall, code, usage = launch(argv, work / "cli.log", self.time_left())
        self.attempted += 1
        rec = {"tag": tag, "traced": traced, "start": start, "wall_s": wall, "exit": code,
               "peak_rss_mb": usage.ru_maxrss / 1024.0,
               "cpu_s": usage.ru_utime + usage.ru_stime, "dir": str(work)}
        problem = f"exit {code}" if code != 0 else None
        if problem is None:
            problem, headline, digest = check_artifacts(self.spec, work / "artifacts")
        if problem is None:
            value, se = headline
            rec.update(value=value, std_error=se, ref=self.ref,
                       ref_dev_z=(value - self.ref) / se if se > 0 else math.inf,
                       ref_rel_err=(value - self.ref) / self.ref)
            if abs(rec["ref_rel_err"]) > GROSS_REL and abs(rec["ref_dev_z"]) > GROSS_Z:
                problem = (f"gross error: {value} vs reference {self.ref} "
                           f"({rec['ref_dev_z']:+.1f} SE)")
            self.digests.add(digest)
        if problem is not None:
            self.failures.append(f"{tag}: {problem}")
            rec["problem"] = problem
        self.invocations.append(rec)
        return rec

    def measure(self, seconds):
        """Untraced CLI invocations until `seconds` of them are measured (at least one)."""
        recs = []
        while not recs or (sum(r["wall_s"] for r in recs) < seconds
                           and self.time_left() > 2.5 * recs[-1]["wall_s"]):
            recs.append(self.invoke(f"cli{len(recs)}"))
        return recs

    @property
    def correct(self):
        return not self.failures and len(self.digests) <= 1

    def headline_checks(self):
        ok = [r for r in self.invocations if "ref_dev_z" in r]
        if not ok:
            return {}
        return {k: statistics.median(r[k] for r in ok) for k in ("ref_dev_z", "ref_rel_err")}


def end_to_end(run, seconds):
    setup, setup_walls = run.setup_s()
    recs = run.measure(seconds)
    good = [r for r in recs if "problem" not in r] or recs
    wall = statistics.median(r["wall_s"] for r in good)
    rss = statistics.median(r["peak_rss_mb"] for r in good)
    if run.spec["precision"] == "se":
        precision = [1.0 / (r["std_error"] ** 2 * r["wall_s"]) for r in good
                     if r.get("std_error", 0.0) > 0]
        precision_base = "1 / (SE^2 * wall_s) of <q^2>, SE from one batch per walker chain"
    else:
        n_traj = run.config.sections["sampler"]["n_samples"]
        precision = [n_traj / r["wall_s"] for r in good]
        precision_base = (f"{n_traj} trajectories / wall_s (the CLI's 16-block SE of C(t) "
                          "moves 15-33 % between seeds, too noisy to gate)")
    metrics = {
        "wall_s": (wall, "s", f"median of {len(good)} CLI processes, start to exit"),
        "setup_s": (setup, "s", f"median of {len(setup_walls)} fresh interpreters: "
                                "import pimd_kubo.runner + parse_config"),
        "peak_rss_mb": (rss, "MB", "median peak RSS (ru_maxrss) of the CLI processes"),
        "precision_per_s": (statistics.median(precision) if precision else 0.0, "1/s",
                            precision_base),
    }
    return metrics, {"setup_walls_s": setup_walls}


def nm_transform_ns_per_bead(n, matrix, repeats=7):
    """Forward plus inverse normal-mode transform of a (1024, n) array, ns per bead."""
    import numpy as np
    from pimd_kubo.ringpoly import normal_mode_matrix, normal_mode_transform

    x = np.random.default_rng(n).standard_normal((NM_ROWS, n))
    if matrix:
        c = normal_mode_matrix(n)

        def pair():
            return (x @ c) @ c.T
    else:
        def pair():
            return normal_mode_transform(normal_mode_transform(x, "forward"), "inverse")

    pair()
    loops = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(loops):
            pair()
        if time.perf_counter() - t0 > 0.02:
            break
        loops *= 2
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(loops):
            pair()
        times.append((time.perf_counter() - t0) / loops)
    return statistics.median(times) / (NM_ROWS * n) * 1e9, loops


def per_layer(run, seconds):
    untraced = run.measure(seconds)
    base_wall = statistics.median(r["wall_s"] for r in untraced)
    rec = run.invoke("traced", traced=True)
    spans_path = Path(rec["dir"]) / "spans.json"
    if not spans_path.is_file():
        run.failures.append("traced run wrote no spans")
        trace = {"spans": [], "sampler_free": [], "workers": None}
    else:
        trace = json.loads(spans_path.read_text())
    spans = trace["spans"]
    # the process span covers the traced CLI from launch to exit, as seen here
    root = {"id": len(spans), "name": "process", "parent": None, "start": rec["start"],
            "end": rec["start"] + rec["wall_s"], "cpu_start": 0.0, "cpu_end": rec["cpu_s"]}
    for s in spans:
        if s["parent"] is None:
            s["parent"] = root["id"]
    spans.append(root)
    totals = layer_totals(spans)
    by_id = {s["id"]: s for s in spans}

    def work(layer, key):
        # count each unit once: a writer nested in a writer adds nothing
        return sum(s.get("work", {}).get(key, 0) for s in spans
                   if s["name"] == layer and by_id[s["parent"]]["name"] != layer)

    metrics = {}
    for layer in LAYERS:
        # process.self and runner.self are the self times of the process and runner spans
        t = totals.get(layer.removesuffix(".self"), {"busy_s": 0.0, "cpu_s": 0.0, "calls": 0})
        busy = t["busy_s"]
        metrics[f"{layer}.busy_s"] = (busy, "s", "self time: span duration minus child spans")
        metrics[f"{layer}.calls"] = (t["calls"], "count", "spans recorded")
        metrics[f"{layer}.cpu_util"] = (t["cpu_s"] / busy if busy > 0 else 0.0, "ratio",
                                        f"self process CPU {t['cpu_s']:.3f} s / busy_s")

    def rate(layer, key, name, how):
        busy = totals.get(layer, {}).get("busy_s", 0.0)
        count = work(layer, key)
        metrics[f"{layer}.{name}"] = (count / busy if busy > 0 else 0.0, "1/s",
                                      f"{key} = {how}, total {count} / busy_s {busy:.4f}")

    rate("sampler.free", "bead_moves", "bead_moves_per_s",
         "walkers * N * (burn_in + rounds * stride), ring translations not counted")
    rate("sampler.constrained", "mode_moves", "mode_moves_per_s",
         "walkers * (N - 1) * (burn_in + rounds * stride)")
    rate("dynamics.rpmd", "bead_steps", "bead_steps_per_s", "trajectories * n_steps * N")
    rate("dynamics.cmd", "traj_steps", "traj_steps_per_s", "trajectories * n_steps")
    metrics["io.write.bytes"] = (work("io.write", "bytes"), "bytes", "file sizes after each write")

    calls = trace["sampler_free"]
    free_busy = totals.get("sampler.free", {}).get("busy_s", 0.0)
    ess = sum(c["ess"] for c in calls)
    metrics["sampler.free.ess_per_s"] = (
        ess / free_busy if free_busy > 0 else 0.0, "1/s",
        "rows / tau of the slowest of q^2, a_1, a_1^2, summed over calls, / busy_s")
    metrics["sampler.free.tau_slow"] = (
        max((c["tau"][c["slowest"]] for c in calls), default=0.0), "rows",
        "batch means, one batch per walker chain: "
        + "; ".join(f"{c['rows']} rows in chains of {c['chain_length']}, tau "
                    + ", ".join(f"{k} {v:.3f}" for k, v in c["tau"].items()) for c in calls))
    first = calls[0] if calls else None
    metrics["sampler.free.slow_mode_var_ratio"] = (
        first["a1_sq_mean"] / first["a1_sq_gaussian"] if first else 0.0, "ratio",
        "<a_1^2> / N/(beta (m w_1^2 + 2 v2)): the analytic value on harmonic workloads; "
        "on anharmonic ones the Gaussian of the quadratic part only, so not a bias measure")
    for label, n, matrix in NM_CASES:
        ns, loops = nm_transform_ns_per_bead(n, matrix)
        path = "normal_mode_matrix" if matrix else "normal_mode_transform"
        metrics[f"ringpoly.nm_transform.{label}.ns_per_bead"] = (
            ns, "ns", f"forward + inverse via {path} on ({NM_ROWS}, {n}), "
                      f"median of 7 x {loops} loops, outside the traced run")
    metrics["trace.overhead_s"] = (rec["wall_s"] - base_wall, "s",
                                   f"traced wall {rec['wall_s']:.3f} s - untraced {base_wall:.3f} s")
    checks = run.headline_checks()
    metrics["check.ref_dev_z_abs"] = (abs(checks.get("ref_dev_z", 0.0)), "SE",
                                      "|headline - reference| / headline SE")
    metrics["check.ref_rel_err_abs"] = (abs(checks.get("ref_rel_err", 0.0)), "ratio",
                                        "|headline - reference| / reference")
    # shares of the traced wall, and of runner.main for the layers inside it
    runner_span = sum(s["end"] - s["start"] for s in spans if s["name"] == "runner")
    shares = {}
    for layer in LAYERS:
        busy = metrics[f"{layer}.busy_s"][0]
        if busy > 0:
            shares[layer] = {"of_traced_wall": busy / rec["wall_s"]}
            if layer not in OUTSIDE_RUNNER and runner_span > 0:
                shares[layer]["of_runner_span"] = busy / runner_span
    extra = {"traced_wall_s": rec["wall_s"], "untraced_wall_s": base_wall,
             "self_time_sum_s": sum(t["busy_s"] for t in totals.values()),
             "busy_shares": shares, "workers_in_cli": trace.get("workers"),
             "sampler_free_calls": calls}
    return metrics, extra, spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pimd_kubo" / "runner.py").is_file():
        print(f"error: no pimd_kubo sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(args.workload, args.seed)
    env = environment(args.seed)
    if args.trace:
        metrics, extra, spans = per_layer(run, args.seconds)
        spans_out = OUT / f"{args.workload}-seed{args.seed}-trace1-spans.json"
        spans_out.write_text(json.dumps(spans, indent=1))
    else:
        metrics, extra = end_to_end(run, args.seconds)
    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": len(run.failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    report = {"workload": args.workload, "trace": args.trace, "environment": env,
              "reference": run.ref, "checks": run.headline_checks(),
              "failures": run.failures, "distinct_result_digests": len(run.digests),
              "metrics": {k: {"value": v, "unit": u, "base": b}
                          for k, (v, u, b) in metrics.items()},
              "invocations": run.invocations, **extra}
    results_out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_out.write_text(json.dumps(report, indent=1))

    print("environment: " + json.dumps(env))
    print(f"reference {run.ref:.6g}; checks {json.dumps(run.headline_checks())}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    if len(run.digests) > 1:
        print("FAILED results differ between invocations of the same config and seed")
    for key, (value, unit, base) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}  [{base}]")
    for layer, share in extra.get("busy_shares", {}).items():
        inside = share.get("of_runner_span")
        print(f"  share {layer}: {share['of_traced_wall']:.1%} of traced wall"
              + (f", {inside:.1%} of runner.main" if inside is not None else ""))
    print(f"results: {results_out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
