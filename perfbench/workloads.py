"""Workload definitions: one `pimd-kubo` config per workload.

Each workload fixes a physics point and a run size; only the seed varies
between runs.  The `why` strings are mirrored in BENCHMARK.json.
"""

STATIC_HARMONIC_N64 = """\
[model]
kind = harmonic

[thermo]
beta = 8.0
n_beads = 64

[sampler]
n_samples = 131072
n_walkers = 8192
burn_in = 256

[run]
command = static
seed = {seed}
output_dir = {out}
a = q2
# rows are walker-major and each walker emits 16 rows, so 8192 blocks
# hold one whole walker chain each
blocks = 8192
"""

RPMD_SPECTRUM_ANH_N32 = """\
[model]
kind = mildly_anharmonic
c4 = 0.05

[thermo]
beta = 8.0
n_beads = 32

[sampler]
n_samples = 4096

[integrator]
dt = 0.05
n_steps = 3000

[oracle]

[run]
command = spectrum
method = rpmd
seed = {seed}
output_dir = {out}
a = q2
b = q2
"""

CMD_COMPARE_ANH_N16 = """\
[model]
kind = mildly_anharmonic
c4 = 0.05

[thermo]
beta = 4.0
n_beads = 16

[sampler]
n_samples = 2048

[integrator]
dt = 0.05
n_steps = 500

[oracle]

[run]
command = compare
method = cmd
seed = {seed}
output_dir = {out}
a = q
b = q
table_min = -4.0
table_max = 4.0
table_nodes = 17
"""

RPMD_QUARTIC_N128 = """\
[model]
kind = quartic
a4 = 1.0

[thermo]
beta = 8.0
n_beads = 128

[sampler]
n_samples = 2048

[integrator]
dt = 0.02
n_steps = 1000

[run]
command = rpmd
seed = {seed}
output_dir = {out}
a = q
b = q
dump_trajectory = true
"""

# name -> config template, artifacts the run must leave, the file whose first
# row is the headline estimate C(0) (or <q^2> for static), what
# precision_per_s is built from (see NOTES.md), and `why`.
WORKLOADS = {
    "static-harmonic-n64": {
        "config": STATIC_HARMONIC_N64,
        "artifacts": ("results.csv",),
        "headline": "results.csv",
        "precision": "se",
        "why": "free ring sampler only, all walker groups on all cores; "
               "precision_per_s shows a faster sampler that mixes worse",
    },
    "rpmd-spectrum-anh-n32": {
        "config": RPMD_SPECTRUM_ANH_N32,
        "artifacts": ("correlator.csv", "results.csv"),
        "headline": "correlator.csv",
        "precision": "trajectories",
        "why": "RPMD propagation on the matrix normal-mode path (N<=64) "
               "oversubscribing BLAS threads, plus the free sampler",
    },
    "cmd-compare-anh-n16": {
        "config": CMD_COMPARE_ANH_N16,
        "artifacts": ("results.csv", "diff.csv"),
        "headline": "results.csv",
        "precision": "trajectories",
        "why": "O(N^2) constrained sampler on one core across 17 force-table "
               "nodes; the free sampler and RPMD are barely used",
    },
    "rpmd-quartic-n128": {
        "config": RPMD_QUARTIC_N128,
        "artifacts": ("results.csv", "trajectory.csv"),
        "headline": "results.csv",
        "precision": "trajectories",
        "why": "RPMD on the FFT normal-mode path (N>64) with the quartic "
               "force, and a second free-sampler call from the trajectory dump",
    },
}
