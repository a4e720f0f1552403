"""Equilibrium sampling of the ring-polymer position distribution.

The target density is R(x) (see ringpoly.log_ring_density), or, for the
CMD constrained ensemble, R(x) with the centroid pinned at each node q_c
of a 1-D grid.  Every proposal is an exact draw from a Gaussian reference
q: the free ring polymer plus the harmonic well kappa (x_j - c)^2 / 2 on
each bead.  In normal modes the reference is diagonal, mode k with
variance N / (beta (m w_k^2 + kappa)).  For the free ensemble every mode
is drawn; for a constrained node c = q_c, mode 0 stays pinned at
sqrt(N) q_c, and only the internal modes are drawn.  What the reference
leaves out of the ring exponent is Phi(x) = (beta/N) sum_j g(x_j - c), with
g(y) = V(c + y) - kappa y^2 / 2.  Momentum marginals are exact Gaussians
and are drawn directly.

Each node takes one of two paths through one accept step, which keeps a
proposal of Phi_new when u < exp(min(ref - Phi_new, 0)):
- rejection (von Neumann).  Phi has a floor beta B known before any draw
  (_reference: B = min g for a free ring, conv g(0) for a pinned one, whose
  y_j sum to 0), and ref is beta B less a rounding margin (_MARGIN).  Each
  proposal is then kept with probability exp(-(Phi - beta B)) <= 1, so
  every kept proposal is an exact draw of the target, independent of every
  other: no burn-in, no stride, no walker chains (the sup pi/q bound of
  Mengersen & Tweedie, Ann. Stat. 24, 101 (1996)).  The acceptance is at
  least Jensen's bound exp(-beta (E_q[g] - B)), a closed form in Gaussian
  moments, and kappa is the one that maximises it, per node.
- the fallback chain: independence Metropolis (the rho = 0 case of
  preconditioned Crank-Nicolson; Cotter et al., Stat. Sci. 28, 424 (2013))
  with ref the current state's Phi, at the self-consistent curvature
  kappa_sc, with the config's burn_in, decorrelation_stride and n_walkers.
A node takes the rejection path when its bound is at least
_REJECTION_BOUND = 0.05: a chain at the default burn_in and stride pays 20
proposals per kept row (below), and rejection pays 1/acceptance, at most
1/bound, so from 0.05 up it is no dearer, and its rows are exact.  At the
benchmark points every free ring and every cmd-compare node (bounds
0.10-1) is a rejection node; the stiff quartic at |q_c| >= 1 (beta = 8,
N = 32, bounds 0.048 and below) and rings deep in the quantum regime fall
back.  On a harmonic well the reference is the target itself, free or
pinned (kappa = 2 v2, bound 1), so every proposal is kept, up to the
margin.  Any c and kappa > 0 give a correct sampler of either path; no step
size is adapted.  A well with a second minimum (9 v3^2 > 32 v2 v4) raises
UnsupportedModel: rings that reach into both minima carry weight that the
proposals miss.

All randomness comes from the run seed's counter-based streams, one per
node and group (_streams holds the key layout; a free call is node 0), so
a node's rows do not depend on the other nodes.  A free call and
draw_momenta give the initial rings that RPMD, CMD (as their centroids)
and the harmonic CAQ reference all start from at one seed.  A group's
stream gives, per round of proposals, the proposals' normals followed by
one uniform per proposal; a chain's walker group first draws its first
states' normals.  A constrained call's nodes share each proposal's numpy
dispatch: a job advances a stack of nodes as one array, drawing node by
node from each node's streams and running every other step once over the
stack.  Each row still goes through the same elementwise ufuncs, row-wise
irfft and row sum as alone, so the stacking changes no bit.  So the output
is a pure function of (config, seed) however the nodes are stacked and the
jobs scheduled across threads, and a longer run reproduces every row of a
shorter one.  The acceptance-rate warning is decided per fallback node, in
the calling thread, where a low rate means a sticking chain; on the
rejection path a low rate costs time, not correctness, and its bound is
known before sampling.

A call returns its rows, or with a value function, a row-wise map of a
(..., N) bead array to (...), the value of each row.  Then a rejection job
forms the values of each round's kept rows as it keeps them, and a
fallback job emits its rounds into a batch of whole rounds, at most
_stats.CHUNK_ELEMENTS bead values (one round at least), and writes the
values of each full batch in place of its rows; so the call holds the
(nodes, n_samples) values and one round or batch per job, never the
ensemble.  static and convergence (sample_static_average) and the CMD
force table take values; the RPMD and CMD initial conditions and the
static ensemble dump take rows.  A row-wise value does not depend on the
rows beside it, so the values equal those of the held rows bit for bit.

A rejection node fills groups of _QUOTA rows (the last takes the rest),
each from its own stream, in rounds of _ROUND proposals, and keeps the
accepted proposals in (round, walker) order until the group is full; its
rows run group by group.  A row costs 1/acceptance proposals, plus the
unkept rest of each group's last round: the 17-node cmd-compare force
table (2048 rows a node, acceptance 0.15-0.98) makes about 108k
proposals, 696k with the default chains, and the free rings of the four
benchmark workloads make 1.0-3.5 proposals per row, 12-20 with chains.
The round size and quota are constants, not derived from n_samples or the
threads, so the rows are a pure function of (config, seed); two groups per
2048 rows let a free call use two threads.  A stack holds at most
_GROUP // _ROUND nodes, and a node that has filled its group leaves the
stack, so it does not wait for the stack's slowest node.

A fallback node's walkers each make burn_in proposals and then emit one
row every decorrelation_stride proposals, so it costs walkers x burn_in +
n_samples x stride proposals (n_samples rounded up to whole rounds of
walkers): with the defaults, 41k for 2048 rows, of which 80 % are
burn-in, 20 proposals per kept row.  Few walkers are enough because rows
of one walker sit 4 proposals apart; and rows are walker-major, so each of
the N_BLOCKS error blocks holds whole walker chains and the block standard
error still covers what autocorrelation is left.  Below about 128 rows in
a stack the fixed numpy cost of each lockstep proposal outweighs the
burn-in saved.  The default is a constant and not derived from n_samples.
"""

import math
import os
import pickle
import signal
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from . import _streams
from ._stats import N_BLOCKS, block_standard_error, row_chunks
from .errors import ConfigError, NonErgodicWarning, UnsupportedModel
from .model import horner, potential_fn, require_integers
from .ringpoly import MOMENTUM, free_rp_frequencies

_GROUP = 2048            # most walkers per fallback group and rows per stack (not per thread)
_ROUND = 512             # proposals per node and round of a rejection group
_QUOTA = 1024            # rows per rejection group (fixed, not per thread)
_REJECTION_BOUND = 0.05  # least acceptance bound of a rejection node (module docstring)
# the rejection floor is beta B less _MARGIN (1 + |beta B|): far above the
# rounding of Phi and of B (about 1e-15 of their terms), far below any
# change of the acceptance (a factor exp(-margin))
_MARGIN = 1e-9
_KAPPA_STEPS = 32        # kappa search points per octave
# Gauss-Legendre nodes of the conditional centroid integral: against 201 nodes,
# 96 moved no row's E[q_c^2 | u] by more than 9e-16 relative on six wells
# (quartic, mildly anharmonic with c3 = 0.1 and c4 = 0.01 or 0.05, beta 1-8,
# N 4-64) at under half the cost; 64 lost digits on the c3 wells (to 6.5e-11)
_CENTROID_NODES = 96
# os.fork's DeprecationWarning (Python >= 3.12) in a process with threads
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks"


@dataclass(frozen=True)
class SamplerConfig:
    """burn_in, decorrelation_stride and n_walkers govern fallback nodes only.

    A node whose acceptance bound is at least 0.05 (the module docstring)
    is sampled by rejection: it makes no burn-in and no stride, and its rows
    do not depend on these keys.  One fallback node costs n_walkers x
    burn_in + n_samples x decorrelation_stride proposals (when n_walkers <=
    n_samples).  The module docstring gives the reason for 128 walkers.
    """

    n_samples: int
    seed: int
    burn_in: int = 256
    decorrelation_stride: int = 4
    n_walkers: int = 128

    def __post_init__(self):
        require_integers(self, "n_samples", "seed", "burn_in", "decorrelation_stride", "n_walkers")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be in [0, 2^64)")
        if self.n_samples < 1:
            raise ValueError("n_samples must be > 0")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.decorrelation_stride < 1:
            raise ValueError("decorrelation_stride must be > 0")
        if self.n_walkers < 1:
            raise ValueError("n_walkers must be > 0")


def resolve_workers():
    """Worker count, of threads or worker processes: PIMD_KUBO_THREADS, else the cpu count.

    A set value that is not a positive integer raises ConfigError.
    """
    env = os.environ.get("PIMD_KUBO_THREADS", "").strip()
    if not env:
        return os.cpu_count() or 1
    if not (env.isdecimal() and int(env) >= 1):
        raise ConfigError(f"PIMD_KUBO_THREADS must be a positive integer, got {env!r}")
    return int(env)


def _layout(cfg):
    walkers = min(cfg.n_walkers, cfg.n_samples)
    rounds = -(-cfg.n_samples // walkers)
    groups = [(g, min(_GROUP, walkers - g * _GROUP)) for g in range(-(-walkers // _GROUP))]
    return walkers, rounds, groups


def map_in_order(fn, items, consume, workers):
    """Call consume(fn(item)) for every item, in item order, in this thread.

    fn runs on `workers` threads (on this one when workers is 1).  items is
    iterated in this thread, and an item is taken only while fewer than
    `workers` are in flight (the oldest result is consumed and dropped
    first), so at most `workers` items and results are alive at once.
    """
    if workers <= 1:
        for item in items:
            consume(fn(item))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) == workers:
                consume(pending.popleft().result())
        while pending:
            consume(pending.popleft().result())


def map_in_processes(fn, items, consume, workers):
    """map_in_order's contract, with fn run in forked worker processes.

    consume(fn(item)) runs for every item, in item order, in this thread.
    With workers <= 1, or one item, it runs inline and forks nothing.
    Otherwise w = min(workers, len(items)) children are forked by os.fork,
    and item i runs in child i mod w, which pickles each result into its
    own pipe and blocks there until this process reads it; so at most w
    results are in flight, beside what a pipe buffers (64 KiB on Linux).  A
    child leaves by os._exit.  Fork, because jobs are closures over this
    process's arrays: a ProcessPoolExecutor needs picklable callables and a
    manager thread, and spawn or forkserver would import numpy again in
    every worker.  So fn runs off the interpreter lock of this process,
    which threads running many short numpy calls contend for.

    A child records every warning fn issues, and this process re-issues
    them by warnings.warn_explicit, under its own filters, before it
    consumes that item: under an "always" filter (runner.run's), the counts
    are those of an inline run.  An exception in fn is raised here with its
    type and message (a RuntimeError with its repr if it does not pickle).
    On any exception here, KeyboardInterrupt included, the children still
    running are killed, and every child is reaped before the call ends.
    From Python 3.12 os.fork warns DeprecationWarning in a process with
    threads, which OpenBLAS's idle pool makes; that warning is ignored
    around the fork because a child runs no BLAS routine, whose pool
    threads the fork does not copy.
    """
    items = list(items)
    w = min(workers, len(items))
    if w <= 1:
        for item in items:
            consume(fn(item))
        return
    pids, pipes = [], []  # pipes[k]: the read end of child k's pipe
    try:
        for k in range(w):
            read, write = os.pipe()
            pipes.append(os.fdopen(read, "rb"))
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    _serve(fn, items[k::w], write, pipes)
            finally:
                os.close(write)
            pids.append(pid)
        for i in range(len(items)):
            try:
                ok, value, caught = pickle.load(pipes[i % w])
            except EOFError:
                raise RuntimeError(f"worker process {pids[i % w]} ended without a result") from None
            for category, message, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno)
            if not ok:
                raise value
            consume(value)
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # not yet reaped, so still ours even if it has ended
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _serve(fn, items, write, pipes):
    """The body of a map_in_processes child: send each item's result into write, then _exit."""
    try:
        for pipe in pipes:
            pipe.close()
        with os.fdopen(write, "wb") as pipe:
            for item in items:
                ok, data = _forward(fn, item)
                pipe.write(data)
                pipe.flush()
                if not ok:
                    break
    finally:
        os._exit(0)


def _forward(fn, item):
    """Pickled (ok, fn(item) or its exception, warnings) for map_in_processes.

    Runs in a worker process.  Every warning fn issues is recorded as
    (category, message, filename, lineno).  A result that does not pickle,
    or an exception that does not survive a pickle round trip, is sent as a
    RuntimeError with the repr of the pickling error or of the exception.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ok, value = True, fn(item)
        except BaseException as exc:  # handed to the parent, which raises it
            ok, value = False, exc
    caught = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
    try:
        data = pickle.dumps((ok, value, caught))
        if not ok:
            pickle.loads(data)
    except Exception as exc:
        data = pickle.dumps((False, RuntimeError(repr(exc if ok else value)), caught))
        ok = False
    return ok, data


def _reference(model, thermo, q_c):
    """(c, kappa, B, bound, kappa_sc) of each node's Gaussian reference, as arrays over the nodes.

    q_c is None for the free ensemble (one node) or a 1-D array of pinned
    centroids.  With g(y) = V(c + y) - kappa y^2 / 2, Phi = (beta/N) sum_j
    g(y_j), and B is a floor of Phi / beta known before any draw: min g for
    a free ring, and for a pinned ring, whose y_j sum to 0, conv g(0), the
    convex envelope of g at 0.  bound = exp(-beta (E_q[g] - B)) is Jensen's
    lower bound on the acceptance E_q[exp(-(Phi - beta B))] of rejection
    from the reference q; under q each y_j is normal with variance
    s2 = <y_j^2>_ref = sum_k 1 / (beta (m w_k^2 + kappa)) over the drawn
    modes, so E_q[g] = V(c) + (V''(c) - kappa) s2 / 2 + 3 v4 s2^2.

    c is q_c when pinned.  The free c zeroes the slope of the
    Gibbs-Bogoliubov bound, V'(c) + V'''(c) s2 / 2, where it turns from - to
    +, with s2 taken at kappa_sc(c), the self-consistent fixed point
    kappa_sc = V''(c) + 12 v4 s2(kappa_sc) (clamped at 0 when pinned, where
    the springs keep every internal mode proper).  kappa is the point
    2^(j / _KAPPA_STEPS) of the bracket [s / 64, 2 s], s = max(kappa_sc, 2 v2),
    that maximises bound, searched for all nodes in one array; the
    maximisers at the benchmark points lie at 0.4-0.9 kappa_sc.  A node
    whose bound stays below _REJECTION_BOUND falls back to the Metropolis
    chain, which samples with kappa_sc.  On a harmonic well (v4 = 0, so
    v3 = 0) kappa = kappa_sc = 2 v2 makes g(y) = V(c) + V'(c) y affine:
    B = V(c) (0 when free) and bound = 1, the most there is.

    B is exact up to rounding.  g is the quartic v4 y^4 + b3 y^3 + b2 y^2 +
    b1 y + b0; min g is g at the real roots of the cubic g'(y) = 0 (in
    closed form, _quartic_min).  conv g(0) is max_lambda min_y (g - lambda y):
    where g is convex at 0, lambda = g'(0) and it is g(0) = V(c); else the
    maximising lambda is the slope of the bitangent, g - lambda y - r =
    v4 (y - y1)^2 (y - y2)^2 with y1 + y2 = -b3 / (2 v4) and
    y1 y2 = P = (b2 / v4 - (y1 + y2)^2) / 2, and it is the bitangent's value
    r = V(c) - v4 P^2 at 0 when y1 < 0 < y2, that is when P < 0.
    """
    v2, v3, v4 = model.poly_coefficients()
    beta = thermo.beta
    pinned = q_c is not None
    w2 = model.mass * free_rp_frequencies(thermo)[1 if pinned else 0:] ** 2

    def s2(kappa):  # np.sum's reduction, without its wrapper's cost in the bisections
        return np.add.reduce(1.0 / (beta * (w2 + kappa[..., None])), axis=-1)

    def kappa_sc(c):  # bisection of each node at once
        curv = 2.0 * v2 + 6.0 * v3 * c + 12.0 * v4 * c * c
        if v4 == 0.0:
            return np.maximum(curv, 0.0)

        def excess(kappa):  # increasing in kappa; -inf at 0 when mode 0 is drawn
            return kappa - curv - 12.0 * v4 * s2(kappa)

        lo, hi = np.zeros_like(c), np.maximum(curv, 0.0) + 1.0
        while (grow := excess(hi) < 0.0).any():
            lo, hi = np.where(grow, hi, lo), np.where(grow, 2.0 * hi, hi)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            low = excess(mid) < 0.0
            lo, hi = np.where(low, mid, lo), np.where(low, hi, mid)
        return np.where(excess(np.zeros_like(c)) >= 0.0, 0.0, hi) if pinned else hi

    def slope(c):  # dF/dc / beta
        return (((4.0 * v4 * c + 3.0 * v3) * c + 2.0 * v2) * c
                + (3.0 * v3 + 12.0 * v4 * c) * s2(kappa_sc(np.array([c])))[0])

    c = 0.0
    if pinned:
        c = np.asarray(q_c, dtype=float)
    elif v3 != 0.0:
        lo, hi = -1.0, 1.0
        while slope(lo) >= 0.0:
            lo *= 2.0
        while slope(hi) <= 0.0:
            hi *= 2.0
        for _ in range(64):
            c = 0.5 * (lo + hi)
            lo, hi = (c, hi) if slope(c) < 0.0 else (lo, c)
    c = np.atleast_1d(c)
    chain = kappa_sc(c)
    v_c = potential_fn(model)(c)
    if v4 == 0.0:
        return c, chain, v_c, np.ones_like(c), chain
    # each node's bracket is a row of the one grid of points j, (nodes, points)
    scale = np.maximum(chain, 2.0 * v2)
    lo = np.ceil(_KAPPA_STEPS * np.log2(scale / 64.0))[:, None]
    hi = np.floor(_KAPPA_STEPS * np.log2(2.0 * scale))[:, None]
    j = np.arange(lo.min(), hi.max() + 1.0)
    kappa = 2.0 ** (j / _KAPPA_STEPS)
    s, col, v_c = s2(kappa), c[:, None], v_c[:, None]
    b3 = 4.0 * v4 * col + v3
    b2 = 0.5 * (2.0 * v2 + 6.0 * v3 * col + 12.0 * v4 * col * col - kappa)  # (V''(c) - kappa) / 2
    mean_g = v_c + b2 * s + 3.0 * v4 * s * s
    if pinned:
        half = -0.5 * b3 / v4
        floor = v_c - v4 * np.minimum(0.5 * (b2 / v4 - half * half), 0.0) ** 2
    else:
        floor = _quartic_min(v4, b3, b2, ((4.0 * v4 * col + 3.0 * v3) * col + 2.0 * v2) * col, v_c)
    gap = np.where((j >= lo) & (j <= hi), mean_g - floor, np.inf)
    best = np.argmin(gap, axis=1)
    pick = np.arange(len(c)), best
    return c, kappa[best], floor[pick], np.exp(-beta * gap[pick]), chain


def _quartic_min(a, b, c, d, e):
    """Least value of a y^4 + b y^3 + c y^2 + d y + e over real y (a > 0), elementwise.

    The value at each real root of the cubic 4 a y^3 + 3 b y^2 + 2 c y + d:
    with y = t - b / (4 a) it is t^3 + p t + q = 0, whose one real root
    (Cardano) or three (the trigonometric form) are closed forms.
    """
    shift = 0.25 * b / a
    c1, d1 = 0.5 * c / a, 0.25 * d / a
    p = c1 - 3.0 * shift * shift
    q = (2.0 * shift * shift - c1) * shift + d1
    disc = 0.25 * q * q + (p / 3.0) ** 3
    root = np.sqrt(np.maximum(disc, 0.0))
    one = np.cbrt(-0.5 * q + root) + np.cbrt(-0.5 * q - root)
    neg = np.where(disc > 0.0, -1.0, np.minimum(p, -1e-300))  # p <= 0 wherever disc <= 0
    angle = np.arccos(np.clip(1.5 * q / neg * np.sqrt(-3.0 / neg), -1.0, 1.0)) / 3.0
    three = 2.0 * np.sqrt(-neg / 3.0)[..., None] * np.cos(
        angle[..., None] - (2.0 * np.pi / 3.0) * np.arange(3))
    y = np.where((disc > 0.0)[..., None], one[..., None], three) - shift[..., None]
    return ((((a * y + b[..., None]) * y + c[..., None]) * y + d[..., None]) * y
            + e[..., None]).min(axis=-1)


def _run_group(model, thermo, cfg, stack, groups, value):
    """The groups of a stack of nodes, as a job: by rejection or by the fallback chain.

    stack lists the nodes' (index, q_c, c, kappa, floor): index is the
    node's place in its grid (0 for the free ensemble), q_c is None for the
    free ensemble, else the pinned centroid, c and kappa are the node's
    reference (_reference), and floor is beta B less the rounding margin
    on a rejection node, None on a fallback node; a stack's nodes share
    their path.  groups lists (g, dest) pairs, run in turn: in group g each
    node draws from its own stream (node, g), but every other step of a
    proposal is one ufunc over the stack's (nodes, walkers, N) array, with
    c, kappa and the mode scales broadcast per node.  The accept step is the
    one Metropolis test: a proposal of Phi_new is accepted if
    u < exp(min(ref - Phi_new, 0)), ref the floor on a rejection node and
    the current state's Phi on a fallback node.

    A rejection group proposes rounds of _ROUND walkers per node and emits
    the accepted proposals in (round, walker) order until it has filled
    dest, the stack's (nodes, quota) slice of rows (N beads each) or, with a
    value function (the module docstring), of their values, formed from each
    round's accepted rows; a node that has filled its quota leaves the
    stack.  A fallback job has one group of walkers, which make cfg.burn_in
    proposals each, then emit their states every cfg.decorrelation_stride
    proposals into dest, the stack's (nodes, walkers, rounds) walker-major
    view of its rows (or values, through a batch of whole rounds).

    Allocates the job's buffers, shared by its groups, and returns run(),
    which samples and returns each node's accepted and attempted proposals
    (after burn-in).  The buffers, the batch included, are allocated by the
    thread that builds the job, so a job run on a worker thread does not
    leave them resident in that thread's malloc arena, where no later
    allocation of the calling thread could reuse them.
    """
    n = thermo.n_beads
    pinned = stack[0][1] is not None
    chain = stack[0][4] is None
    c, kappa = np.array([node[2:4] for node in stack]).T[..., None, None]
    half_kappa, beta_n = 0.5 * kappa, thermo.beta / n
    pot = potential_fn(model)
    purpose = _streams.POSITIONS_CONSTRAINED if pinned else _streams.POSITIONS

    def streams(g):
        return [_streams.stream(cfg.seed, purpose, node << 24 | g) for node, *_ in stack]

    shape = (len(stack), groups[0][1].shape[1] if chain else _ROUND)
    # x - c = irfft(spec): the (re, im) parts of wavenumber k are modes of
    # variance sigma_k^2 = N / (beta (m w_k^2 + kappa)) times N / 2 (N for
    # k = 0 and N/2), and columns 2..N of the float view hold every part of
    # the internal modes (the imaginary parts of k = 0 and N/2 stay 0)
    spec = np.zeros(shape + (n // 2 + 1,), dtype=complex)
    parts = spec.view(float)
    k = np.arange(2, n + 1) // 2
    sigma = np.sqrt(n / (thermo.beta * (model.mass * free_rp_frequencies(thermo)[k] ** 2 + kappa)))
    scale = sigma * np.sqrt(np.where(2 * k == n, n, 0.5 * n))
    # mode 0 is drawn for the free ensemble only, whose kappa is > 0
    scale_0 = kappa[..., 0] if pinned else n / np.sqrt(thermo.beta * kappa[..., 0])
    z = np.empty(shape + (n - pinned,))  # mode 0 first when it is drawn
    u, d = np.empty(shape), np.empty(shape)
    y, v = np.empty(shape + (n,)), np.empty(shape + (n,))
    x, phi = np.empty(shape + (n,)), np.empty(shape)
    acc = np.empty(shape, dtype=bool)

    def propose(live, x, phi):
        # into the first len(gens) slots, for the nodes of live; x = c + y,
        # phi = beta_n sum_j (V(x_j) - (half_kappa y_j) y_j)
        gens, c, half_kappa, scale, scale_0 = live
        m = len(gens)
        z_, parts_, y_, v_ = z[:m], parts[:m], y[:m], v[:m]
        for gen, z_node in zip(gens, z_):
            gen.standard_normal(out=z_node)
        np.multiply(z_[..., 1 - pinned:], scale, out=parts_[..., 2:n + 1])
        if not pinned:
            np.multiply(z_[..., 0], scale_0, out=parts_[..., 0])
        np.fft.irfft(spec[:m], n=n, out=y_)
        np.add(y_, c, out=x)
        np.multiply(np.multiply(half_kappa, y_, out=v_), y_, out=y_)  # y holds the spring term now
        np.subtract(pot(x, out=v_), y_, out=v_)
        np.multiply(np.sum(v_, axis=-1, out=phi), beta_n, out=phi)

    def accept(gens, ref, phi_new):
        # acc = u < exp(min(ref - phi_new, 0)) in the first len(gens) slots
        m = len(gens)
        for gen, u_node in zip(gens, u[:m]):
            gen.random(out=u_node)
        np.exp(np.minimum(np.subtract(ref, phi_new, out=d[:m]), 0.0, out=d[:m]), out=d[:m])
        np.less(u[:m], d[:m], out=acc[:m])

    if not chain:
        floor = np.array([node[4] for node in stack])[:, None]

        def run():
            accepted, rounds = (np.zeros(len(stack), dtype=np.int64) for _ in range(2))
            for g, dest in groups:
                gens, quota = streams(g), dest.shape[1]
                filled = np.zeros(len(stack), dtype=np.int64)
                sel = np.arange(len(stack))
                while len(sel):
                    m = len(sel)
                    live = ([gens[i] for i in sel], c[sel], half_kappa[sel], scale[sel],
                            scale_0[sel])
                    propose(live, x[:m], phi[:m])
                    accept(live[0], floor[sel], phi[:m])
                    for slot, i in enumerate(sel):
                        hits = np.flatnonzero(acc[slot])
                        accepted[i] += len(hits)
                        take = hits[:quota - filled[i]]
                        rows = dest[i, filled[i]:filled[i] + len(take)]
                        if value is None:
                            np.take(x[slot], take, axis=0, out=rows)
                        else:
                            rows[...] = value(x[slot, take])
                        filled[i] += len(take)
                    rounds[sel] += 1
                    sel = sel[filled[sel] < quota]
            return accepted, rounds * _ROUND

        return run

    (g, dest), = groups
    gens = streams(g)
    live = (gens, c, half_kappa, scale, scale_0)
    x_new, phi_new = np.empty_like(x), np.empty_like(phi)
    accepted = np.zeros(shape, dtype=np.int64)  # per walker
    rounds = dest.shape[2]
    burn_in, stride = cfg.burn_in, cfg.decorrelation_stride
    # rows are emitted in place, or into the batch (row_chunks' first slice
    # of the rounds is the most whole rounds that fit the budget)
    batch = dest if value is None else np.empty(
        shape + (row_chunks(rounds, x.size)[0].stop, n))

    def run():
        propose(live, x, phi)
        emitted = 0
        for step in range(1, burn_in + rounds * stride + 1):
            propose(live, x_new, phi_new)
            accept(gens, phi, phi_new)
            np.copyto(x, x_new, where=acc[..., None])
            np.copyto(phi, phi_new, where=acc)
            after = step - burn_in
            if after > 0:
                np.add(accepted, acc, out=accepted)
                if after % stride == 0:
                    j = emitted % batch.shape[2]
                    batch[:, :, j] = x
                    if value is not None and (j + 1 == batch.shape[2] or emitted + 1 == rounds):
                        dest[:, :, emitted - j:emitted + 1] = value(batch[:, :, :j + 1])
                    emitted += 1
        return accepted.sum(axis=1), shape[1] * rounds * stride

    return run


def _sample(model, thermo, cfg, nodes, value=None):
    """Run _run_group jobs, one per stack and share of groups, on resolve_workers() threads.

    nodes lists the q_c of each node (None for the free ensemble); their
    references are solved here, at once (_reference).  A node whose bound is
    at least _REJECTION_BOUND is sampled by rejection, in groups of _QUOTA
    rows (the last takes the rest); any other node by the fallback chain, in
    the walker groups of _layout(cfg).  Each run of consecutive nodes of one
    path is split into contiguous, near-equal stacks of at most _GROUP
    walkers, and into at least as many stacks as threads while there are
    nodes to spare.  A fallback job is one stack and one walker group; a
    rejection job runs one stack's groups in turn, split into contiguous
    shares while there are fewer stacks than threads, so a free call, a
    stack of one node, runs on every thread.  Warns once for each fallback
    node whose acceptance rate after burn-in falls below 0.05.  Returns
    shape (len(nodes), n_samples, N), or with value (see _run_group) the
    (len(nodes), n_samples) values of those rows.
    """
    v2, v3, v4 = model.poly_coefficients()
    if 9.0 * v3 * v3 > 32.0 * v2 * v4:
        raise UnsupportedModel("V has a second minimum (9 v3^2 > 32 v2 v4)")
    c, kappa, floor, bound, kappa_sc = _reference(model, thermo,
                                                  None if nodes[0] is None else nodes)
    floor = thermo.beta * floor
    floor -= _MARGIN * (1.0 + np.abs(floor))
    rejection = bound >= _REJECTION_BOUND
    stack = [(i, q_c, c[i], kappa[i], floor[i]) if rejection[i]
             else (i, q_c, c[i], kappa_sc[i], None) for i, q_c in enumerate(nodes)]
    walkers, rounds, groups = _layout(cfg)
    n = cfg.n_samples
    row = (thermo.n_beads,) if value is None else ()
    out = np.empty((len(nodes), walkers * rounds) + row)
    threads = resolve_workers()

    def stacks(k, size):
        count = max(-(-k // (_GROUP // size)), min(threads, k))
        return [slice(s * k // count, (s + 1) * k // count) for s in range(count)]

    jobs, lo = [], 0
    for path, run in groupby(rejection):
        hi = lo + len(list(run))
        if path:
            quotas = [(g, out[lo:hi, start:start + _QUOTA])
                      for g, start in enumerate(range(0, n, _QUOTA))]
            cuts = stacks(hi - lo, _ROUND)
            shares = max(1, min(len(quotas), threads // len(cuts)))
            for s in cuts:
                for t in range(shares):
                    share = quotas[t * len(quotas) // shares:(t + 1) * len(quotas) // shares]
                    jobs.append((lo + s.start, lo + s.stop, [(g, dest[s]) for g, dest in share]))
        else:
            chains = out[lo:hi].reshape((hi - lo, walkers, rounds) + row)
            for g, size in groups:
                dest = chains[:, g * _GROUP:g * _GROUP + size]
                jobs += [(lo + s.start, lo + s.stop, [(g, dest[s])]) for s in stacks(hi - lo, size)]
        lo = hi
    counts = []
    runs = (_run_group(model, thermo, cfg, stack[a:b], job, value) for a, b, job in jobs)
    map_in_order(lambda run: run(), runs, counts.append, threads)
    accepted, attempted = (np.zeros(len(nodes), dtype=np.int64) for _ in range(2))
    for (a, b, _), (acc, att) in zip(jobs, counts):
        accepted[a:b] += acc
        attempted[a:b] += att
    for node, acc, att in zip(stack, accepted, attempted):
        if node[4] is None and acc / att < 0.05:
            warnings.warn(NonErgodicWarning(
                f"post-burn-in acceptance rate {acc / att:.3f} below 0.05"))
    return out[:, :n]


def sample_ring_positions(model, thermo, cfg):
    """Decorrelated configurations targeting R(x), shape (n_samples, N)."""
    return _sample(model, thermo, cfg, [None])[0]


def sample_ring_positions_constrained(model, thermo, cfg, q_c, value=None):
    """Configurations with the position centroid pinned at each node of the 1-D grid q_c.

    Returns shape (nodes, n_samples, N).  Node i samples from the run seed's
    streams at node index i, so its rows depend only on (cfg, i, q_c[i]).
    With value, a row-wise map of a (..., N) bead array to (...), returns
    the (nodes, n_samples) values of those rows instead, each row reduced
    as it is drawn, so no ensemble is held.
    """
    grid = np.asarray(q_c, dtype=float)
    if grid.ndim != 1:
        raise ValueError("q_c must be a 1-D grid of centroids")
    return _sample(model, thermo, cfg, [float(q) for q in grid], value)


# ----------------------------------------------------------------------
# momentum draws (exact Gaussians, never MCMC)

def _momentum_chunks(model, thermo, cfg):
    """The bead momenta of draw_momenta as (rows, block) pairs, in row order.

    rows is each slice of _stats.row_chunks over the n_samples rows, and
    block those rows' momenta, in one buffer that the next block overwrites.
    The blocks come from the one MOMENTA stream in turn; the stream's
    normals do not depend on how many are drawn at once, so the blocks hold
    the rows of one whole draw bit for bit.
    """
    sigma = math.sqrt(model.mass * thermo.n_beads / thermo.beta)
    gen = _streams.stream(cfg.seed, _streams.MOMENTA, 0)
    chunks = row_chunks(cfg.n_samples, thermo.n_beads)
    buf = np.empty((chunks[0].stop, thermo.n_beads))
    for rows in chunks:
        block = buf[:rows.stop - rows.start]
        gen.standard_normal(out=block)
        block *= sigma
        yield rows, block


def draw_momenta(model, thermo, cfg):
    """i.i.d. bead momenta with variance m N / beta, shape (n_samples, N)."""
    p = np.empty((cfg.n_samples, thermo.n_beads))
    for rows, block in _momentum_chunks(model, thermo, cfg):
        p[rows] = block
    return p


# ----------------------------------------------------------------------
# the static estimator

def static_average(obs, rows, model, thermo, blocks=N_BLOCKS):
    """Ensemble mean of a centroid observable, one value per row, and its block standard error.

    rows is an (n_samples, N) bead array: the sampled rings for a position
    observable, the momentum draw for p, whose row value is its bead mean.
    A ring's value integrates its centroid out: with x_j = q_c + u_j it is
    E[(1/N) sum_j f(x_j) | u] under R(x), the bead mean of f averaged over
    the centroid q_c given the ring's internal displacements u.  By the law
    of total expectation the mean is unchanged, and the centroid's
    variance, most of the total at small beta, leaves the Monte Carlo error.
    For q^2 the SE^2 is about half the plain bead mean's for the harmonic
    ring at beta = 8, N = 64, and hundreds to thousands of times smaller at
    beta = 1.

    The bead mean of f = sum_n a_n q^n (a_n from obs.coeffs) is the
    polynomial g(q_c) = sum_k g_k q_c^k, g_k = sum_{n >= k} C(n, k) a_n P_(n-k),
    with P_m the bead mean of u^m (P_0 = 1, P_1 = 0).  Given u, q_c has the
    density exp(-(beta/N) sum_j V(q_c + u_j)), whose exponent is a quartic
    in q_c with coefficients from the power sums of u.  On the harmonic
    well it is a Gaussian of mean 0 and variance 1 / (2 beta_n v2 N), so the
    value is sum_k g_k E[q_c^k] in closed form, and E[q_c | u] = 0 makes
    static q exactly 0 with an SE of 0.  Elsewhere one _CENTROID_NODES-point
    Gauss-Legendre sum on a span widened per row averages g, run by
    model.horner at the nodes.

    The rows are taken in chunks of at most _stats.CHUNK_ELEMENTS elements,
    counting a row as its N beads plus the _CENTROID_NODES nodes, so no
    temporary spans the ensemble and a chunk's bead temporaries stay in
    cache: the harmonic q2 of 131072 rings of 64 beads took about 60 ms so,
    and 100 ms with a row counted as max(N, nodes) elements (2-core
    x86-64, 2 MB L2).  Every step is row-wise (the span loop widens only
    the rows that still need it), so each row's value does not depend on
    the others or on the chunking.  sample_static_average runs the same
    values on rows as they are drawn.
    """
    return _mean_and_error(_static_values(obs, np.asarray(rows, dtype=float), model, thermo),
                           blocks)


def sample_static_average(obs, model, thermo, cfg, blocks=N_BLOCKS):
    """static_average of obs on the rows of sample_ring_positions, or of draw_momenta for p.

    The rows are not held: each sampler job turns every batch of rows it
    emits into their values (_sample's value), and the momenta are drawn in
    the row chunks of draw_momenta and kept as bead means.  The values are
    row-wise, so the result equals static_average of the held rows bit for
    bit.
    """
    def value(x):
        return _static_values(obs, x, model, thermo)

    if obs.kind == MOMENTUM:
        vals = np.empty(cfg.n_samples)
        for rows, block in _momentum_chunks(model, thermo, cfg):
            vals[rows] = value(block)
    else:
        vals = _sample(model, thermo, cfg, [None], value)[0]
    return _mean_and_error(vals, blocks)


def _mean_and_error(vals, blocks):
    return float(vals.mean()), float(block_standard_error(vals, blocks))


@lru_cache(maxsize=1)
def _legendre_rule():
    """Gauss-Legendre nodes and weights on [-1, 1], formed once, not per row chunk."""
    return np.polynomial.legendre.leggauss(_CENTROID_NODES)


def _static_values(obs, x, model, thermo):
    """The value that static_average averages of each ring of the (..., N) bead array x: (...)."""
    if obs.kind == MOMENTUM:
        return obs.centroid(None, x)
    a = [0.0 if c is None else c for c in reversed(obs.coeffs)]  # a[n] multiplies q^n
    a = a[:max((n for n, c in enumerate(a) if c != 0.0), default=0) + 1]
    v2, v3, v4 = model.poly_coefficients()
    shape, n = x.shape[:-1], x.shape[-1]
    x = x.reshape(-1, n)
    beta_n = thermo.beta / n
    gaussian = v3 == 0.0 and v4 == 0.0
    vals = np.empty(len(x))
    for rows in row_chunks(len(x), n + _CENTROID_NODES):
        u = x[rows] - x[rows].mean(axis=1, keepdims=True)
        # power sums s[m] of u as (rows, 1) columns, by running products, up to
        # deg f and (off the harmonic well) the exponent's u^3; u and the
        # product go before the next chunk's u or the quadrature's arrays
        s, prod = {}, u
        for m in range(2, max(len(a), 2 if gaussian else 4)):
            prod = np.multiply(prod, u, out=None if m == 2 else prod)
            s[m] = prod.sum(axis=1, keepdims=True)
        del u, prod
        g = [sum((math.comb(k + m, k) * a[k + m] * (s[m] / n)
                  for m in range(2, len(a) - k) if a[k + m] != 0.0), a[k])
             for k in range(len(a))]
        if gaussian:
            # exponent beta_n v2 (n c^2 + s2): E[c^k] = (k - 1)!! var^(k/2) for even k
            var = 1.0 / (2.0 * beta_n * v2 * n)
            value = sum((g[k] * (math.prod(range(k - 1, 0, -2)) * var ** (k // 2))
                         for k in range(2, len(g), 2)), g[0])
        else:
            # the exponent is beta_n c (((b4 c + b3) c + b2) c + b1); each
            # coefficient is passed as it is, so the add of a zero b3 stays
            cubic = [v4 * n, v3 * n, v2 * n + 6.0 * v4 * s[2], 3.0 * v3 * s[2] + 4.0 * v4 * s[3]]
            # start from the tighter of the quadratic/quartic half-widths, then
            # widen; at the span's ends the exponent rounds as (beta_n cubic) c
            span = np.minimum(np.minimum(np.sqrt(40.0 / np.maximum(beta_n * cubic[2], 1e-300)),
                                         (40.0 / (beta_n * cubic[0])) ** 0.25), 1e6)
            for _ in range(80):
                low = np.minimum(horner(cubic, span) * beta_n * span,
                                 horner(cubic, -span) * beta_n * -span)
                grow = low < 40.0
                if not grow.any():
                    break
                span[grow] *= 1.3
            # the nodes c, the exponent e and g(c) are the only (rows, nodes)
            # arrays: e, rounded as (cubic c) beta_n, becomes the weights
            # wq exp(min e - e), then the products g(c) wgt
            t, wq = _legendre_rule()
            c = np.multiply(span, t)
            e = horner(cubic + [None], c)
            e *= beta_n
            np.exp(np.subtract(e.min(axis=1, keepdims=True), e, out=e), out=e)
            e *= wq
            total = e.sum(axis=1, keepdims=True)
            e *= horner(g[::-1], c)
            value = e.sum(axis=1, keepdims=True) / total
        vals[rows, None] = value
    return vals.reshape(shape)
