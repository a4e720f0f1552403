"""Equilibrium sampling of the ring-polymer position distribution.

The target density is R(x) (see ringpoly.log_ring_density), or, for the
CMD constrained ensemble, R(x) with the centroid pinned at each node q_c
of a 1-D grid.  Both
ensembles are sampled by one independence Metropolis kernel (the rho = 0
case of preconditioned Crank-Nicolson; Cotter et al., Stat. Sci. 28, 424
(2013)).  Every proposal is an exact draw from a Gaussian reference: the
free ring polymer plus the harmonic well kappa (x_j - c)^2 / 2 on each
bead.  In normal modes the reference is diagonal, mode k with variance
N / (beta (m w_k^2 + kappa)).  For the free ensemble every mode is drawn;
for a constrained node c = q_c, mode 0 stays pinned at sqrt(N) q_c, and
only the internal modes are drawn.  A proposal is accepted with
min(1, exp(-dPhi)), where Phi(x) = (beta/N) sum_j [V(x_j) - kappa (x_j - c)^2 / 2]
is what the reference leaves out of the ring exponent.  Momentum marginals
are exact Gaussians and are drawn directly.

c and kappa come from the model alone (_reference).  kappa is the
self-consistent harmonic fixed point kappa = V''(c) + 12 v4 <u^2>_ref(kappa),
u = x_j - c, clamped at 0 for the constrained ensemble, whose springs keep
every internal mode proper.  The free ensemble's c minimises the
Gibbs-Bogoliubov bound on the ring's free energy over this family of
Gaussians (c = 0 for an even V).  Any c and kappa > 0 give a correct
sampler; these make it accept often.  For the harmonic well every proposal
is accepted and every row is an independent draw.  No step size is
adapted.  A well with a second minimum (9 v3^2 > 32 v2 v4) raises
UnsupportedModel: rings that reach into both minima carry weight that the
proposals miss.

On the free ensemble of a well with v3 = v4 = 0 every proposal is
accepted bit for bit, so the kernel takes an exact path that makes no test.  There c = 0.0 and
kappa = 2 v2 exactly, so half_kappa = v2; x_j = y_j + 0.0 differs from y_j
at most in the sign of a zero; and V(x_j) = (v2 x_j) x_j rounds to the
value of the spring term (half_kappa y_j) y_j at every bead.  So Phi is
0.0 for every proposal, u < exp(0) = 1 accepts it, and a walker's state is
always its latest proposal.  (Only a V(x_j) that overflows, at a beta near
the bottom of the float range, would make Phi NaN and the test reject.)
The exact path still draws every proposal's normals and uniforms in stream
order, but it forms a proposal (scale, irfft, + c) only when it is
emitted, and it prices none.  A pinned harmonic node's Phi is constant
only in exact arithmetic (sum_j y_j = 0 up to rounding), so pinned nodes
and anharmonic wells keep the test.

Ensembles are generated as many independent walkers advanced in lockstep.
All randomness comes from the run seed's counter-based streams, one per
node and walker group (_streams holds the key layout; a free call is
node 0), so a node's rows do not depend on the other nodes.  A free call
and draw_momenta give the initial rings that RPMD, CMD (as their
centroids) and the harmonic CAQ reference all start from at one seed.  A
walker group's stream gives the first state's normals, then, per
proposal, the proposal's normals followed by one uniform per walker.  A
constrained call's nodes share each proposal's numpy dispatch: a job
advances one walker group of a stack of nodes as one array, drawing
node by node from each node's streams and running every other step once
over the stack.  Each row still goes through the same elementwise ufuncs,
row-wise irfft and row sum as alone, so the stacking changes no bit.  So
the output is a pure function of (config, seed) however the nodes are
stacked and the jobs scheduled across threads, and a longer run
reproduces every row of a shorter one.  The acceptance-rate warning is
decided per node, in the calling thread.

A call returns its rows, or with a value function, a row-wise map of a
(..., N) bead array to (...), the value of each row.  Then each job emits
its rounds into a batch of whole rounds, at most _stats.CHUNK_ELEMENTS bead
values (one round at least), and writes the values of each full batch in
place of its rows, so the call holds the (nodes, n_samples) values and one
batch per job, never the ensemble.  static and convergence
(sample_static_average) and the CMD force table take values; the RPMD and
CMD initial conditions and the static ensemble dump take rows.  A
row-wise value does not depend on the batch, so the values equal those of
the held rows bit for bit.

A node's walkers each make burn_in proposals and then emit one row every
decorrelation_stride proposals, so a call costs
walkers x burn_in + n_samples x stride proposals per node (n_samples
rounded up to whole rounds of walkers; on the exact path a proposal that
is not emitted costs only its draws).  With the defaults, a 2048-sample
node takes 41k proposals, of which 80 % are burn-in: 20 proposals per kept
row.  Few walkers are enough because rows of one walker sit 4 proposals
apart and acceptance is at least 0.82 at the benchmark points, so a
walker's rows are nearly independent; and rows are walker-major, so each
of the N_BLOCKS error blocks holds whole walker chains and the block
standard error still covers what autocorrelation is left.  Below about 128 rows in a stack the fixed numpy cost of each
lockstep proposal outweighs the burn-in saved.  A free call is a stack of
one node, so there the rows are its walkers; a constrained call stacks
its nodes' walkers, and only the draws keep a fixed cost per node.  The
default is a constant and not derived from n_samples.
"""

import math
import os
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _streams
from ._stats import N_BLOCKS, block_standard_error, row_chunks
from .errors import ConfigError, NonErgodicWarning, UnsupportedModel
from .model import horner, potential_fn, require_integers
from .ringpoly import MOMENTUM, free_rp_frequencies

_GROUP = 2048            # most walkers per group and rows per stack (fixed, not per thread)
# Gauss-Legendre nodes of the conditional centroid integral: against 201 nodes,
# 96 moved no row's E[q_c^2 | u] by more than 9e-16 relative on six wells
# (quartic, mildly anharmonic with c3 = 0.1 and c4 = 0.01 or 0.05, beta 1-8,
# N 4-64) at under half the cost; 64 lost digits on the c3 wells (to 6.5e-11)
_CENTROID_NODES = 96


@dataclass(frozen=True)
class SamplerConfig:
    """burn_in and decorrelation_stride count proposals per walker.

    One node costs n_walkers x burn_in + n_samples x decorrelation_stride
    proposals (when n_walkers <= n_samples); the module docstring gives the
    reason for 128 walkers.
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
    """Thread count: PIMD_KUBO_THREADS, else the cpu count.

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


def _reference(model, thermo, q_c):
    """(c, kappa) of the Gaussian reference for the node q_c (None: free).

    kappa(c) solves kappa = V''(c) + 12 v4 s2(kappa), s2 = <(x_j - c)^2>_ref
    (clamped at 0 when pinned).  The free c zeroes the slope of the
    Gibbs-Bogoliubov bound, V'(c) + V'''(c) s2 / 2, where it turns from - to +.
    """
    v2, v3, v4 = model.poly_coefficients()
    pinned = q_c is not None
    w2 = model.mass * free_rp_frequencies(thermo)[1 if pinned else 0:] ** 2

    def s2(kappa):
        return np.sum(1.0 / (thermo.beta * (w2 + kappa)))

    def kappa_at(c):
        curv = 2.0 * v2 + 6.0 * v3 * c + 12.0 * v4 * c * c
        if v4 == 0.0:
            return max(curv, 0.0)

        def excess(kappa):  # increasing in kappa; -inf at 0 when mode 0 is drawn
            return kappa - curv - 12.0 * v4 * s2(kappa)

        if pinned and excess(0.0) >= 0.0:
            return 0.0
        lo, hi = 0.0, max(curv, 0.0) + 1.0
        while excess(hi) < 0.0:
            lo, hi = hi, 2.0 * hi
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if excess(mid) < 0.0 else (lo, mid)
        return hi

    def slope(c):  # dF/dc / beta
        return (((4.0 * v4 * c + 3.0 * v3) * c + 2.0 * v2) * c
                + (3.0 * v3 + 12.0 * v4 * c) * s2(kappa_at(c)))

    c = 0.0 if q_c is None else q_c
    if not pinned and v3 != 0.0:
        lo, hi = -1.0, 1.0
        while slope(lo) >= 0.0:
            lo *= 2.0
        while slope(hi) <= 0.0:
            hi *= 2.0
        for _ in range(64):
            c = 0.5 * (lo + hi)
            lo, hi = (c, hi) if slope(c) < 0.0 else (lo, c)
    return c, kappa_at(c)


def _run_group(model, thermo, cfg, stack, g_index, g_size, out, value):
    """Independence Metropolis for walker group g_index of a stack of nodes, as a job.

    stack lists the nodes' (index, q_c, reference): index is the node's
    place in its grid (0 for the free ensemble), q_c is None for the free
    ensemble, else the pinned centroid, and reference is the node's
    (c, kappa) from _reference.  Each node draws from its own streams, but
    every other step of a proposal is one ufunc over the stack's
    (nodes, g_size, N) walker array, with c, kappa and the mode scales
    broadcast per node.  out is the stack's (nodes, walkers, rounds, N)
    view of its walker-major rows, or with a value function (the module
    docstring), the (nodes, walkers, rounds) view of their values; the
    group fills walkers g_index * _GROUP onwards.

    On the exact path (a free stack with v3 = v4 = 0, where Phi rounds to
    0.0; see the module docstring) run() draws each proposal's normals and
    uniforms as the test would.  It forms only the emitted proposals,
    straight into their rows or batch, and counts every post-burn-in
    proposal as accepted.  The initial state and every proposal that is not
    emitted are drawn and never formed.

    Allocates the job's buffers and returns run(), which samples and returns
    each node's accepted proposals after burn-in (an array) and the
    proposals each node attempted.  The buffers, the batch included, are
    allocated by the thread that builds the job, so a job run on a worker
    thread does not leave them resident in that thread's malloc arena,
    where no later allocation of the calling thread could reuse them.
    """
    n = thermo.n_beads
    pinned = stack[0][1] is not None
    v2, v3, v4 = model.poly_coefficients()
    exact = not pinned and v3 == 0.0 and v4 == 0.0  # every proposal is accepted
    c, kappa = np.array([reference for _, _, reference in stack]).T[..., None, None]
    half_kappa, beta_n = 0.5 * kappa, thermo.beta / n
    pot = potential_fn(model)
    purpose = _streams.POSITIONS_CONSTRAINED if pinned else _streams.POSITIONS
    gens = [_streams.stream(cfg.seed, purpose, node << 24 | g_index) for node, _, _ in stack]
    shape = (len(stack), g_size)
    # x - c = irfft(spec): the (re, im) parts of wavenumber k are modes of
    # variance sigma_k^2 = N / (beta (m w_k^2 + kappa)) times N / 2 (N for
    # k = 0 and N/2), and columns 2..N of the float view hold every part of
    # the internal modes (the imaginary parts of k = 0 and N/2 stay 0)
    spec = np.zeros(shape + (n // 2 + 1,), dtype=complex)
    parts = spec.view(float)
    k = np.arange(2, n + 1) // 2
    sigma = np.sqrt(n / (thermo.beta * (model.mass * free_rp_frequencies(thermo)[k] ** 2 + kappa)))
    scale = sigma * np.sqrt(np.where(2 * k == n, n, 0.5 * n))
    if not pinned:
        scale_0 = n / np.sqrt(thermo.beta * kappa[..., 0])
    z = np.empty(shape + (n - pinned,))  # mode 0 first when it is drawn
    u, d = np.empty(shape), np.empty(shape)
    y, v = np.empty(shape + (n,)), np.empty(shape + (n,))
    x, phi = np.empty(shape + (n,)), np.empty(shape)
    x_new, phi_new = np.empty_like(x), np.empty_like(phi)
    acc = np.empty(shape, dtype=bool)
    rounds = out.shape[2]
    # per walker; on the exact path every post-burn-in proposal, counted up front
    accepted = np.full(shape, rounds * cfg.decorrelation_stride if exact else 0, dtype=np.int64)
    dest = out[:, g_index * _GROUP:g_index * _GROUP + g_size]
    # rows are emitted in place, or into the batch (row_chunks' first slice
    # of the rounds is the most whole rounds that fit the budget)
    batch = dest if value is None else np.empty(
        shape + (row_chunks(rounds, x.size)[0].stop, n))

    def draw():
        for gen, z_node in zip(gens, z):
            gen.standard_normal(out=z_node)

    def form(x):  # x = c + y
        np.multiply(z[..., 1 - pinned:], scale, out=parts[..., 2:n + 1])
        if not pinned:
            np.multiply(z[..., 0], scale_0, out=parts[..., 0])
        np.fft.irfft(spec, n=n, out=y)
        np.add(y, c, out=x)

    def propose(x, phi):
        # phi = beta_n sum_j (V(x_j) - (half_kappa y_j) y_j)
        draw()
        form(x)
        np.multiply(np.multiply(half_kappa, y, out=v), y, out=y)  # y holds the spring term now
        np.subtract(pot(x, out=v), y, out=v)
        np.multiply(np.sum(v, axis=-1, out=phi), beta_n, out=phi)

    def run():
        if exact:
            draw()
        else:
            propose(x, phi)
        emitted = 0
        for step in range(1, cfg.burn_in + rounds * cfg.decorrelation_stride + 1):
            after = step - cfg.burn_in
            emit = after > 0 and after % cfg.decorrelation_stride == 0
            j = emitted % batch.shape[2]
            if exact:
                draw()
                if emit:
                    form(batch[:, :, j])
            else:
                propose(x_new, phi_new)
            for gen, u_node in zip(gens, u):
                gen.random(out=u_node)
            if not exact:
                # acc = u < exp(min(phi - phi_new, 0))
                np.exp(np.minimum(np.subtract(phi, phi_new, out=d), 0.0, out=d), out=d)
                np.less(u, d, out=acc)
                np.copyto(x, x_new, where=acc[..., None])
                np.copyto(phi, phi_new, where=acc)
                if after > 0:
                    np.add(accepted, acc, out=accepted)
                if emit:
                    batch[:, :, j] = x
            if emit:
                if value is not None and (j + 1 == batch.shape[2] or emitted + 1 == rounds):
                    dest[:, :, emitted - j:emitted + 1] = value(batch[:, :, :j + 1])
                emitted += 1
        return accepted.sum(axis=1), g_size * rounds * cfg.decorrelation_stride

    return run


def _sample(model, thermo, cfg, nodes, value=None):
    """Run a _run_group job for every (walker group, stack of nodes) on resolve_workers() threads.

    nodes lists the q_c of each node (None for the free ensemble); each
    node's reference is solved once, here, for all its walker groups.  For
    each walker group the nodes are split into contiguous, near-equal
    stacks of at most _GROUP rows, and into at least as many stacks as
    threads while there are nodes to spare; a free call is one stack of
    one node.  Warns once for each node whose acceptance rate after burn-in
    falls below 0.05.  Returns shape (len(nodes), n_samples, N), or with
    value (see _run_group) the (len(nodes), n_samples) values of those rows.
    """
    v2, v3, v4 = model.poly_coefficients()
    if 9.0 * v3 * v3 > 32.0 * v2 * v4:
        raise UnsupportedModel("V has a second minimum (9 v3^2 > 32 v2 v4)")
    walkers, rounds, groups = _layout(cfg)
    row = (thermo.n_beads,) if value is None else ()
    out = np.empty((len(nodes), walkers * rounds) + row)
    rows = out.reshape((len(nodes), walkers, rounds) + row)
    nodes = [(i, q_c, _reference(model, thermo, q_c)) for i, q_c in enumerate(nodes)]
    threads = resolve_workers()
    jobs = []
    for g, size in groups:
        stacks = max(-(-len(nodes) // (_GROUP // size)), min(threads, len(nodes)))
        jobs += [(g, size, s * len(nodes) // stacks, (s + 1) * len(nodes) // stacks)
                 for s in range(stacks)]
    counts = []
    runs = (_run_group(model, thermo, cfg, nodes[lo:hi], g, size, rows[lo:hi], value)
            for g, size, lo, hi in jobs)
    map_in_order(lambda run: run(), runs, counts.append, threads)
    accepted, attempted = (np.zeros(len(nodes), dtype=np.int64) for _ in range(2))
    for (_, _, lo, hi), (acc, att) in zip(jobs, counts):
        accepted[lo:hi] += acc
        attempted[lo:hi] += att
    for acc, att in zip(accepted, attempted):
        if att > 0 and acc / att < 0.05:
            warnings.warn(NonErgodicWarning(
                f"post-burn-in acceptance rate {acc / att:.3f} below 0.05"))
    return out[:, : cfg.n_samples]


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
