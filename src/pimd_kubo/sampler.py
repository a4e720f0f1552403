"""Equilibrium sampling of the ring-polymer position distribution.

The target density is R(x) (see ringpoly.log_ring_density).  Sampling uses
single-bead Metropolis moves plus whole-ring translations; the
centroid-constrained variant moves internal normal modes only, with mode 0
pinned.  Momentum marginals are exact Gaussians and are drawn directly.

Ensembles are generated as many independent walkers advanced in lockstep.
All randomness comes from counter-based streams keyed by (seed, purpose,
walker group), so the output is a pure function of (config, seed) no matter
how walker groups are scheduled across threads.  Both samplers read their
streams sweep by sweep: per sweep, a walker group's stream gives the
sweep's normals, then its uniforms, drawn into one reused sweep buffer.
A longer run therefore reproduces every row of a shorter one.

The constrained sampler also takes a 1-D grid of centroids (the CMD force
table's nodes).  Node i then draws from the streams keyed by
(_node_seed(seed, i), purpose, walker group).  Each (node, walker group)
pair is a lane.  Lanes are stacked side by side on one walker axis, so one
ufunc call per step serves all of them; a grid is cut into several stacks
only when one would pass _STACK_VALUES, and only then do stacks run on
the map_groups threads.  A force table of 17 nodes x 1024 walkers at
N = 16 fits in one stack and so samples on one core: split over two
threads it ran about 1.6 times as fast on an idle 2-core machine, but its
wall time spread far more between runs on a shared one.  The
acceptance-rate warning is still decided per node, in the calling thread.
"""

import math
import os
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _streams
from ._stats import block_standard_error
from .errors import NonErgodicWarning
from .model import potential_fn
from .ringpoly import MOMENTUM, POSITION, free_rp_frequencies, normal_mode_matrix

_GROUP = 2048         # walkers per vectorized group (fixed; not tied to thread count)
_ADAPT_WINDOW = 16    # sweeps per burn-in adaptation window
_STACK_VALUES = 1 << 19  # walkers x beads per constrained stack at most (4 MB arrays)
_CHUNK_VALUES = 1 << 15  # walkers x beads per constrained mode move (fits in L2)

MOMENTUM_CONVENTIONS = ("bead", "bond_midpoint")


@dataclass(frozen=True)
class SamplerConfig:
    n_samples: int
    seed: int
    burn_in: int = 256
    decorrelation_stride: int = 4
    move_scale: float = 0.5
    target_acceptance: float = 0.4
    n_walkers: int = 1024

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be > 0")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.decorrelation_stride < 1:
            raise ValueError("decorrelation_stride must be > 0")
        if not (self.move_scale > 0):
            raise ValueError("move_scale must be > 0")
        if not (0.0 < self.target_acceptance < 1.0):
            raise ValueError("target_acceptance must be in (0, 1)")
        if self.n_walkers < 1:
            raise ValueError("n_walkers must be > 0")


def resolve_workers(workers=None):
    """Worker count: explicit argument, else PIMD_KUBO_THREADS, else cpu count."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("PIMD_KUBO_THREADS", "").strip()
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _layout(cfg):
    walkers = min(cfg.n_walkers, cfg.n_samples)
    rounds = -(-cfg.n_samples // walkers)
    groups = [(g, min(_GROUP, walkers - g * _GROUP)) for g in range(-(-walkers // _GROUP))]
    return walkers, rounds, groups


def map_groups(worker_fn, groups, workers=None):
    """Call worker_fn on every group, on resolve_workers(workers) threads."""
    workers = resolve_workers(workers)
    if workers <= 1 or len(groups) <= 1:
        for g in groups:
            worker_fn(g)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(worker_fn, groups))


def map_in_order(fn, items, consume, workers=None):
    """Call consume(fn(item)) for every item, in item order, in this thread.

    fn runs on resolve_workers(workers) threads.  An item is submitted only
    once the oldest result is consumed and dropped, so at most that many
    results are alive at once.
    """
    workers = resolve_workers(workers)
    if workers <= 1:
        for item in items:
            consume(fn(item))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for item in items:
            if len(pending) == workers:
                consume(pending.popleft().result())
            pending.append(pool.submit(fn, item))
        while pending:
            consume(pending.popleft().result())


def _node_seed(seed, index):
    """Seed of grid node `index` of a constrained grid call (stream key part)."""
    return (int(seed) * 1000003 + 7919 * (index + 1)) % (2**63)


def _sample(run_group, model, thermo, cfg, workers, *args):
    """Run run_group on every walker group; warn on the pooled acceptance rate.

    run_group(model, thermo, cfg, *args, g_index, g_size, rounds, out) fills
    its walkers' rows of out and returns (accepted, attempted) after burn-in.
    """
    walkers, rounds, groups = _layout(cfg)
    out = np.empty((walkers * rounds, thermo.n_beads))
    stats = [None] * len(groups)

    def job(spec):
        g, size = spec
        stats[g] = run_group(model, thermo, cfg, *args, g, size, rounds, out)

    map_groups(job, groups, workers)
    _warn_if_nonergodic(sum(s[0] for s in stats), sum(s[1] for s in stats))
    return out[: cfg.n_samples]


def _warn_if_nonergodic(acc, att):
    if att > 0:
        rate = acc / att
        if rate < 0.05 or rate > 0.95:
            warnings.warn(NonErgodicWarning(
                f"post-burn-in acceptance rate {rate:.3f} outside [0.05, 0.95]"))


# ----------------------------------------------------------------------
# unconstrained sampler: bead moves + ring translations

def _bead_sets(n):
    """Bead index sets updatable in parallel (neighbors held fixed).

    Even-odd decomposition for even N; cyclic neighbor conflicts force a
    sequential schedule when N is odd.
    """
    if n == 1:
        return [np.array([0])]
    if n % 2 == 0:
        return [np.arange(0, n, 2), np.arange(1, n, 2)]
    return [np.array([k]) for k in range(n)]


def _run_group_free(model, thermo, cfg, g_index, g_size, rounds, out):
    n = thermo.n_beads
    beta_n = thermo.beta / n
    c_spring = model.mass * n / (2.0 * thermo.beta * thermo.hbar**2)
    pot = potential_fn(model)
    gen = _streams.stream(cfg.seed, _streams.POSITIONS, g_index)

    x = 0.05 * gen.standard_normal((g_size, n))
    v_cache = pot(x)
    scale = np.full((g_size, 1), cfg.move_scale)
    t_scale = np.full(g_size, cfg.move_scale)

    total_sweeps = cfg.burn_in + rounds * cfg.decorrelation_stride
    win_bead = np.zeros(g_size)
    win_tr = np.zeros(g_size)
    acc_prod = 0.0
    att_prod = 0.0
    emitted = 0

    sets = _bead_sets(n)
    neighbors = [( (ks + 1) % n, (ks - 1) % n ) for ks in sets]
    z = np.empty((n + 1, g_size))
    u = np.empty_like(z)

    for sweep in range(1, total_sweeps + 1):
        gen.standard_normal(out=z)
        gen.random(out=u)
        in_burn = sweep <= cfg.burn_in
        off = 0
        for ks, (kp, km) in zip(sets, neighbors):
            xk = x[:, ks]
            prop = xk + scale * z[off:off + ks.size].T
            v_new = pot(prop)
            d = beta_n * (v_new - v_cache[:, ks])
            if n > 1:
                xkp, xkm = x[:, kp], x[:, km]
                d = d + c_spring * ((prop - xkp) ** 2 + (prop - xkm) ** 2
                                    - (xk - xkp) ** 2 - (xk - xkm) ** 2)
            acc = u[off:off + ks.size].T < np.exp(-np.minimum(d, 700.0))
            x[:, ks] = np.where(acc, prop, xk)
            v_cache[:, ks] = np.where(acc, v_new, v_cache[:, ks])
            if in_burn:
                win_bead += acc.sum(axis=1)
            else:
                acc_prod += float(acc.sum())
                att_prod += acc.size
            off += ks.size
        # whole-ring translation (spring term invariant)
        shift = t_scale * z[n]
        xp = x + shift[:, None]
        v_new = pot(xp)
        d = beta_n * (v_new.sum(axis=1) - v_cache.sum(axis=1))
        acc = u[n] < np.exp(-np.minimum(d, 700.0))
        x[acc] = xp[acc]
        v_cache[acc] = v_new[acc]
        if in_burn:
            win_tr += acc

        if in_burn and sweep % _ADAPT_WINDOW == 0:
            rate = win_bead / (_ADAPT_WINDOW * n)
            scale[:, 0] *= np.exp(1.2 * (rate - cfg.target_acceptance))
            rate_t = win_tr / _ADAPT_WINDOW
            t_scale *= np.exp(1.2 * (rate_t - cfg.target_acceptance))
            np.clip(scale, 1e-4 * cfg.move_scale, 1e4 * cfg.move_scale, out=scale)
            np.clip(t_scale, 1e-4 * cfg.move_scale, 1e4 * cfg.move_scale, out=t_scale)
            win_bead[:] = 0.0
            win_tr[:] = 0.0
        if not in_burn and (sweep - cfg.burn_in) % cfg.decorrelation_stride == 0:
            # walker-major ordering: sample (walker w, round r) -> row w*rounds + r
            rows = (np.arange(g_size) + g_index * _GROUP) * rounds + emitted
            out[rows] = x
            emitted += 1
    return acc_prod, att_prod


def sample_ring_positions(model, thermo, cfg, workers=None):
    """Decorrelated configurations targeting R(x), shape (n_samples, N)."""
    return _sample(_run_group_free, model, thermo, cfg, workers)


# ----------------------------------------------------------------------
# centroid-constrained sampler: internal normal-mode moves, mode 0 pinned

def _run_lanes_constrained(model, thermo, cfg, lanes, rounds):
    """Advance a stack of lanes of the constrained sampler as one walker array.

    A lane (seed, q_c, g_index, g_size, out) is walker group g_index of the
    node whose streams are keyed by seed: its walkers keep the centroid at
    q_c and fill their rows of out, the node's (walkers * rounds, N) plane.
    The lanes sit side by side on the walker axis, so one ufunc call per
    step serves the whole stack; the mode moves run over chunks of
    _CHUNK_VALUES walker x bead values, whose arrays stay in cache.  Every
    step is elementwise in the walker, so a lane gets the same bits in any
    stack and any chunking.
    Returns [(accepted, attempted) after burn-in] in lane order.
    """
    n = thermo.n_beads
    beta_n = thermo.beta / n
    pot = potential_fn(model)
    cmat = normal_mode_matrix(n)
    w = free_rp_frequencies(thermo)
    v2 = model.poly_coefficients()[0]
    curv = 2.0 * v2 + model.mass * 1e-6
    sigma0 = np.sqrt(n / (thermo.beta * (model.mass * w[1:] ** 2 + curv)))

    sizes = [lane[3] for lane in lanes]
    walkers = sum(sizes)
    spans = [slice(o - size, o) for o, size in zip(np.cumsum(sizes), sizes)]
    x = np.empty((walkers, n))
    v_sum = np.empty(walkers)
    # mode-major: row k - 1 holds internal mode k of every walker
    a = np.empty((n - 1, walkers))
    gens = []
    for (seed, q_c, g_index, g_size, _), span in zip(lanes, spans):
        gen = _streams.stream(seed, _streams.POSITIONS_CONSTRAINED, g_index)
        a_lane = np.zeros((g_size, n))
        a_lane[:, 0] = math.sqrt(n) * q_c
        a_lane[:, 1:] = 0.1 * sigma0 * gen.standard_normal((g_size, n - 1))
        x[span] = a_lane @ cmat.T
        v_sum[span] = pot(x[span]).sum(axis=1)
        a[:, span] = a_lane[:, 1:].T
        gens.append(gen)
    scale = np.repeat(cfg.move_scale * sigma0[:, None], walkers, axis=1)
    lo, hi = 1e-4 * sigma0[:, None], 1e4 * sigma0[:, None]
    cols = cmat[:, 1:].T.copy()

    total_sweeps = cfg.burn_in + rounds * cfg.decorrelation_stride
    win = np.zeros((n - 1, walkers))
    n_acc = [0] * len(lanes)  # post-burn-in acceptances
    emitted = 0
    spring = beta_n * (0.5 * model.mass * w[1:, None] ** 2)  # beta_n m w_k^2 / 2

    # every step below writes into these buffers, in the operation order of
    # the expressions in the comments
    z = np.empty((n - 1, walkers))
    u, t, t2 = (np.empty_like(z) for _ in range(3))
    acc = np.empty(z.shape, dtype=bool)
    draw = np.empty((n - 1) * max(sizes))
    bufs = [draw[: (n - 1) * size].reshape(n - 1, size) for size in sizes]
    # the mode moves run over chunks of walkers whose arrays stay in cache
    step = max(1, _CHUNK_VALUES // n)
    prop, v_beads = np.empty((min(step, walkers), n)), np.empty((min(step, walkers), n))
    v_new, d = np.empty(len(prop)), np.empty(len(prop))
    chunks = []
    for start in range(0, walkers, step):
        c = slice(start, min(start + step, walkers))
        m = c.stop - c.start
        chunks.append((c, x[c], v_sum[c], prop[:m], v_beads[:m], v_new[:m], d[:m]))

    for sweep in range(1, total_sweeps + 1):
        for gen, buf, span in zip(gens, bufs, spans):
            z[:, span] = gen.standard_normal(out=buf)
            u[:, span] = gen.random(out=buf)
        in_burn = sweep <= cfg.burn_in
        # amplitude a_k changes only in the move of mode k, so the step
        # da = scale z and the spring term t = spring_k ((a_k + da)^2 - a_k^2)
        # of every mode are known when the sweep starts
        da = np.multiply(scale, z, out=z)
        np.square(np.add(a, da, out=t), out=t)
        np.subtract(t, np.square(a, out=t2), out=t)
        np.multiply(spring, t, out=t)
        for c, xc, vc, pc, vb, vn, dc in chunks:
            for k in range(1, n):
                dak, acck = da[k - 1, c], acc[k - 1, c]
                # prop = x + da_k c_k;  v_new = sum_j V(prop_j)
                np.add(xc, np.multiply(dak[:, None], cols[k - 1], out=pc), out=pc)
                np.sum(pot(pc, out=vb), axis=1, out=vn)
                # d = beta_n (v_new - v_sum) + t_k;  acc = u < exp(-min(d, 700))
                np.multiply(beta_n, np.subtract(vn, vc, out=dc), out=dc)
                dc += t[k - 1, c]
                np.exp(np.negative(np.minimum(dc, 700.0, out=dc), out=dc), out=dc)
                np.less(u[k - 1, c], dc, out=acck)
                np.copyto(xc, pc, where=acck[:, None])
                np.copyto(vc, vn, where=acck)
        np.add(a, da, out=a, where=acc)
        if in_burn:
            win += acc
        else:
            for i, span in enumerate(spans):
                n_acc[i] += int(np.count_nonzero(acc[:, span]))
        if in_burn and sweep % _ADAPT_WINDOW == 0:
            rate = win / _ADAPT_WINDOW
            scale *= np.exp(1.2 * (rate - cfg.target_acceptance))
            np.clip(scale, lo, hi, out=scale)
            win[:] = 0.0
        if not in_burn and (sweep - cfg.burn_in) % cfg.decorrelation_stride == 0:
            # walker-major ordering: sample (walker w, round r) -> row w*rounds + r
            for (_, _, g_index, g_size, out), span in zip(lanes, spans):
                start = g_index * _GROUP * rounds + emitted
                out[start:start + g_size * rounds:rounds] = x[span]
            emitted += 1
    moves = rounds * cfg.decorrelation_stride * (n - 1)
    return [(float(count), float(g_size * moves)) for count, g_size in zip(n_acc, sizes)]


def _stacks(lanes, n_beads):
    """Cut lanes into as few contiguous stacks of about equal size as keep
    each at most about _STACK_VALUES walker x bead values (or one lane)."""
    values = sum(lane[3] for lane in lanes) * n_beads
    count = min(len(lanes), -(-values // _STACK_VALUES))
    return [lanes[j * len(lanes) // count:(j + 1) * len(lanes) // count] for j in range(count)]


def sample_ring_positions_constrained(model, thermo, cfg, q_c, workers=None):
    """Configurations with the position centroid pinned to q_c exactly.

    A scalar q_c gives shape (n_samples, N) from the streams of cfg.seed.
    A 1-D grid of centroids gives shape (nodes, n_samples, N); node i
    samples from the streams of _node_seed(cfg.seed, i), so it equals the
    scalar call with that seed.  The (node, walker group) lanes of all
    nodes are stacked (see _stacks); several stacks share a thread pool of
    `workers` threads.
    """
    grid = np.asarray(q_c, dtype=float)
    if grid.ndim > 1:
        raise ValueError("q_c must be a scalar or a 1-D grid of centroids")
    nodes = grid.reshape(-1)
    if thermo.n_beads == 1:
        # a single bead is its own centroid; the constrained ensemble is a point
        ens = np.repeat(nodes[:, None, None], cfg.n_samples, axis=1)
    else:
        seeds = [_node_seed(cfg.seed, i) for i in range(nodes.size)] if grid.ndim else [cfg.seed]
        walkers, rounds, groups = _layout(cfg)
        ens = np.empty((nodes.size, walkers * rounds, thermo.n_beads))
        lanes = [(seed, q, g, size, plane)
                 for seed, q, plane in zip(seeds, nodes, ens) for g, size in groups]
        stacks = _stacks(lanes, thermo.n_beads)
        stats = [None] * len(stacks)

        def job(j):
            stats[j] = _run_lanes_constrained(model, thermo, cfg, stacks[j], rounds)

        map_groups(job, range(len(stacks)), workers)
        lane_stats = [s for stack in stats for s in stack]  # node-major, as lanes
        for node in range(nodes.size):
            mine = lane_stats[node * len(groups):(node + 1) * len(groups)]
            _warn_if_nonergodic(sum(s[0] for s in mine), sum(s[1] for s in mine))
        ens = ens[:, : cfg.n_samples]
        # remove accumulated roundoff in the pinned mode
        ens += (nodes[:, None] - ens.mean(axis=2))[:, :, None]
    return ens if grid.ndim else ens[0]


# ----------------------------------------------------------------------
# momentum draws (exact Gaussians, never MCMC)

def draw_momenta(thermo, model, cfg, convention="bead", n_draws=None):
    """i.i.d. bead momenta with variance m N / beta, shape (n_draws, N).

    convention="bond_midpoint" applies the cyclic midpoint map
    (p_k + p_{k+1})/2 to a bead draw; the centroid is unchanged.
    """
    if convention not in MOMENTUM_CONVENTIONS:
        raise ValueError("convention must be 'bead' or 'bond_midpoint'")
    n = cfg.n_samples if n_draws is None else int(n_draws)
    sigma = math.sqrt(model.mass * thermo.n_beads / thermo.beta)
    gen = _streams.stream(cfg.seed, _streams.MOMENTA, 0)
    p = sigma * gen.standard_normal((n, thermo.n_beads))
    if convention == "bond_midpoint":
        p = 0.5 * (p + np.roll(p, -1, axis=1))
    return p


# ----------------------------------------------------------------------
# static estimators

def estimate_static_average(obs, ensemble, blocks=16):
    """Ensemble mean of a centroid observable with a block standard error."""
    ensemble = np.asarray(ensemble, dtype=float)
    if obs.kind == POSITION:
        vals = obs.f(ensemble).mean(axis=1)
    elif obs.kind == MOMENTUM:
        vals = ensemble.mean(axis=1)
    else:
        raise ValueError(f"unknown observable kind {obs.kind!r}")
    return float(vals.mean()), float(block_standard_error(vals, blocks))


def mean_square_position(ensemble, model, thermo, conditioned=True, blocks=16):
    """<(1/N) sum_k x_k^2> with optional exact centroid integration.

    With conditioned=True the centroid coordinate is integrated out
    analytically (or by quadrature for anharmonic wells) for every sampled
    internal configuration; this removes the dominant classical variance and
    leaves only the internal-mode fluctuations in the Monte Carlo error.
    The estimator stays unbiased by the law of total expectation.
    """
    x = np.asarray(ensemble, dtype=float)
    if not conditioned:
        vals = (x * x).mean(axis=1)
    else:
        qc = x.mean(axis=1)
        u = x - qc[:, None]
        vals = _conditional_centroid_m2(model, thermo, u) + (u * u).mean(axis=1)
    return float(vals.mean()), float(block_standard_error(vals, blocks))


def _conditional_centroid_m2(model, thermo, u, n_nodes=201, chunk=65536):
    """E[q_c^2 | internal displacements u] under R(x), per sample.

    The conditional density of the centroid c given u is
    exp(-(beta/N) sum_k V(c + u_k)); the exponent is a quartic polynomial
    in c with coefficients built from power sums of u.
    """
    v2, v3, v4 = model.poly_coefficients()
    n = u.shape[-1]
    beta_n = thermo.beta / n
    s2 = (u * u).sum(axis=-1)
    if v3 == 0.0 and v4 == 0.0:
        # Gaussian conditional: exponent beta_n * v2 * n * c^2 = (beta m w^2 / 2) c^2
        var = 1.0 / (2.0 * beta_n * v2 * n)
        return np.full(u.shape[0], var)
    s3 = (u**3).sum(axis=-1)
    b4 = v4 * n
    b3 = v3 * n
    b2 = v2 * n + 6.0 * v4 * s2
    b1 = 3.0 * v3 * s2 + 4.0 * v4 * s3

    t, wq = np.polynomial.legendre.leggauss(n_nodes)
    out = np.empty(u.shape[0])
    for lo in range(0, u.shape[0], chunk):
        hi = min(lo + chunk, u.shape[0])
        bb1, bb2 = b1[lo:hi], b2[lo:hi]

        def expo(c):
            return beta_n * (((b4 * c + b3) * c + bb2) * c + bb1) * c

        # start from the tighter of the quadratic/quartic half-widths, then widen
        span = np.minimum(np.sqrt(40.0 / np.maximum(beta_n * bb2, 1e-300)),
                          (40.0 / (beta_n * b4)) ** 0.25)
        span = np.minimum(span, 1e6)
        for _ in range(80):
            low = np.minimum(expo(span), expo(-span))
            grow = low < 40.0
            if not grow.any():
                break
            span[grow] *= 1.3
        c = span[:, None] * t[None, :]
        e = beta_n * ((((b4 * c + b3) * c + bb2[:, None]) * c + bb1[:, None]) * c)
        e -= e.min(axis=1, keepdims=True)
        wgt = wq[None, :] * np.exp(-e)
        out[lo:hi] = (c * c * wgt).sum(axis=1) / wgt.sum(axis=1)
    return out
