"""Equilibrium sampling of the ring-polymer position distribution.

The target density is R(x) (see ringpoly.log_ring_density).  Sampling uses
single-bead Metropolis moves plus whole-ring translations; the
centroid-constrained variant moves internal normal modes only, with mode 0
pinned.  Momentum marginals are exact Gaussians and are drawn directly.

Ensembles are generated as many independent walkers advanced in lockstep.
All randomness comes from counter-based streams keyed by (seed, purpose,
walker group), so the output is a pure function of (config, seed) no matter
how walker groups are scheduled across threads.
"""

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _streams
from ._stats import block_standard_error
from .errors import NonErgodicWarning
from .model import potential_fn
from .ringpoly import MOMENTUM, POSITION, free_rp_frequencies, normal_mode_matrix

_GROUP = 2048         # walkers per vectorized group (fixed; not tied to thread count)
_BLOCK_SWEEPS = 64    # sweeps per pregenerated random block
_ADAPT_WINDOW = 16    # sweeps per burn-in adaptation window

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

    sweep = 0
    while sweep < total_sweeps:
        nb = min(_BLOCK_SWEEPS, total_sweeps - sweep)
        z = gen.standard_normal((nb, n + 1, g_size))
        u = gen.random((nb, n + 1, g_size))
        for s in range(nb):
            in_burn = sweep < cfg.burn_in
            off = 0
            for ks, (kp, km) in zip(sets, neighbors):
                xk = x[:, ks]
                prop = xk + scale * z[s, off:off + ks.size].T
                v_new = pot(prop)
                d = beta_n * (v_new - v_cache[:, ks])
                if n > 1:
                    xkp, xkm = x[:, kp], x[:, km]
                    d = d + c_spring * ((prop - xkp) ** 2 + (prop - xkm) ** 2
                                        - (xk - xkp) ** 2 - (xk - xkm) ** 2)
                acc = u[s, off:off + ks.size].T < np.exp(-np.minimum(d, 700.0))
                x[:, ks] = np.where(acc, prop, xk)
                v_cache[:, ks] = np.where(acc, v_new, v_cache[:, ks])
                if in_burn:
                    win_bead += acc.sum(axis=1)
                else:
                    acc_prod += float(acc.sum())
                    att_prod += acc.size
                off += ks.size
            # whole-ring translation (spring term invariant)
            shift = t_scale * z[s, n]
            xp = x + shift[:, None]
            v_new = pot(xp)
            d = beta_n * (v_new.sum(axis=1) - v_cache.sum(axis=1))
            acc = u[s, n] < np.exp(-np.minimum(d, 700.0))
            x[acc] = xp[acc]
            v_cache[acc] = v_new[acc]
            if in_burn:
                win_tr += acc

            sweep += 1
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

def _run_group_constrained(model, thermo, cfg, q_c, g_index, g_size, rounds, out):
    n = thermo.n_beads
    beta_n = thermo.beta / n
    pot = potential_fn(model)
    gen = _streams.stream(cfg.seed, _streams.POSITIONS_CONSTRAINED, g_index)
    cmat = normal_mode_matrix(n)
    w = free_rp_frequencies(thermo)
    v2 = model.poly_coefficients()[0]
    curv = 2.0 * v2 + model.mass * 1e-6
    sigma0 = np.sqrt(n / (thermo.beta * (model.mass * w[1:] ** 2 + curv)))

    a = np.zeros((g_size, n))
    a[:, 0] = math.sqrt(n) * q_c
    a[:, 1:] = 0.1 * sigma0 * gen.standard_normal((g_size, n - 1))
    x = a @ cmat.T
    v_sum = pot(x).sum(axis=1)
    scale = np.broadcast_to(cfg.move_scale * sigma0, (g_size, n - 1)).copy()

    total_sweeps = cfg.burn_in + rounds * cfg.decorrelation_stride
    win = np.zeros((g_size, n - 1))
    acc_prod = 0.0
    att_prod = 0.0
    emitted = 0
    half_spring = 0.5 * model.mass * w**2

    sweep = 0
    while sweep < total_sweeps:
        nb = min(_BLOCK_SWEEPS, total_sweeps - sweep)
        z = gen.standard_normal((nb, n - 1, g_size))
        u = gen.random((nb, n - 1, g_size))
        for s in range(nb):
            in_burn = sweep < cfg.burn_in
            for k in range(1, n):
                da = scale[:, k - 1] * z[s, k - 1]
                xp = x + da[:, None] * cmat[:, k][None, :]
                v_new = pot(xp).sum(axis=1)
                ak = a[:, k]
                d = beta_n * (v_new - v_sum) + beta_n * half_spring[k] * ((ak + da) ** 2 - ak**2)
                acc = u[s, k - 1] < np.exp(-np.minimum(d, 700.0))
                x[acc] = xp[acc]
                a[acc, k] += da[acc]
                v_sum[acc] = v_new[acc]
                if in_burn:
                    win[:, k - 1] += acc
                else:
                    acc_prod += float(acc.sum())
                    att_prod += g_size
            sweep += 1
            if in_burn and sweep % _ADAPT_WINDOW == 0:
                rate = win / _ADAPT_WINDOW
                scale *= np.exp(1.2 * (rate - cfg.target_acceptance))
                np.clip(scale, 1e-4 * sigma0, 1e4 * sigma0, out=scale)
                win[:] = 0.0
            if not in_burn and (sweep - cfg.burn_in) % cfg.decorrelation_stride == 0:
                rows = (np.arange(g_size) + g_index * _GROUP) * rounds + emitted
                out[rows] = x
                emitted += 1
    return acc_prod, att_prod


def sample_ring_positions_constrained(model, thermo, cfg, q_c, workers=None):
    """Configurations with the position centroid pinned to q_c exactly."""
    if thermo.n_beads == 1:
        # a single bead is its own centroid; the constrained ensemble is a point
        return np.full((cfg.n_samples, 1), float(q_c))
    ens = _sample(_run_group_constrained, model, thermo, cfg, workers, q_c)
    # remove accumulated roundoff in the pinned mode
    ens += (q_c - ens.mean(axis=1))[:, None]
    return ens


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
    if v4 == 0.0:
        raise ValueError("conditional centroid moment needs a bounded-below conditional; "
                         "cubic-only anharmonicity is unbounded (use conditioned=False)")
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
