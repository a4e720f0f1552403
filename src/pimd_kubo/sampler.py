"""Equilibrium sampling of the ring-polymer position distribution.

The target density is R(x) (see ringpoly.log_ring_density), optionally
with the centroid pinned at q_c (the CMD constrained ensemble).  Both
ensembles are sampled by one independence Metropolis kernel (the rho = 0
case of preconditioned Crank-Nicolson; Cotter et al., Stat. Sci. 28, 424
(2013)).  Every proposal is an exact draw from a Gaussian reference: the
free ring polymer plus the harmonic well kappa (x_j - c)^2 / 2 on each
bead.  In normal modes the reference is diagonal, mode k with variance
N / (beta (m w_k^2 + kappa)).  For the free ensemble every mode is drawn;
for the constrained one c = q_c, mode 0 stays pinned at sqrt(N) q_c, and
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

Ensembles are generated as many independent walkers advanced in lockstep.
All randomness comes from counter-based streams keyed by (seed, purpose,
walker group); node i of a constrained grid uses the seed
_node_seed(seed, i).  A walker group's stream gives the first state's
normals, then, per proposal, the proposal's normals followed by one
uniform per walker.  So the output is a pure function of (config, seed)
however the (node, walker group) jobs are scheduled across threads, and a
longer run reproduces every row of a shorter one.  The acceptance-rate
warning is decided per node, in the calling thread.
"""

import math
import os
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _streams
from ._stats import N_BLOCKS, block_standard_error
from .errors import NonErgodicWarning, UnsupportedModel
from .model import potential_fn
from .ringpoly import free_rp_frequencies

_GROUP = 2048            # walkers per vectorized group (fixed; not tied to thread count)
_CENTROID_NODES = 201    # Gauss-Legendre nodes of the conditional centroid integral
_CENTROID_CHUNK = 65536  # samples whose centroid integrals are formed at once

MOMENTUM_CONVENTIONS = ("bead", "bond_midpoint")


@dataclass(frozen=True)
class SamplerConfig:
    """burn_in and decorrelation_stride count proposals per walker."""

    n_samples: int
    seed: int
    burn_in: int = 256
    decorrelation_stride: int = 4
    n_walkers: int = 1024

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be > 0")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.decorrelation_stride < 1:
            raise ValueError("decorrelation_stride must be > 0")
        if self.n_walkers < 1:
            raise ValueError("n_walkers must be > 0")


def resolve_workers():
    """Thread count: PIMD_KUBO_THREADS, else the cpu count."""
    env = os.environ.get("PIMD_KUBO_THREADS", "").strip()
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _layout(cfg):
    walkers = min(cfg.n_walkers, cfg.n_samples)
    rounds = -(-cfg.n_samples // walkers)
    groups = [(g, min(_GROUP, walkers - g * _GROUP)) for g in range(-(-walkers // _GROUP))]
    return walkers, rounds, groups


def map_in_order(fn, items, consume, workers):
    """Call consume(fn(item)) for every item, in item order, in this thread.

    fn runs on `workers` threads (on this one when workers is 1).  An item
    is submitted only once the oldest result is consumed and dropped, so at
    most `workers` results are alive at once.
    """
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


def _run_group(model, thermo, cfg, seed, q_c, reference, g_index, g_size, rounds, out):
    """Independence Metropolis for walker group g_index of one node.

    q_c is None for the free ensemble, else the pinned centroid, and
    reference is the node's (c, kappa) from _reference.  Fills the group's
    walker-major rows of out (walker w, round r -> row w * rounds + r) and
    returns (accepted, attempted) proposals after burn-in.
    """
    n = thermo.n_beads
    pinned = q_c is not None
    c, kappa = reference
    half_kappa, beta_n = 0.5 * kappa, thermo.beta / n
    pot = potential_fn(model)
    gen = _streams.stream(seed, _streams.POSITIONS_CONSTRAINED if pinned else _streams.POSITIONS,
                          g_index)
    # x - c = irfft(spec): the (re, im) parts of wavenumber k are modes of
    # variance sigma_k^2 = N / (beta (m w_k^2 + kappa)) times N / 2 (N for
    # k = 0 and N/2), and columns 2..N of the float view hold every part of
    # the internal modes (the imaginary parts of k = 0 and N/2 stay 0)
    spec = np.zeros((g_size, n // 2 + 1), dtype=complex)
    parts = spec.view(float)
    k = np.arange(2, n + 1) // 2
    sigma = np.sqrt(n / (thermo.beta * (model.mass * free_rp_frequencies(thermo)[k] ** 2 + kappa)))
    scale = sigma * np.sqrt(np.where(2 * k == n, n, 0.5 * n))
    z = np.empty((g_size, n - pinned))  # mode 0 first when it is drawn
    u, d = np.empty(g_size), np.empty(g_size)
    y, v, t = (np.empty((g_size, n)) for _ in range(3))

    def propose(x, phi):
        # x = c + y,  phi = beta_n sum_j (V(x_j) - (half_kappa y_j) y_j)
        gen.standard_normal(out=z)
        np.multiply(z[:, 1 - pinned:], scale, out=parts[:, 2:n + 1])
        if not pinned:
            np.multiply(z[:, 0], n / math.sqrt(thermo.beta * kappa), out=parts[:, 0])
        np.fft.irfft(spec, n=n, out=y)
        np.add(y, c, out=x)
        pot(x, out=v)
        np.subtract(v, np.multiply(np.multiply(half_kappa, y, out=t), y, out=t), out=v)
        np.multiply(v.sum(axis=1), beta_n, out=phi)

    x, phi = np.empty((g_size, n)), np.empty(g_size)
    x_new, phi_new = np.empty_like(x), np.empty_like(phi)
    acc = np.empty(g_size, dtype=bool)
    propose(x, phi)
    accepted, emitted = 0, 0
    start = g_index * _GROUP * rounds
    for step in range(1, cfg.burn_in + rounds * cfg.decorrelation_stride + 1):
        propose(x_new, phi_new)
        gen.random(out=u)
        # acc = u < exp(min(phi - phi_new, 0))
        np.exp(np.minimum(np.subtract(phi, phi_new, out=d), 0.0, out=d), out=d)
        np.less(u, d, out=acc)
        np.copyto(x, x_new, where=acc[:, None])
        np.copyto(phi, phi_new, where=acc)
        after = step - cfg.burn_in
        if after > 0:
            accepted += int(np.count_nonzero(acc))
            if after % cfg.decorrelation_stride == 0:
                out[start + emitted:start + g_size * rounds:rounds] = x
                emitted += 1
    return accepted, g_size * rounds * cfg.decorrelation_stride


def _sample(model, thermo, cfg, nodes):
    """Run _run_group on every (node, walker group) on resolve_workers() threads.

    nodes lists (seed, q_c) pairs (q_c None for the free ensemble); each
    node's reference is solved once, here, for all its walker groups.  Warns
    once for each node whose acceptance rate after burn-in falls below 0.05.
    Returns shape (len(nodes), n_samples, N).
    """
    v2, v3, v4 = model.poly_coefficients()
    if 9.0 * v3 * v3 > 32.0 * v2 * v4:
        raise UnsupportedModel("V has a second minimum (9 v3^2 > 32 v2 v4)")
    walkers, rounds, groups = _layout(cfg)
    out = np.empty((len(nodes), walkers * rounds, thermo.n_beads))
    references = [_reference(model, thermo, q_c) for _, q_c in nodes]
    jobs = [(i, g, size) for i in range(len(nodes)) for g, size in groups]
    counts = []

    def job(spec):
        i, g, size = spec
        seed, q_c = nodes[i]
        return _run_group(model, thermo, cfg, seed, q_c, references[i], g, size, rounds, out[i])

    map_in_order(job, jobs, counts.append, resolve_workers())
    for i in range(len(nodes)):
        acc, att = np.sum(counts[i * len(groups):(i + 1) * len(groups)], axis=0)
        if att > 0 and acc / att < 0.05:
            warnings.warn(NonErgodicWarning(
                f"post-burn-in acceptance rate {acc / att:.3f} below 0.05"))
    return out[:, : cfg.n_samples]


def sample_ring_positions(model, thermo, cfg):
    """Decorrelated configurations targeting R(x), shape (n_samples, N)."""
    return _sample(model, thermo, cfg, [(cfg.seed, None)])[0]


def sample_ring_positions_constrained(model, thermo, cfg, q_c):
    """Configurations with the position centroid pinned to q_c.

    A scalar q_c gives shape (n_samples, N) from the streams of cfg.seed.
    A 1-D grid of centroids gives shape (nodes, n_samples, N); node i
    samples from the streams of _node_seed(cfg.seed, i), so it equals the
    scalar call with that seed.
    """
    grid = np.asarray(q_c, dtype=float)
    if grid.ndim > 1:
        raise ValueError("q_c must be a scalar or a 1-D grid of centroids")
    if grid.ndim == 0:
        return _sample(model, thermo, cfg, [(cfg.seed, float(grid))])[0]
    nodes = [(_node_seed(cfg.seed, i), float(q)) for i, q in enumerate(grid)]
    return _sample(model, thermo, cfg, nodes)


# ----------------------------------------------------------------------
# momentum draws (exact Gaussians, never MCMC)

def draw_momenta(thermo, model, cfg, convention="bead"):
    """i.i.d. bead momenta with variance m N / beta, shape (n_samples, N).

    convention="bond_midpoint" applies the cyclic midpoint map
    (p_k + p_{k+1})/2 to a bead draw; the centroid is unchanged.
    """
    if convention not in MOMENTUM_CONVENTIONS:
        raise ValueError("convention must be 'bead' or 'bond_midpoint'")
    sigma = math.sqrt(model.mass * thermo.n_beads / thermo.beta)
    gen = _streams.stream(cfg.seed, _streams.MOMENTA, 0)
    p = sigma * gen.standard_normal((cfg.n_samples, thermo.n_beads))
    if convention == "bond_midpoint":
        p = 0.5 * (p + np.roll(p, -1, axis=1))
    return p


# ----------------------------------------------------------------------
# static estimators

def estimate_static_average(obs, positions=None, momenta=None, blocks=N_BLOCKS):
    """Ensemble mean of a centroid observable with a block standard error.

    positions and momenta are (n_samples, N) bead arrays; obs reads the one
    of its kind, and the other may be None.
    """
    vals = obs.centroid(positions, momenta)
    return float(vals.mean()), float(block_standard_error(vals, blocks))


def mean_square_position(ensemble, model, thermo, blocks=N_BLOCKS):
    """<(1/N) sum_k x_k^2> with exact centroid integration.

    The centroid coordinate is integrated out analytically (or by quadrature
    for anharmonic wells) for every sampled internal configuration; this
    removes the dominant classical variance and leaves only the
    internal-mode fluctuations in the Monte Carlo error.  The estimator
    stays unbiased by the law of total expectation.  The plain estimator is
    estimate_static_average(OBS_Q2, ensemble), the sample mean of
    OBS_Q2.centroid over the rows.
    """
    x = np.asarray(ensemble, dtype=float)
    qc = x.mean(axis=1)
    u = x - qc[:, None]
    vals = _conditional_centroid_m2(model, thermo, u) + (u * u).mean(axis=1)
    return float(vals.mean()), float(block_standard_error(vals, blocks))


def _conditional_centroid_m2(model, thermo, u):
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

    t, wq = np.polynomial.legendre.leggauss(_CENTROID_NODES)
    out = np.empty(u.shape[0])
    for lo in range(0, u.shape[0], _CENTROID_CHUNK):
        hi = min(lo + _CENTROID_CHUNK, u.shape[0])
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
