"""Correlation-function estimators and spectra.

Correlators are assembled from fresh equilibrium initial conditions, one
microcanonical trajectory per sample; origin averaging along a single long
trajectory is deliberately avoided because RPMD trajectories do not resample
the thermal ensemble.  RPMD and CMD share one correlator: RPMD runs N-bead
ring polymers on the bare potential, CMD one-bead ones (the centroids) on
the mean force of a CentroidForceTable.  At one seed RPMD and CMD share
their initial rings: CMD starts from the centroids of the rings of
rpmd_initial_conditions, which the harmonic CAQ reference
(oracle.harmonic_caq_reference) takes too, so the methods' comparisons are
paired draws.
The trajectories propagate in chunks of a fixed number of bead values, so
the chunks depend only on N and the trajectory count.  Each chunk
propagates in time segments and sums the products A0(0) * B(t) of each
segment over each error block it reaches (_stats.block_sums); those sums
are added in chunk order.  So results are identical for any count of
worker processes, and no record longer than one segment is held.  A block
that straddles a chunk edge is summed as two partial sums, so _CHUNK_BEADS
fixes the rounding; the mean is not numpy's full reduction of the
products bit for bit, and is not meant to be.
"""

import numpy as np

from ._stats import N_BLOCKS, block_edges, block_sums, blocked_mean, row_chunks
from .dynamics import check_accuracy, propagate_batch
from .errors import InsufficientSamples, UnsupportedObservable
from .model import ThermoParams, force_fn
from .ringpoly import OBS_P, OBS_Q, free_rp_frequencies
from .sampler import draw_momenta, map_in_processes, resolve_workers, sample_ring_positions
from .series import CorrelationSeries

# Bead values per propagation chunk: 1024 rings at N = 32, 256 at N = 128 and
# every centroid of a CMD run at N = 1.  A constant, not tied to the workers.
_CHUNK_BEADS = 2**15

CMD_OBSERVABLES = (OBS_Q, OBS_P)  # the linear A that centroid dynamics admits


def _chunks(n, n_beads):
    size = max(1, _CHUNK_BEADS // n_beads)
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _correlator_from_ic(x0, p0, force, mass, thermo, integrator_cfg, a_obs, b_obs):
    """(mean, block standard error) of A0(0) * B0(t) over the trajectories.

    x0 and p0 are (n_traj, N) bead arrays, propagated by propagate_batch on
    force(q, out), which writes -dV/dq into out.  Chunks of trajectories
    propagate in resolve_workers() worker processes (sampler.map_in_processes),
    each in time segments of at most _stats.CHUNK_ELEMENTS // rows steps; a
    segment restarts from the (x, p) its predecessor returns, which at
    N = 1 continues the trajectory bit for bit.  A chunk sums each
    segment's products over the error blocks it reaches
    (_stats.block_sums), and this process adds those sums in chunk order,
    so the bits depend on _CHUNK_BEADS and not on the worker count.  A step
    makes some 18 numpy calls of 10-100 us each on a chunk, so worker
    threads would contend for the interpreter lock; worker processes do
    not.  One-bead chunks (N = 1, as in CMD) propagate on this thread:
    a chunk holds 2^15 centroids, so a CMD run of fewer trajectories is
    one chunk, with nothing to share out.
    """
    n = x0.shape[0]
    n_steps = integrator_cfg.n_steps
    a0 = a_obs.centroid(x0, p0)
    edges = block_edges(n)
    total = np.zeros((N_BLOCKS, n_steps + 1))

    def job(span):
        lo, hi = span
        x, p = x0[lo:hi], p0[lo:hi]
        sums = np.empty((N_BLOCKS, n_steps + 1))  # its first rows: the blocks the chunk reaches
        for seg in row_chunks(n_steps, hi - lo):
            rec, x, p = propagate_batch(x, p, force, mass, thermo, integrator_cfg.dt,
                                        seg.stop - seg.start, [b_obs])
            new = 0 if seg.start == 0 else 1  # a later segment's row 0 ends the last one
            prod = rec[0, new:].T
            prod *= a0[lo:hi, None]  # A0(0) * B0(t), formed in place
            b, part = block_sums(prod, lo, edges)
            sums[:len(part), seg.start + new:seg.stop + 1] = part
            del rec, prod  # freed before the next segment's record is made
        return b, sums[:len(part)]

    def add(done):
        b, sums = done
        total[b:b + len(sums)] += sums

    map_in_processes(job, _chunks(n, thermo.n_beads), add,
                     1 if thermo.n_beads == 1 else resolve_workers())
    return blocked_mean(total, edges)


def _check_request(sampler_cfg, integrator_cfg, model):
    """Reject too few trajectories and too coarse a time step."""
    if sampler_cfg.n_samples < 2 * N_BLOCKS:
        raise InsufficientSamples(f"need at least {2 * N_BLOCKS} trajectories")
    check_accuracy(integrator_cfg, model)


def rpmd_initial_conditions(model, thermo, sampler_cfg, integrator_cfg):
    """Initial (positions, momenta) of the RPMD correlator, each (n_samples, N).

    Positions are sampled from the ring density, bead momenta from the
    Maxwell distribution.  The trajectory count and the time step are
    checked first, so a bad request fails before the sampler runs.
    """
    _check_request(sampler_cfg, integrator_cfg, model)
    x0 = sample_ring_positions(model, thermo, sampler_cfg)
    p0 = draw_momenta(model, thermo, sampler_cfg)
    return x0, p0


def rpmd_kubo_correlator(model, thermo, sampler_cfg, integrator_cfg, a_obs, b_obs,
                         initial=None):
    """Kubo-transformed correlator from RPMD trajectories.

    The estimator is the ensemble mean of A0(0) * B0(t) with blocked errors,
    over trajectories started from rpmd_initial_conditions.  A caller that
    also needs the initial conditions passes them as initial=(x0, p0); they
    are not modified.
    """
    if initial is None:
        initial = rpmd_initial_conditions(model, thermo, sampler_cfg, integrator_cfg)
    else:
        _check_request(sampler_cfg, integrator_cfg, model)
    x0, p0 = initial
    values, errors = _correlator_from_ic(x0, p0, force_fn(model), model.mass, thermo,
                                         integrator_cfg, a_obs, b_obs)
    return CorrelationSeries(integrator_cfg.times(), values, errors)


def cmd_kubo_correlator(model, thermo, table, sampler_cfg, integrator_cfg, a_obs, b_obs):
    """Kubo-transformed correlator from centroid dynamics on a force table.

    A must be linear (the position centroid q or the momentum).  The initial
    centroids (q_c, p_c) are the bead means of the rings of
    rpmd_initial_conditions at the same seed, whose bead momenta have
    variance m N / beta, so p_c is an exact Gaussian of variance m/beta.
    The centroids propagate as one-bead ring polymers on table.force_at, on
    this thread.
    """
    if a_obs not in CMD_OBSERVABLES:
        raise UnsupportedObservable("centroid dynamics is defined for linear A only (q or p)")
    x0, p0 = rpmd_initial_conditions(model, thermo, sampler_cfg, integrator_cfg)
    centroid = ThermoParams(thermo.beta, 1, thermo.hbar)
    values, errors = _correlator_from_ic(x0.mean(axis=1)[:, None], p0.mean(axis=1)[:, None],
                                         table.force_at, model.mass, centroid, integrator_cfg,
                                         a_obs, b_obs)
    return CorrelationSeries(integrator_cfg.times(), values, errors)


# ----------------------------------------------------------------------
# spectra

def spectrum(series):
    """Cosine transform of the Hann-tapered, even-extended series; returns (omega, |F|).

    The Hann taper cos^2(pi t / (2 t_max)) takes the series to zero at its
    last time t_max before the even extension; intensities are reported as
    magnitudes, so they are >= 0.
    """
    v = series.values.copy()
    n = v.size
    if n < 2:
        raise ValueError("series too short for a spectrum")
    dt = series.dt
    v *= np.cos(0.5 * np.pi * np.arange(n) / (n - 1)) ** 2
    ext = np.concatenate([v, v[-2:0:-1]])
    amp = np.abs(np.fft.rfft(ext)) * dt
    omega = 2.0 * np.pi * np.fft.rfftfreq(ext.size, d=dt)
    return omega, amp


def _detrended(series):
    """series less the mean of its last quarter, the <A><B> plateau of a nonlinear observable."""
    plateau = series.values[-len(series) // 4:].mean()
    return CorrelationSeries(series.times, series.values - plateau, series.std_errors)


def band_peaks(series, reference, thermo, ks, detrend=False):
    """Hann-spectrum lines of series near the free ring-polymer frequencies.

    series and reference (say RPMD and the exact correlator) share their
    times.  With detrend, each first loses the mean of its last quarter, the
    <A><B> plateau of a nonlinear observable.  Returns (w_main, bands): the
    main-line frequency of each spectrum, and per k in ks the strongest line
    in the band [0.85, 1.15] w_k as (k, w_k, rel, rel_ref, spurious), with
    each intensity relative to the main line of its own spectrum; spurious
    marks rel >= 5 % where rel_ref <= 1 %.
    """
    if detrend:
        series, reference = _detrended(series), _detrended(reference)
    om, inten = spectrum(series)
    _, inten_ref = spectrum(reference)
    w_free = free_rp_frequencies(thermo)
    bands = []
    for k in ks:
        band = (om >= 0.85 * w_free[k]) & (om <= 1.15 * w_free[k])
        rel = inten[band].max() / inten.max()
        rel_ref = inten_ref[band].max() / inten_ref.max()
        bands.append((k, w_free[k], rel, rel_ref, bool(rel >= 0.05 and rel_ref <= 0.01)))
    return (om[inten.argmax()], om[inten_ref.argmax()]), bands
