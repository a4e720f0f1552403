"""Correlation-function estimators and spectra.

Correlators are assembled from fresh equilibrium initial conditions, one
microcanonical trajectory per sample; origin averaging along a single long
trajectory is deliberately avoided because RPMD trajectories do not resample
the thermal ensemble.  RPMD and CMD share one correlator: RPMD runs N-bead
ring polymers on the bare potential, CMD one-bead ones (the centroids) on
the mean force of a CentroidForceTable.  The products A0(0) * B(t) of every
Monte Carlo correlator are streamed in trajectory order into running sums
(_stats.RowAccumulator), so results are identical for any work
partitioning and no n_traj x n_times product array is held.
"""

import math

import numpy as np

from . import _streams
from ._stats import RowAccumulator
from .dynamics import check_accuracy, propagate_batch
from .errors import InsufficientSamples, UnsupportedObservable
from .model import ThermoParams, grad_fn
from .ringpoly import OBS_P, OBS_Q, free_rp_frequencies
from .sampler import draw_momenta, map_in_order, resolve_workers, sample_ring_positions
from .series import CorrelationSeries

_TRAJ_CHUNK = 1024  # trajectories per propagation chunk (fixed; not tied to threads)

CMD_OBSERVABLES = (OBS_Q, OBS_P)  # the linear A that centroid dynamics admits
WINDOWS = ("none", "hann")  # spectrum tapers


def _chunks(n):
    return [(lo, min(lo + _TRAJ_CHUNK, n)) for lo in range(0, n, _TRAJ_CHUNK)]


def _correlator_from_ic(x0, p0, grad, mass, thermo, integrator_cfg, a_obs, b_obs):
    """(mean, block standard error) of A0(0) * B0(t) over the trajectories.

    x0 and p0 are (n_traj, N) bead arrays, propagated by propagate_batch on
    the gradient grad.  Chunks of trajectories propagate on
    resolve_workers() threads; their products are added to one
    RowAccumulator in trajectory order in this thread.  One-bead chunks
    (N = 1, as in CMD) propagate on this thread: their step spends its time
    in the interpreter, so worker threads gain nothing, and the threads'
    allocator arenas would keep freed records resident.
    """
    n = x0.shape[0]
    a0 = a_obs.centroid(x0, p0)
    acc = RowAccumulator(n)

    def job(span):
        lo, hi = span
        rec, _, _ = propagate_batch(x0[lo:hi], p0[lo:hi], grad, mass, thermo,
                                    integrator_cfg.dt, integrator_cfg.n_steps, [b_obs])
        prod = rec[0].T
        prod *= a0[lo:hi, None]  # A0(0) * B0(t), formed in place
        return prod

    map_in_order(job, _chunks(n), acc.add, 1 if thermo.n_beads == 1 else resolve_workers())
    return acc.result()


def _check_request(sampler_cfg, integrator_cfg, model):
    """Reject too few trajectories and too coarse a time step."""
    if sampler_cfg.n_samples < 32:
        raise InsufficientSamples("need at least 32 trajectories")
    check_accuracy(integrator_cfg, model)


def rpmd_initial_conditions(model, thermo, sampler_cfg, integrator_cfg,
                            momentum_convention="bead"):
    """Initial (positions, momenta) of the RPMD correlator, each (n_samples, N).

    Positions are sampled from the ring density, momenta from the Maxwell
    distribution (bead or bond-midpoint convention).  The trajectory count
    and the time step are checked first, so a bad request fails before the
    sampler runs.
    """
    _check_request(sampler_cfg, integrator_cfg, model)
    x0 = sample_ring_positions(model, thermo, sampler_cfg)
    p0 = draw_momenta(thermo, model, sampler_cfg, momentum_convention)
    return x0, p0


def rpmd_kubo_correlator(model, thermo, sampler_cfg, integrator_cfg, a_obs, b_obs,
                         momentum_convention="bead", initial=None):
    """Kubo-transformed correlator from RPMD trajectories.

    The estimator is the ensemble mean of A0(0) * B0(t) with blocked errors,
    over trajectories started from rpmd_initial_conditions.  A caller that
    also needs the initial conditions passes them as initial=(x0, p0); they
    are not modified.
    """
    if initial is None:
        initial = rpmd_initial_conditions(model, thermo, sampler_cfg, integrator_cfg,
                                          momentum_convention)
    else:
        _check_request(sampler_cfg, integrator_cfg, model)
    x0, p0 = initial
    values, errors = _correlator_from_ic(x0, p0, grad_fn(model), model.mass, thermo,
                                         integrator_cfg, a_obs, b_obs)
    return CorrelationSeries(integrator_cfg.times(), values, errors)


def cmd_kubo_correlator(model, thermo, table, sampler_cfg, integrator_cfg, a_obs, b_obs):
    """Kubo-transformed correlator from centroid dynamics on a force table.

    A must be linear (the position centroid q or the momentum); centroid
    positions are the centroids of an unconstrained ring ensemble, centroid
    momenta are exact Gaussians of variance m/beta.  The centroids propagate
    as one-bead ring polymers on table.gradient, on this thread.
    """
    if a_obs not in CMD_OBSERVABLES:
        raise UnsupportedObservable("centroid dynamics is defined for linear A only (q or p)")
    _check_request(sampler_cfg, integrator_cfg, model)
    x0 = sample_ring_positions(model, thermo, sampler_cfg)
    qc0 = x0.mean(axis=1)
    gen = _streams.stream(sampler_cfg.seed, _streams.CMD_MOMENTA, 0)
    pc0 = math.sqrt(model.mass / thermo.beta) * gen.standard_normal(qc0.size)
    centroid = ThermoParams(thermo.beta, 1, thermo.hbar)
    values, errors = _correlator_from_ic(qc0[:, None], pc0[:, None], table.gradient,
                                         model.mass, centroid, integrator_cfg, a_obs, b_obs)
    return CorrelationSeries(integrator_cfg.times(), values, errors)


# ----------------------------------------------------------------------
# spectra

def spectrum(series, window="none"):
    """Cosine transform of the even-extended series; returns (omega, |F|).

    window="hann" tapers the series to zero at the last time before the even
    extension; intensities are reported as magnitudes, so they are >= 0.
    """
    if window not in WINDOWS:
        raise ValueError("window must be 'none' or 'hann'")
    v = series.values.copy()
    n = v.size
    if n < 2:
        raise ValueError("series too short for a spectrum")
    dt = series.dt
    if window == "hann":
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
    om, inten = spectrum(series, window="hann")
    _, inten_ref = spectrum(reference, window="hann")
    w_free = free_rp_frequencies(thermo)
    bands = []
    for k in ks:
        band = (om >= 0.85 * w_free[k]) & (om <= 1.15 * w_free[k])
        rel = inten[band].max() / inten.max()
        rel_ref = inten_ref[band].max() / inten_ref.max()
        bands.append((k, w_free[k], rel, rel_ref, bool(rel >= 0.05 and rel_ref <= 0.01)))
    return (om[inten.argmax()], om[inten_ref.argmax()]), bands
