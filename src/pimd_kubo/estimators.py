"""Correlation-function estimators, spectra and error bars.

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
from dataclasses import dataclass

import numpy as np

from . import _streams
from ._stats import RowAccumulator, block_standard_error as block_error
from .dynamics import check_accuracy, propagate_batch
from .errors import GridTooCoarse, InsufficientSamples, UnsupportedObservable
from .model import OMEGA_KINDS, ThermoParams, grad_fn
from .ringpoly import MOMENTUM, OBS_P, OBS_Q, POSITION, free_rp_frequencies
from .sampler import draw_momenta, map_in_order, sample_ring_positions
from .series import CorrelationSeries

CENTROID_DELTA = "centroid_delta"
POSITION_DELTA = "position_delta"

_TRAJ_CHUNK = 1024  # trajectories per propagation chunk (fixed; not tied to threads)

CMD_OBSERVABLES = (OBS_Q, OBS_P)  # the linear A that centroid dynamics admits
WINDOWS = ("none", "hann")  # spectrum tapers


@dataclass(frozen=True)
class FilterSpec:
    """One of the two built-in delta filters of the preaveraged formalism."""

    kind: str

    def __post_init__(self):
        if self.kind not in (CENTROID_DELTA, POSITION_DELTA):
            raise ValueError(f"unknown filter kind {self.kind!r}")


def _initial_values(obs, positions, momenta):
    if obs.kind == POSITION:
        return obs.f(positions).mean(axis=1)
    if obs.kind == MOMENTUM:
        return momenta.mean(axis=1)
    raise ValueError(f"unknown observable kind {obs.kind!r}")


def _chunks(n):
    return [(lo, min(lo + _TRAJ_CHUNK, n)) for lo in range(0, n, _TRAJ_CHUNK)]


def _correlator_from_ic(x0, p0, grad, mass, thermo, integrator_cfg, a_obs, b_obs,
                        workers=None):
    """(mean, block standard error) of A0(0) * B0(t) over the trajectories.

    x0 and p0 are (n_traj, N) bead arrays, propagated by propagate_batch on
    the gradient grad.  Chunks of trajectories propagate on the worker
    threads; their products are added to one RowAccumulator in trajectory
    order in this thread.
    """
    n = x0.shape[0]
    a0 = _initial_values(a_obs, x0, p0)
    acc = RowAccumulator(n)

    def job(span):
        lo, hi = span
        rec, _, _ = propagate_batch(x0[lo:hi], p0[lo:hi], grad, mass, thermo,
                                    integrator_cfg.dt, integrator_cfg.n_steps, [b_obs])
        prod = rec[0].T
        prod *= a0[lo:hi, None]  # A0(0) * B0(t), formed in place
        return prod

    map_in_order(job, _chunks(n), acc.add, workers)
    return acc.result()


def _check_request(method, sampler_cfg, integrator_cfg, model):
    """Reject too few trajectories, and for RPMD too coarse a time step."""
    if sampler_cfg.n_samples < 32:
        raise InsufficientSamples("need at least 32 trajectories")
    if method == "rpmd":
        check_accuracy(integrator_cfg, model)


def rpmd_initial_conditions(model, thermo, sampler_cfg, integrator_cfg,
                            momentum_convention="bead", workers=None):
    """Initial (positions, momenta) of the RPMD correlator, each (n_samples, N).

    Positions are sampled from the ring density, momenta from the Maxwell
    distribution (bead or bond-midpoint convention).  The trajectory count
    and the time step are checked first, so a bad request fails before the
    sampler runs.
    """
    _check_request("rpmd", sampler_cfg, integrator_cfg, model)
    x0 = sample_ring_positions(model, thermo, sampler_cfg, workers=workers)
    p0 = draw_momenta(thermo, model, sampler_cfg, momentum_convention)
    return x0, p0


def rpmd_kubo_correlator(model, thermo, sampler_cfg, integrator_cfg, a_obs, b_obs,
                         momentum_convention="bead", workers=None, initial=None):
    """Kubo-transformed correlator from RPMD trajectories.

    The estimator is the ensemble mean of A0(0) * B0(t) with blocked errors,
    over trajectories started from rpmd_initial_conditions.  A caller that
    also needs the initial conditions passes them as initial=(x0, p0); they
    are not modified.
    """
    if initial is None:
        initial = rpmd_initial_conditions(model, thermo, sampler_cfg, integrator_cfg,
                                          momentum_convention, workers)
    else:
        _check_request("rpmd", sampler_cfg, integrator_cfg, model)
    x0, p0 = initial
    values, errors = _correlator_from_ic(x0, p0, grad_fn(model), model.mass, thermo,
                                         integrator_cfg, a_obs, b_obs, workers)
    return CorrelationSeries(integrator_cfg.times(), values, errors)


def cmd_kubo_correlator(model, thermo, table, sampler_cfg, integrator_cfg, a_obs, b_obs,
                        workers=None):
    """Kubo-transformed correlator from centroid dynamics on a force table.

    A must be linear (the position centroid q or the momentum); centroid
    positions are the centroids of an unconstrained ring ensemble, centroid
    momenta are exact Gaussians of variance m/beta.  The centroids propagate
    as one-bead ring polymers on table.gradient, on this thread.
    """
    if a_obs not in CMD_OBSERVABLES:
        raise UnsupportedObservable("centroid dynamics is defined for linear A only (q or p)")
    _check_request("cmd", sampler_cfg, integrator_cfg, model)
    x0 = sample_ring_positions(model, thermo, sampler_cfg, workers=workers)
    qc0 = x0.mean(axis=1)
    gen = _streams.stream(sampler_cfg.seed, _streams.CMD_MOMENTA, 0)
    pc0 = math.sqrt(model.mass / thermo.beta) * gen.standard_normal(qc0.size)
    centroid = ThermoParams(thermo.beta, 1, thermo.hbar)
    # a one-bead step spends its time in the interpreter, so worker threads
    # gain nothing, and their allocator arenas would keep freed records resident
    values, errors = _correlator_from_ic(qc0[:, None], pc0[:, None], table.gradient,
                                         model.mass, centroid, integrator_cfg, a_obs, b_obs,
                                         workers=1)
    return CorrelationSeries(integrator_cfg.times(), values, errors)


# ----------------------------------------------------------------------
# derivative route to momentum correlators

_D_EDGE = {
    0: np.array([-25.0, 48.0, -36.0, 16.0, -3.0]),
    1: np.array([-3.0, -10.0, 18.0, -6.0, 1.0]),
}


def kubo_momentum_correlator_via_derivative(series, mass):
    """C_Ap(t) = m dC_Aq/dt via 4th-order finite differences.

    One-sided stencils at the grid ends; standard errors propagate through
    the stencil coefficients assuming independent points.  The time step
    must resolve the series: dt * omega <= 0.2 at the frequency omega of the
    strongest line of its spectrum, taken after the <A><q> plateau (the
    mean of the last quarter) is subtracted, so a plateau's line at omega = 0
    cannot hide the oscillation.
    """
    n = len(series)
    if n < 5:
        raise GridTooCoarse("need at least 5 time points")
    h = series.dt
    omega, intensity = spectrum(_detrended(series))
    w_main = omega[intensity.argmax()]
    if h * w_main > 0.2:
        raise GridTooCoarse(f"dt * omega = {h * w_main:.3f} exceeds 0.2 at the strongest line")
    f = series.values
    se = series.std_errors
    d = np.empty(n)
    dse = np.empty(n)

    def stencil(coeffs, idx):
        return coeffs @ f[idx] / (12.0 * h), math.sqrt(((coeffs**2) @ (se[idx] ** 2))) / (12.0 * h)

    for j, c in _D_EDGE.items():
        d[j], dse[j] = stencil(c, np.arange(5))
        d[n - 1 - j], dse[n - 1 - j] = stencil(-c[::-1], np.arange(n - 5, n))
    core = np.arange(2, n - 2)
    d[core] = (f[core - 2] - 8.0 * f[core - 1] + 8.0 * f[core + 1] - f[core + 2]) / (12.0 * h)
    dse[core] = np.sqrt(se[core - 2] ** 2 + 64.0 * se[core - 1] ** 2
                        + 64.0 * se[core + 1] ** 2 + se[core + 2] ** 2) / (12.0 * h)
    return CorrelationSeries(series.times, mass * d, mass * dse)


# ----------------------------------------------------------------------
# filtered densities and spectra

@dataclass
class DensityEstimate:
    centers: np.ndarray
    density: np.ndarray
    bin_width: float
    metadata: dict


def filtered_density_estimate(filter_spec, model, thermo, sampler_cfg, grid=None,
                              workers=None):
    """Histogram estimate of the filtered density rho_0 on a uniform grid.

    CentroidDelta bins the position centroid (the momentum factor is the
    analytic Gaussian of variance m/beta and is reported in the metadata);
    PositionDelta bins the pooled per-bead marginal of the ring density.
    With grid=None the bin width follows Scott's rule.
    """
    ens = sample_ring_positions(model, thermo, sampler_cfg, workers=workers)
    if filter_spec.kind == CENTROID_DELTA:
        data = ens.mean(axis=1)
    else:
        data = ens.ravel()
    if data.size < 32:
        raise InsufficientSamples("need at least 32 samples")
    if grid is None:
        width = 3.49 * data.std() * data.size ** (-1.0 / 3.0)
        lo = data.mean() - 5.0 * data.std()
        nbins = max(8, int(math.ceil((data.max() + width - lo) / width)))
        edges = lo + width * np.arange(nbins + 1)
    else:
        edges = np.asarray(grid, dtype=float)
        width = float(edges[1] - edges[0])
    counts, edges = np.histogram(data, bins=edges)
    density = counts / (counts.sum() * width)
    meta = {"model": model.kind, "mass": model.mass, "beta": thermo.beta,
            "n_beads": thermo.n_beads, "hbar": thermo.hbar, "filter": filter_spec.kind,
            "bin_rule": "scott" if grid is None else "given", "bin_width": width,
            "n_samples": int(data.size)}
    if model.kind in OMEGA_KINDS:
        meta["omega"] = model.omega
    if filter_spec.kind == CENTROID_DELTA:
        meta["p_variance"] = model.mass / thermo.beta
    return DensityEstimate(0.5 * (edges[:-1] + edges[1:]), density, width, meta)


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
