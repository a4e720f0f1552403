"""Exact quantum references: grid diagonalization and spectral correlators.

The Hamiltonian is represented on a uniform position grid with a Fourier
(periodic plane-wave) kinetic operator, which is exponentially accurate for
states that vanish at the box edges.  Kubo-transformed correlators are then
energy-basis double sums; the imaginary-time-discretized transform and the
harmonic-well references (the Gaussian swarm trace and the classically
evolved centroid) provide independent cross checks.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .errors import BoundaryLeak, QuadratureFailure, SpectralIncomplete
from .model import HARMONIC, potential_eval
from .ringpoly import MOMENTUM, Observable
from .sampler import draw_momenta, sample_ring_positions
from .series import CorrelationSeries
from ._stats import RowAccumulator

_DEGENERATE_CUT = 1e-10
_BOUNDARY_TOL = 1e-8
_ROW_CHUNK = 1024  # trajectories whose A0 * q_c(t) rows are formed at once
_SWARM_TOL = 1e-8  # largest |I_32 - I_64| the swarm trace accepts per bead
# probabilists' Gauss-Hermite rules (weight exp(-z^2 / 2)) of the swarm trace,
# exact for polynomials of degree < 2n: (nodes, weights / sqrt(2 pi)) per order
_SWARM_RULES = [(z, w / math.sqrt(2.0 * math.pi)) for z, w in map(hermegauss, (32, 64))]


@dataclass(frozen=True)
class GridSpec:
    q_min: float
    q_max: float
    n_points: int

    def __post_init__(self):
        if not self.q_min < self.q_max:
            raise ValueError("q_min must be < q_max")
        if self.n_points < 64:
            raise ValueError("n_points must be >= 64")

    @property
    def dq(self):
        return (self.q_max - self.q_min) / self.n_points

    def points(self):
        # periodic box: q_max is identified with q_min and not duplicated
        return self.q_min + self.dq * np.arange(self.n_points)


@dataclass
class EigenSystem:
    """Lowest eigenpairs of the grid Hamiltonian, quadrature-normalized."""

    energies: np.ndarray
    states: np.ndarray  # (n_points, n_retained), sum psi^2 dq = 1
    grid: GridSpec
    mass: float
    hbar: float


def _kinetic_matrix(grid, mass, hbar):
    n = grid.n_points
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.dq)
    t = np.fft.fft(np.eye(n), axis=0)
    t *= (hbar**2 * k**2 / (2.0 * mass))[:, None]  # in place: no second (n, n) complex array
    t = np.fft.ifft(t, axis=0).real
    return 0.5 * (t + t.T)


def diagonalize(model, grid, n_retained, hbar=1.0):
    """Lowest n_retained eigenpairs of p^2/2m + V on the grid."""
    if n_retained < 1 or n_retained > grid.n_points:
        raise ValueError("n_retained must be in [1, n_points]")
    q = grid.points()
    h = _kinetic_matrix(grid, model.mass, hbar)
    h[np.diag_indices_from(h)] += potential_eval(model, q)
    energies, vecs = np.linalg.eigh(h)
    energies = energies[:n_retained]
    states = vecs[:, :n_retained] / math.sqrt(grid.dq)
    # canonical sign: largest-magnitude component positive
    idx = np.argmax(np.abs(states), axis=0)
    signs = np.sign(states[idx, np.arange(n_retained)])
    states = states * signs[None, :]

    edge = max(np.abs(states[0]).max(), np.abs(states[-1]).max())
    if edge >= _BOUNDARY_TOL:
        raise BoundaryLeak(f"retained eigenstate amplitude {edge:.2e} at the grid edge")
    e_max = float(energies[-1])
    if e_max > 0 and grid.dq > (np.pi / 4.0) * hbar / math.sqrt(2.0 * model.mass * e_max):
        raise ValueError("grid spacing does not resolve the de Broglie scale of the highest retained state")
    return EigenSystem(energies, states, grid, model.mass, hbar)


def position_matrix(eig, f):
    """Matrix elements <n| f(q) |m> by grid quadrature."""
    fq = f(eig.grid.points())
    return (eig.states.T * fq) @ eig.states * eig.grid.dq


def momentum_matrix(eig):
    """Matrix elements <n| p |m> = -i hbar <n| d/dq |m> (spectral derivative)."""
    n = eig.grid.n_points
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=eig.grid.dq)
    dpsi = np.fft.ifft(1j * k[:, None] * np.fft.fft(eig.states, axis=0), axis=0).real
    return -1j * eig.hbar * (eig.states.T @ dpsi) * eig.grid.dq


def observable_matrix(eig, obs):
    if obs.kind == MOMENTUM:
        return momentum_matrix(eig)
    return position_matrix(eig, obs.f)


def thermal_average(eig, f, beta):
    """<f(q)> over the retained thermal density."""
    es = eig.energies - eig.energies[0]
    boltz = np.exp(-beta * es)
    _check_complete(boltz)
    diag = np.diag(position_matrix(eig, f))
    return float((boltz * diag).sum() / boltz.sum())


def _check_complete(boltz):
    if boltz[-1] / boltz.sum() >= 1e-12:
        raise SpectralIncomplete(
            "highest retained state carries thermal weight >= 1e-12; retain more states")


def kubo_weights(energies, beta):
    """Thermal weights (e^{-b En} - e^{-b Em}) / (b (Em - En)), shifted by E0.

    Near-degenerate pairs use the series e^{-b En}(1 - x/2 + x^2/6 - x^3/24),
    x = b (Em - En), removing the 0/0 without branching on exact equality.
    Distant pairs factor out the smaller energy so every exponent is <= 0.
    """
    es = energies - energies[0]
    de = es[None, :] - es[:, None]  # Em - En
    x = beta * de
    bn = np.exp(-beta * es)[:, None]
    near = np.abs(de) < _DEGENERATE_CUT * np.maximum(1.0, np.abs(es)[:, None])
    absx = np.abs(x)
    safe = np.where(near, 1.0, absx)
    bmin = np.exp(-beta * np.minimum(es[None, :], es[:, None]))
    w = np.where(near,
                 bn * (1.0 - x / 2.0 + x**2 / 6.0 - x**3 / 24.0),
                 bmin * -np.expm1(-safe) / safe)
    return w


def _spectral_sum(eig, beta, times, pair_weights):
    """sum_nm G_nm exp(i (Em - En) t / hbar) at each time, complex.

    G = pair_weights(boltz) is built after the thermal weights
    boltz = exp(-beta (E - E0)) pass the completeness check; element (n, m)
    pairs with <m|B(t)|n> = B_mn e^{i(Em - En)t/hbar}.
    """
    es = eig.energies - eig.energies[0]
    boltz = np.exp(-beta * es)
    _check_complete(boltz)
    g = pair_weights(boltz).ravel()
    de = (es[None, :] - es[:, None]).ravel() / eig.hbar
    vals = np.empty(times.size, dtype=complex)
    chunk = 512
    for lo in range(0, times.size, chunk):
        hi = min(lo + chunk, times.size)
        phase = 1j * np.outer(times[lo:hi], de)
        vals[lo:hi] = np.exp(phase, out=phase) @ g  # in place: one (chunk, M^2) array
    return vals


def exact_kubo_correlator(eig, a_obs, b_obs, beta, times):
    """Spectral evaluation of the Kubo-transformed correlator C_AB(t).

    C(t) = (1/Z) sum_nm w_nm A_nm B_mn exp(i (En - Em) t / hbar); the result
    of a Hermitian pair is real and the imaginary residue is checked.
    """
    times = np.asarray(times, dtype=float)

    def pair_weights(boltz):
        a_mat = observable_matrix(eig, a_obs)
        b_mat = observable_matrix(eig, b_obs)
        return kubo_weights(eig.energies, beta) * a_mat * b_mat.T / boltz.sum()

    vals = _spectral_sum(eig, beta, times, pair_weights)
    residue = np.abs(vals.imag).max() if vals.size else 0.0
    if residue >= 1e-10 * max(1.0, np.abs(vals.real).max()):
        raise RuntimeError(f"imaginary residue {residue:.2e} of the spectral sum")
    return CorrelationSeries(times, vals.real, np.zeros_like(times))


def discrete_kubo_transform(eig, a_obs, beta, n_slices):
    """Trapezoid-discretized Kubo transform of A in the retained eigenbasis.

    K = (1/2N)(A e^{-bH} + e^{-bH} A) + (1/N) sum_{j=1}^{N-1}
        e^{-b j H / N} A e^{-b (1 - j/N) H}

    By Euler-Maclaurin, the correlator D_N built from K differs from the
    exact Kubo correlator C at t = 0 by
        D_N - C = (b / 12 N^2) <[[A, H], B]> + O(N^-4),
    where <[[A, H], B]> is hbar^2 / m for A = B = q and 4 hbar^2 <q^2> / m
    for A = B = q^2.
    """
    if n_slices < 1:
        raise ValueError("n_slices must be >= 1")
    e = eig.energies
    a_mat = observable_matrix(eig, a_obs)
    bn = np.exp(-beta * e)
    k = 0.5 / n_slices * (a_mat * bn[None, :] + bn[:, None] * a_mat)
    for j in range(1, n_slices):
        lam = beta * j / n_slices
        k = k + (np.exp(-lam * e)[:, None] * a_mat * np.exp(-(beta - lam) * e)[None, :]) / n_slices
    return k


def discrete_kubo_correlator(eig, a_obs, b_obs, beta, n_slices, times):
    """Pair the discretized transform with exact real-time evolution of B."""
    times = np.asarray(times, dtype=float)

    def pair_weights(_):
        z = np.exp(-beta * eig.energies).sum()
        k_mat = discrete_kubo_transform(eig, a_obs, beta, n_slices)
        return k_mat * observable_matrix(eig, b_obs).T / z

    vals = _spectral_sum(eig, beta, times, pair_weights)
    return CorrelationSeries(times, vals.real, np.zeros_like(times))


# ----------------------------------------------------------------------
# harmonic-well references

def _require_harmonic(model):
    if model.kind != HARMONIC:
        raise ValueError("this reference is defined for the harmonic model only")


def harmonic_swarm_trace(x, p, t, b, model, thermo):
    """Bead-averaged Gaussian swarm value of a position observable at time t.

    Each bead contributes the expectation of B under a Gaussian of variance
    beta hbar^2 sin^2(w t) / (4 m N) centered on the classically evolved
    bead position; at sin(w t) = 0 the Gaussian is a delta (analytic limit).
    The expectations are Gauss-Hermite sums of orders 32 and 64 over all
    beads at once; the order-64 value I_64 is returned, and a bead whose
    |I_32 - I_64| exceeds _SWARM_TOL (or is not finite) raises
    QuadratureFailure.
    """
    _require_harmonic(model)
    f = b.f if isinstance(b, Observable) else b
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    n = x.size
    w, m = model.omega, model.mass
    s, c = math.sin(w * t), math.cos(w * t)
    p_mid = 0.5 * (p + np.roll(p, -1))
    centers = x * c + p_mid * s / (m * w)
    if s == 0.0:
        return float(np.mean(f(centers)))
    sigma = math.sqrt(thermo.beta * thermo.hbar**2 * s**2 / (4.0 * m * n))
    low, high = (f(centers[:, None] + sigma * z) @ wz for z, wz in _SWARM_RULES)
    err = np.abs(low - high).max()
    if not err <= _SWARM_TOL:
        raise QuadratureFailure(f"quadrature error estimate {err:.2e} exceeds {_SWARM_TOL:.0e}")
    return float(high.mean())


def harmonic_caq_reference(model, thermo, a_obs, times, cfg):
    """Monte Carlo closed-form reference for C_Aq(t) in a harmonic well.

    Positions are sampled from R(x), bead momenta from the Maxwell
    distribution; the position centroid then evolves classically from the
    bond-midpoint momenta and is correlated against A0 at time zero.
    """
    _require_harmonic(model)
    times = np.asarray(times, dtype=float)
    x = sample_ring_positions(model, thermo, cfg)
    p = draw_momenta(thermo, model, cfg, "bead")
    a0 = a_obs.centroid(x, p)
    qc = x.mean(axis=1)
    pc_mid = (0.5 * (p + np.roll(p, -1, axis=1))).mean(axis=1)
    w, m = model.omega, model.mass
    cos_t, sin_t = np.cos(w * times)[None, :], np.sin(w * times)[None, :]
    v0 = pc_mid / (m * w)
    acc = RowAccumulator(len(a0))
    for lo in range(0, len(a0), _ROW_CHUNK):
        rows = slice(lo, lo + _ROW_CHUNK)
        x0_t = qc[rows, None] * cos_t + v0[rows, None] * sin_t
        acc.add(a0[rows, None] * x0_t)
    vals, errs = acc.result()
    return CorrelationSeries(times, vals, errs)
