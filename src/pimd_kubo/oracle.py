"""Exact quantum references: grid diagonalization and spectral correlators.

The Hamiltonian is represented on a uniform position grid with a Fourier
(periodic plane-wave) kinetic operator, which is exponentially accurate for
states that vanish at the box edges.  A Kubo-transformed correlator is then
one weighted pair sum in the energy basis,
    C(t) = (1/Z) sum_nm w_nm A_nm B_mn exp(i (En - Em) t / hbar),
whose weights w_nm average e^{-lam En} e^{-(beta - lam) Em} over the
imaginary time lam in [0, beta].  Two rules give them: kubo_weights is the
exact lam integral, discrete_kubo_weights its N-slice trapezoid rule, which
is what an N-bead ring polymer sees.  The harmonic-well references (the
Gaussian swarm trace and the classically evolved centroid) provide
independent cross checks.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BoundaryLeak, GridUnresolved, QuadratureFailure, SpectralIncomplete
from .model import HARMONIC, potential_eval, require_integers
from .ringpoly import MOMENTUM, bond_midpoints
from .series import CorrelationSeries
from ._stats import N_BLOCKS, block_edges, block_sums, blocked_mean, row_chunks

_BOUNDARY_TOL = 1e-8
_SWARM_TOL = 1e-8  # largest |I_32 - I_64| the swarm trace accepts per bead


@dataclass(frozen=True)
class GridSpec:
    q_min: float
    q_max: float
    n_points: int

    def __post_init__(self):
        if not -np.inf < self.q_min < self.q_max < np.inf:
            raise ValueError("q_min must be < q_max, both finite")
        require_integers(self, "n_points")
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
    """The symmetrised Fourier kinetic matrix, built in column blocks of _stats.row_chunks.

    Column j of t is ifft(T fft(e_j)), T the kinetic energy of each
    wavenumber; each block's transforms are those of the same columns of
    the whole identity, so the bits do not depend on the blocks, and no
    (n, n) complex array is formed.  t is symmetrised in place: numpy
    buffers the overlapping t.T, so the sum rounds as t + t.T into a new
    array would.  (A new (n, n) sum stayed resident after the oracle on a
    640-point grid and raised a later stage's peak RSS by about 1.3 MB.)
    """
    n = grid.n_points
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.dq)
    kinetic = (hbar**2 * k**2 / (2.0 * mass))[:, None]
    t = np.empty((n, n))
    for cols in row_chunks(n, n):
        j = np.arange(cols.stop - cols.start)
        block = np.zeros((n, j.size))
        block[cols.start + j, j] = 1.0
        block = np.fft.fft(block, axis=0)
        block *= kinetic
        t[:, cols] = np.fft.ifft(block, axis=0).real
    t += t.T
    t *= 0.5
    return t


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
        raise GridUnresolved(
            "grid spacing does not resolve the de Broglie scale of the highest retained state")
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


def _boltzmann(eig, beta):
    """Thermal weights exp(-beta (E - E0)) of the retained states.

    Raises SpectralIncomplete when the highest retained state carries a
    thermal weight of 1e-12 or more, so the basis misses the density.
    """
    boltz = np.exp(-beta * (eig.energies - eig.energies[0]))
    if boltz[-1] / boltz.sum() >= 1e-12:
        raise SpectralIncomplete(
            "highest retained state carries thermal weight >= 1e-12; retain more states")
    return boltz


def thermal_average(eig, f, beta):
    """<f(q)> over the retained thermal density."""
    boltz = _boltzmann(eig, beta)
    diag = np.diag(position_matrix(eig, f))
    return float((boltz * diag).sum() / boltz.sum())


def kubo_weights(energies, beta):
    """Thermal weights (e^{-b En} - e^{-b Em}) / (b (Em - En)), shifted by E0.

    The lam integral (1/b) int_0^b e^{-lam En} e^{-(b - lam) Em} dlam,
    formed as e^{-b min(En, Em)} (1 - e^{-s}) / s with s = b |Em - En|, so
    every exponent is <= 0; expm1 keeps 1 - e^{-s} accurate as s -> 0, and
    a degenerate pair (s = 0) takes the limit e^{-b En}.
    """
    es = energies - energies[0]
    s = np.abs(beta * (es[None, :] - es[:, None]))
    safe = np.where(s > 0, s, 1.0)
    bmin = np.exp(-beta * np.minimum(es[None, :], es[:, None]))
    return np.where(s > 0, bmin * -np.expm1(-safe) / safe, bmin)


def discrete_kubo_weights(energies, beta, n_slices):
    """The N-slice trapezoid rule of kubo_weights' lam integral, shifted by E0.

    w_nm = (1/N) sum_{j=0}^{N} c_j e^{-lam_j En} e^{-(b - lam_j) Em},
    lam_j = b j / N, c_0 = c_N = 1/2 and c_j = 1 otherwise: the weights of
    the discretized transform
        K = (1/2N)(A e^{-bH} + e^{-bH} A) + (1/N) sum_{j=1}^{N-1}
            e^{-b j H / N} A e^{-b (1 - j/N) H},
    formed as one product of two (N + 1, M) exponential tables.

    By Euler-Maclaurin, the correlator D_N built from these weights differs
    from the exact Kubo correlator C at t = 0 by
        D_N - C = (b / 12 N^2) <[[A, H], B]> + O(N^-4),
    where <[[A, H], B]> is hbar^2 / m for A = B = q and 4 hbar^2 <q^2> / m
    for A = B = q^2.
    """
    if n_slices < 1:
        raise ValueError("n_slices must be >= 1")
    es = energies - energies[0]
    lam = beta * np.arange(n_slices + 1) / n_slices
    c = np.r_[0.5, np.ones(n_slices - 1), 0.5] / n_slices  # c_j / N
    return (c[:, None] * np.exp(-np.outer(lam, es))).T @ np.exp(-np.outer(beta - lam, es))


def _kubo_correlator(eig, a_obs, b_obs, beta, times, weights):
    """C(t) = (1/Z) sum_nm w_nm A_nm B_mn exp(i (En - Em) t / hbar) for the pair weights w.

    g = w * A * B^T / Z is formed once, from Z of the checked thermal
    weights (_boltzmann); element (n, m) pairs with <m|B(t)|n> =
    B_mn e^{i(Em - En)t/hbar}.  The times are walked in row chunks
    (_stats.row_chunks).  The result of a Hermitian pair with symmetric
    weights is real, and the imaginary residue is checked.
    """
    times = np.asarray(times, dtype=float)
    z = _boltzmann(eig, beta).sum()
    g = (weights * observable_matrix(eig, a_obs) * observable_matrix(eig, b_obs).T / z).ravel()
    es = eig.energies - eig.energies[0]
    de = (es[None, :] - es[:, None]).ravel() / eig.hbar
    vals = np.empty(times.size, dtype=complex)
    for rows in row_chunks(times.size, 2 * de.size):  # a complex element is two floats
        phase = 1j * np.outer(times[rows], de)
        vals[rows] = np.exp(phase, out=phase) @ g  # in place: one (chunk, M^2) array
    residue = np.abs(vals.imag).max() if vals.size else 0.0
    if residue >= 1e-10 * max(1.0, np.abs(vals.real).max()):
        raise RuntimeError(f"imaginary residue {residue:.2e} of the spectral sum")
    return CorrelationSeries(times, vals.real, np.zeros_like(times))


def exact_kubo_correlator(eig, a_obs, b_obs, beta, times):
    """Spectral evaluation of the Kubo-transformed correlator C_AB(t), weights kubo_weights."""
    return _kubo_correlator(eig, a_obs, b_obs, beta, times, kubo_weights(eig.energies, beta))


def discrete_kubo_correlator(eig, a_obs, b_obs, beta, n_slices, times):
    """The N-slice correlator D_N(t): the pair sum with weights discrete_kubo_weights."""
    return _kubo_correlator(eig, a_obs, b_obs, beta, times,
                            discrete_kubo_weights(eig.energies, beta, n_slices))


# ----------------------------------------------------------------------
# harmonic-well references

def _require_harmonic(model):
    if model.kind != HARMONIC:
        raise ValueError("this reference is defined for the harmonic model only")


@lru_cache(maxsize=1)
def _swarm_rules():
    """Probabilists' Gauss-Hermite rules (weight exp(-z^2 / 2)) of orders 32 and 64.

    Each is exact for polynomials of degree < 2n, as (nodes, weights /
    sqrt(2 pi)); formed on first use, not at import.
    """
    return [(z, w / math.sqrt(2.0 * math.pi))
            for z, w in map(np.polynomial.hermite_e.hermegauss, (32, 64))]


def harmonic_swarm_trace(x, p, t, f, model, thermo):
    """Bead-averaged Gaussian swarm value of a position function f at time t.

    x and p are the (N,) bead positions and momenta of one ring.  Each bead
    contributes the expectation of f under a Gaussian of variance
    beta hbar^2 sin^2(w t) / (4 m N) centered on the classically evolved
    bead position; at sin(w t) = 0 the Gaussian is a delta (analytic limit).
    The expectations are Gauss-Hermite sums of orders 32 and 64 over all
    beads at once; the order-64 value I_64 is returned, and a bead whose
    |I_32 - I_64| exceeds _SWARM_TOL (or is not finite) raises
    QuadratureFailure.
    """
    _require_harmonic(model)
    n = x.size
    w, m = model.omega, model.mass
    s, c = math.sin(w * t), math.cos(w * t)
    centers = x * c + bond_midpoints(p) * s / (m * w)
    if s == 0.0:
        return float(np.mean(f(centers)))
    sigma = math.sqrt(thermo.beta * thermo.hbar**2 * s**2 / (4.0 * m * n))
    low, high = (f(centers[:, None] + sigma * z) @ wz for z, wz in _swarm_rules())
    err = np.abs(low - high).max()
    if not err <= _SWARM_TOL:
        raise QuadratureFailure(f"quadrature error estimate {err:.2e} exceeds {_SWARM_TOL:.0e}")
    return float(high.mean())


def harmonic_caq_reference(model, thermo, a_obs, times, x, p):
    """Monte Carlo closed-form reference for C_Aq(t) in a harmonic well.

    x and p are (n_rings, N) bead positions and momenta drawn from R(x) and
    the Maxwell distribution, say the rings that RPMD and CMD start from at
    one seed (estimators.rpmd_initial_conditions); they are left untouched.
    The position centroid evolves classically from the bond-midpoint
    momenta and is correlated against A0 at time zero, row chunk by row
    chunk (_stats.row_chunks), each chunk adding its sums over the error
    blocks it reaches (_stats.block_sums).
    """
    _require_harmonic(model)
    times = np.asarray(times, dtype=float)
    a0 = a_obs.centroid(x, p)
    qc = x.mean(axis=1)
    pc_mid = bond_midpoints(p).mean(axis=1)
    w, m = model.omega, model.mass
    cos_t, sin_t = np.cos(w * times)[None, :], np.sin(w * times)[None, :]
    v0 = pc_mid / (m * w)
    edges = block_edges(len(a0))
    total = np.zeros((N_BLOCKS, times.size))
    for rows in row_chunks(len(a0), times.size):
        x0_t = qc[rows, None] * cos_t + v0[rows, None] * sin_t
        b, sums = block_sums(a0[rows, None] * x0_t, rows.start, edges)
        total[b:b + len(sums)] += sums
    vals, errs = blocked_mean(total, edges)
    return CorrelationSeries(times, vals, errs)
