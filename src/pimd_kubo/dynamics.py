"""Time propagation: RPMD, and CMD on a tabulated centroid force.

One integrator, propagate_batch, serves every method: half potential
kick, exact rotation of the free ring polymer in normal modes, half
potential kick.  The rotation is exact for the spring term, so
internal-mode stiffness never limits the time step; accuracy is governed by
dt times the physical frequency.  The zero mode receives no spring force,
only drift, so the centroid decouples from the springs identically.  The
step keeps the modes as the real FFT half spectrum of the beads and never
packs them into the orthonormal layout of ringpoly.normal_mode_matrix.

The propagator takes the force as force(q, out), writing -dV/dq into a
buffer it holds for the whole run, and forms one kick product, dt/2 times
the force spectrum, per force evaluation.  RPMD is the N-bead ring polymer
on the bare potential (model.force_fn; at N = 1, classical dynamics).
CMD is the one-bead ring polymer on the centroid mean force
(CentroidForceTable.force_at): at N = 1 the rotation is the drift
q + p dt/m, so the step is velocity Verlet.  The table joins its nodes by
a natural cubic spline built in numpy: one solve of the tridiagonal system
for the second derivatives, then a cubic per interval, evaluated by one
searchsorted and one pass of model.horner on the gathered cubics.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import GridEscape, GridTooCoarse
from .model import OMEGA_KINDS, force_fn, horner, potential_eval, require_integers
from .ringpoly import POSITION, free_rp_frequencies, spring_energy
from .sampler import sample_ring_positions_constrained
from ._stats import block_standard_error


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    n_steps: int

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be finite and > 0")
        require_integers(self, "n_steps")
        if self.n_steps < 1:
            raise ValueError("n_steps must be > 0")

    def times(self):
        return self.dt * np.arange(self.n_steps + 1)


def check_accuracy(cfg, model):
    """Reject a time step too coarse for the well's harmonic frequency."""
    if model.kind in OMEGA_KINDS and cfg.dt * model.omega >= 0.5:
        raise GridTooCoarse("dt * omega must stay below 0.5 for the RPMD and CMD integrators")


def _rotation_factors(thermo, mass, dt):
    """cos(w dt), sin(w dt)/(m w) and m w sin(w dt) per mode; dt/m and 0 at w = 0."""
    w = free_rp_frequencies(thermo)
    sin = np.sin(w * dt)
    sin_over = np.divide(sin, mass * w, out=np.full_like(w, dt / mass), where=w > 0)
    return np.cos(w * dt), sin_over, mass * w * sin


def propagate_batch(x, p, force, mass, thermo, dt, n_steps, record):
    """Evolve (n_traj, N) arrays, recording centroid observables every step.

    force(q, out) writes the force -dV/dq at the (n_traj, N) positions q
    into out and returns it (model.force_fn, CentroidForceTable.force_at);
    mass is the bead mass.  record is a list of Observable; returns
    (recorded (n_obs, n_steps+1, n_traj), final positions, final momenta).
    x and p are left untouched.
    Positions, momenta and force are held as np.fft.rfft half spectra.  The
    free-ring normal modes are their real and imaginary parts up to a fixed
    scale per mode, and both parts of wavenumber k rotate at w_k, so the
    rotation runs in place on the float64 views of the spectra, in the
    operation order of a*cos + b*sin/(m w) and b*cos - a*m w sin.  The
    factors of k <= N/2, repeated for each (re, im) pair, are tiled once to
    the (n_traj, 2(N//2 + 1)) shape of the views, so each product is one
    contiguous loop.  Each force spectrum is scaled by dt/2 in place once
    and serves both half kicks that use it; between the first of them and
    the next force, its buffer holds b*sin/(m w).  The centroid momentum is
    b_0 / N, and positions come back by one irfft per step.  A position
    observable is evaluated into one (n_traj, N) buffer held for the call.
    """
    n = thermo.n_beads
    x_cur = np.array(x, dtype=float)
    a_ft = np.fft.rfft(x_cur)
    b_ft = np.fft.rfft(p)
    f_ft = np.empty_like(a_ft)
    a, b, f = a_ft.view(float), b_ft.view(float), f_ft.view(float)
    cosw, sin_over, msin = (np.broadcast_to(np.repeat(w[: n // 2 + 1], 2), a.shape).copy()
                            for w in _rotation_factors(thermo, mass, dt))
    half = 0.5 * dt
    force_q = np.empty_like(x_cur)
    a_msin = np.empty_like(a)

    def kick():
        """f <- dt/2 times the force spectrum at x_cur."""
        np.fft.rfft(force(x_cur, force_q), out=f_ft)
        np.multiply(f, half, out=f)

    out = np.empty((len(record), n_steps + 1, x_cur.shape[0]))
    obs_q = np.empty_like(x_cur)

    def snapshot(step):
        for i, obs in enumerate(record):
            if obs.kind == POSITION:
                np.mean(obs.f(x_cur, obs_q), axis=1, out=out[i, step])
            else:
                np.divide(b[:, 0], n, out=out[i, step])

    kick()
    snapshot(0)
    for step in range(1, n_steps + 1):
        b += f
        np.multiply(a, msin, out=a_msin)
        a *= cosw
        a += np.multiply(b, sin_over, out=f)  # f is free until the next kick()
        b *= cosw
        b -= a_msin
        np.fft.irfft(a_ft, n=n, out=x_cur)
        kick()
        b += f
        snapshot(step)
    return out, x_cur, np.fft.irfft(b_ft, n=n)


def rpmd_trajectory(x, p, model, thermo, cfg, record):
    """Propagate one ring polymer, given as (N,) bead arrays, recording centroid observables.

    Returns (times, {label: series}) with series of length n_steps + 1.
    """
    check_accuracy(cfg, model)
    out, _, _ = propagate_batch(x[None, :], p[None, :], force_fn(model), model.mass, thermo,
                                cfg.dt, cfg.n_steps, record)
    return cfg.times(), {obs.label: out[i, :, 0] for i, obs in enumerate(record)}


def ring_hamiltonian(x, p, model, thermo):
    """Conserved quantity of the RPMD flow, kinetic + spring + potential, per (..., N) ring."""
    kin = np.sum(p**2, axis=-1) / (2.0 * model.mass)
    pot = np.sum(potential_eval(model, x), axis=-1)
    return kin + spring_energy(x, model, thermo) + pot


# ----------------------------------------------------------------------
# CMD: the centroid force table

@dataclass
class CentroidForceTable:
    """Mean constrained force on a centroid grid, joined by a natural cubic spline.

    The spline's second derivatives M vanish at both ends; the interior ones
    solve the tridiagonal system
        h[i-1] M[i-1] + 2 (h[i-1] + h[i]) M[i] + h[i] M[i+1] = 6 (s[i] - s[i-1])
    with h the node spacings and s the chord slopes, which on 2 nodes leaves
    the straight line.  __post_init__ turns M into the cubic of each interval
    in t = q - grid[i], highest power first; a point is evaluated by one
    searchsorted and model.horner on its interval's cubic.
    """

    grid: np.ndarray
    force: np.ndarray
    std_errors: np.ndarray
    _cubic: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.force = np.asarray(self.force, dtype=float)
        self.std_errors = np.asarray(self.std_errors, dtype=float)
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly ascending")
        if not (self.grid.shape == self.force.shape == self.std_errors.shape):
            raise ValueError("grid, force and std_errors must have equal shape")
        if self.grid.size < 2:
            raise ValueError("grid needs at least 2 nodes")
        h = np.diff(self.grid)
        y = self.force
        s = np.diff(y) / h
        m = np.zeros_like(y)
        if y.size > 2:
            tri = np.diag(2.0 * (h[:-1] + h[1:])) + np.diag(h[1:-1], 1) + np.diag(h[1:-1], -1)
            m[1:-1] = np.linalg.solve(tri, 6.0 * np.diff(s))
        self._cubic = np.array([np.diff(m) / (6.0 * h), 0.5 * m[:-1],
                                s - h * (2.0 * m[:-1] + m[1:]) / 6.0, y[:-1]])

    def _interval(self, q):
        """(interval index, offset from its left node); raises GridEscape off the grid."""
        q = np.asarray(q, dtype=float)
        if q.size and (q.min() < self.grid[0] or q.max() > self.grid[-1]):
            raise GridEscape("centroid left the tabulated force range")
        i = np.searchsorted(self.grid[1:-1], q, side="right")
        return i, q - self.grid.take(i)

    def force_at(self, q, out=None):
        """Spline force at q, into out when given; raises GridEscape off the grid."""
        i, t = self._interval(q)
        return horner(self._cubic.take(i, axis=1), t, out)


def build_centroid_force_table(model, thermo, cfg, grid):
    """Constrained-ensemble mean force -<(1/N) sum_k V'(x_k)> on each node of the 1-D grid.

    One sampler call covers the whole grid: node i samples the ring with its
    centroid pinned at grid[i], from the run seed's streams at node index i,
    so its force and error depend only on (cfg, i, grid[i]).  The sampler
    advances stacks of nodes, one walker group at a time, on
    sampler.resolve_workers() threads; the table is the same at any
    stacking and thread count.  The table's streams are not those of the
    free rings that CMD's trajectories start from, which RPMD and the CAQ
    reference share at the same seed.  The sampler's jobs turn each batch
    of rows into its bead-mean forces as they draw it (the call's value),
    so the (nodes, n_samples, N) grid ensemble is never held.
    """
    force = force_fn(model)
    vals = sample_ring_positions_constrained(
        model, thermo, cfg, grid, lambda x: force(x, np.empty_like(x)).mean(axis=-1))
    return CentroidForceTable(grid, [v.mean() for v in vals],
                              [block_standard_error(v) for v in vals])
