"""Time propagation: RPMD, CMD on a tabulated centroid force, classical limit.

RPMD uses the split-operator scheme: half potential kick, exact rotation of
the free ring polymer in normal modes, half potential kick.  The rotation is
exact for the spring term, so internal-mode stiffness never limits the time
step; accuracy is governed by dt times the physical frequency.  The zero
mode receives no spring force, only drift, so the centroid decouples from
the springs identically.  The batched step (propagate_batch) keeps the
modes as the real FFT half spectrum of the beads and never packs them into
the orthonormal layout of ringpoly.normal_mode_matrix.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import GridEscape
from .model import OMEGA_KINDS, ThermoParams, grad_fn, potential_eval
from .ringpoly import (MOMENTUM, OBS_P, OBS_Q, POSITION, RingPolymerState, free_rp_frequencies,
                       normal_mode_transform, spring_energy)
from .sampler import sample_ring_positions_constrained
from ._stats import block_standard_error


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    n_steps: int

    def __post_init__(self):
        if not (self.dt > 0):
            raise ValueError("dt must be > 0")
        if self.n_steps < 1:
            raise ValueError("n_steps must be > 0")

    def times(self):
        return self.dt * np.arange(self.n_steps + 1)


def check_accuracy(cfg, model):
    """Reject a time step too coarse for the well's harmonic frequency."""
    if model.kind in OMEGA_KINDS and cfg.dt * model.omega >= 0.5:
        raise ValueError("dt * omega must stay below 0.5 for the split-operator scheme")


def _rotation_factors(thermo, model, dt):
    w = free_rp_frequencies(thermo)
    cosw = np.cos(w * dt)
    sin_over = np.empty_like(w)
    msin = np.empty_like(w)
    nz = w > 0
    sin_over[nz] = np.sin(w[nz] * dt) / (model.mass * w[nz])
    sin_over[~nz] = dt / model.mass
    msin[nz] = model.mass * w[nz] * np.sin(w[nz] * dt)
    msin[~nz] = 0.0
    return cosw, sin_over, msin


def propagate_batch(x, p, model, thermo, dt, n_steps, record):
    """Evolve (n_traj, N) arrays, recording centroid observables every step.

    record is a list of Observable; returns (recorded (n_obs, n_steps+1,
    n_traj), final positions, final momenta).  x and p are left untouched.
    Positions, momenta and force are held as np.fft.rfft half spectra.  The
    free-ring normal modes are their real and imaginary parts up to a fixed
    scale per mode, and both parts of wavenumber k rotate at w_k, so the
    rotation runs in place on the float64 views of the spectra, with the
    factors of k <= N/2 repeated for each (re, im) pair, in the operation
    order of a*cos + b*sin/(m w) and b*cos - a*m w sin.  The centroid
    momentum is b_0 / N, and positions come back by one irfft per step.
    """
    grad = grad_fn(model)
    n = thermo.n_beads
    cosw, sin_over, msin = (np.repeat(f[: n // 2 + 1], 2)
                            for f in _rotation_factors(thermo, model, dt))
    half = 0.5 * dt

    x_cur = np.array(x, dtype=float)
    a_ft = np.fft.rfft(x_cur)
    b_ft = np.fft.rfft(p)
    f_ft = np.empty_like(a_ft)
    a, b, f = a_ft.view(float), b_ft.view(float), f_ft.view(float)
    a_msin = np.empty_like(a)
    scratch = np.empty_like(a)

    def force():
        g = grad(x_cur)
        np.negative(g, out=g)
        np.fft.rfft(g, out=f_ft)

    out = np.empty((len(record), n_steps + 1, x_cur.shape[0]))

    def snapshot(step):
        for i, obs in enumerate(record):
            if obs.kind == POSITION:
                np.mean(obs.f(x_cur), axis=1, out=out[i, step])
            elif obs.kind == MOMENTUM:
                np.divide(b[:, 0], n, out=out[i, step])
            else:
                raise ValueError(f"unknown observable kind {obs.kind!r}")

    force()
    snapshot(0)
    for step in range(1, n_steps + 1):
        b += np.multiply(f, half, out=scratch)
        np.multiply(a, msin, out=a_msin)
        a *= cosw
        a += np.multiply(b, sin_over, out=scratch)
        b *= cosw
        b -= a_msin
        np.fft.irfft(a_ft, n=n, out=x_cur)
        force()
        b += np.multiply(f, half, out=scratch)
        snapshot(step)
    return out, x_cur, np.fft.irfft(b_ft, n=n)


def rpmd_step(state, model, thermo, dt):
    """One split-operator step: half kick, exact free-ring rotation, half kick."""
    _, x1, p1 = propagate_batch(state.positions[None, :], state.momenta[None, :],
                                model, thermo, dt, 1, [])
    return RingPolymerState(x1[0], p1[0])


def free_ring_polymer_step(state, thermo, model, dt):
    """Exact free-ring-polymer rotation alone (the kick-free substep)."""
    cosw, sin_over, msin = _rotation_factors(thermo, model, dt)
    a = normal_mode_transform(state.positions, "forward")
    b = normal_mode_transform(state.momenta, "forward")
    a, b = a * cosw + b * sin_over, b * cosw - a * msin
    return RingPolymerState(normal_mode_transform(a, "inverse"),
                            normal_mode_transform(b, "inverse"))


def rpmd_trajectory(initial, model, thermo, cfg, record):
    """Propagate one ring polymer, recording centroid observables per step.

    Returns (times, {label: series}) with series of length n_steps + 1.
    """
    check_accuracy(cfg, model)
    out, _, _ = propagate_batch(initial.positions[None, :], initial.momenta[None, :],
                                model, thermo, cfg.dt, cfg.n_steps, record)
    return cfg.times(), {obs.label: out[i, :, 0] for i, obs in enumerate(record)}


def ring_hamiltonian(state, model, thermo):
    """Conserved quantity of the RPMD flow: kinetic + spring + potential."""
    kin = float(np.sum(state.momenta**2)) / (2.0 * model.mass)
    pot = float(np.sum(potential_eval(model, state.positions)))
    return kin + spring_energy(state, thermo, model) + pot


def classical_trajectory(q0, p0, model, cfg):
    """Velocity Verlet on V; shares the RPMD code path at N = 1 bit for bit."""
    check_accuracy(cfg, model)
    thermo = ThermoParams(beta=1.0, n_beads=1)  # beta is inert for a single bead
    state = RingPolymerState(np.array([float(q0)]), np.array([float(p0)]))
    times, rec = rpmd_trajectory(state, model, thermo, cfg, [OBS_Q, OBS_P])
    return times, rec["q"], rec["p"]


# ----------------------------------------------------------------------
# CMD: centroid force table and centroid dynamics

@dataclass
class CentroidForceTable:
    """Mean constrained force on a centroid grid, with a natural cubic spline."""

    grid: np.ndarray
    force: np.ndarray
    std_errors: np.ndarray
    _spline: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.force = np.asarray(self.force, dtype=float)
        self.std_errors = np.asarray(self.std_errors, dtype=float)
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly ascending")
        if not (self.grid.shape == self.force.shape == self.std_errors.shape):
            raise ValueError("grid, force and std_errors must have equal shape")
        self._spline = CubicSpline(self.grid, self.force, bc_type="natural")

    def force_at(self, q):
        q = np.asarray(q, dtype=float)
        if np.any(q < self.grid[0]) or np.any(q > self.grid[-1]):
            raise GridEscape("centroid left the tabulated force range")
        return self._spline(q)

    def potential_at(self, q):
        """Effective centroid potential from the integrated spline, zero at grid[0]."""
        q = np.asarray(q, dtype=float)
        if np.any(q < self.grid[0]) or np.any(q > self.grid[-1]):
            raise GridEscape("centroid left the tabulated force range")
        return -self._spline.antiderivative()(q)


def build_centroid_force_table(model, thermo, cfg, grid, workers=None):
    """Constrained-ensemble mean force -<(1/N) sum_k V'(x_k)> on each node.

    One sampler call covers the whole grid: node i samples the ring with its
    centroid pinned at grid[i], from the streams keyed by the node seed
    sampler._node_seed(cfg.seed, i).  The sampler stacks the (node, walker
    group) pairs of all nodes on one walker axis and uses the `workers`
    threads only when the grid needs more than one stack.  The table is the
    same at any worker count.
    """
    grid = np.asarray(grid, dtype=float)
    grad = grad_fn(model)
    ens = sample_ring_positions_constrained(model, thermo, cfg, grid, workers=workers)
    force = np.empty_like(grid)
    errs = np.empty_like(grid)
    for i, node in enumerate(ens):
        vals = -grad(node).mean(axis=1)
        force[i] = vals.mean()
        errs[i] = block_standard_error(vals)
    return CentroidForceTable(grid, force, errs)


def cmd_propagate(q, p, table, mass, dt, n_steps):
    """Velocity Verlet for centroid phase-space points (vectorized)."""
    q = np.array(q, dtype=float, copy=True)
    p = np.array(p, dtype=float, copy=True)
    qs = np.empty((n_steps + 1,) + q.shape)
    ps = np.empty_like(qs)
    qs[0], ps[0] = q, p
    f = table.force_at(q)
    half = 0.5 * dt
    for step in range(1, n_steps + 1):
        p += half * f
        q += dt * p / mass
        f = table.force_at(q)  # raises GridEscape outside the table
        p += half * f
        qs[step], ps[step] = q, p
    return qs, ps


def cmd_trajectory(q_c0, p_c0, table, mass, cfg):
    """Centroid trajectory under the interpolated mean force."""
    qs, ps = cmd_propagate(float(q_c0), float(p_c0), table, mass, cfg.dt, cfg.n_steps)
    return cfg.times(), qs, ps
