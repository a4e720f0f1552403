import threading
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from pimd_kubo import (CentroidForceTable, IntegratorConfig, OBS_P, OBS_Q, OBS_Q2,
                       SamplerConfig, ThermoParams, build_centroid_force_table, cmd_kubo_correlator, draw_momenta, harmonic,
                       mildly_anharmonic, quartic, ring_hamiltonian, rpmd_trajectory,
                       sample_ring_positions, sample_ring_positions_constrained)
from pimd_kubo.dynamics import _rotation_factors, propagate_batch
from pimd_kubo.errors import GridEscape, GridTooCoarse, NonErgodicWarning
from pimd_kubo.model import force_fn
from pimd_kubo.ringpoly import (POSITION, bond_midpoints, normal_mode_transform,
                               observable_from_label)


def _random_ring(n, seed=0, scale=1.0):
    """(x, p) bead arrays of one ring, both drawn from N(0, scale^2)."""
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal(n), scale * rng.standard_normal(n)


def _classical(q0, p0, model, cfg):
    """(times, q, p) of one bead on V: RPMD at N = 1, where beta is inert."""
    times, rec = rpmd_trajectory(np.array([q0]), np.array([p0]), model, ThermoParams(1.0, 1),
                                 cfg, [OBS_Q, OBS_P])
    return times, rec["q"], rec["p"]


def _centroid_on_table(q0, p0, table, mass, cfg):
    """(q, p) of one bead on table.force_at: the CMD centroid trajectory."""
    rec, _, _ = propagate_batch(np.array([[q0]]), np.array([[p0]]), table.force_at, mass,
                                ThermoParams(1.0, 1), cfg.dt, cfg.n_steps, [OBS_Q, OBS_P])
    return rec[0, :, 0], rec[1, :, 0]


def _zero_force(q, out):
    out.fill(0.0)
    return out


def test_free_ring_polymer_ballistic_centroid():
    # the rotation alone (zero force): the zero mode drifts exactly
    th = ThermoParams(1.0, 8)
    x, p = _random_ring(8, seed=1)
    q0, p0 = x.mean(), p.mean()
    dt = 0.05
    rec, _, pf = propagate_batch(x[None, :], p[None, :], _zero_force, 1.0, th, dt, 200,
                                 [OBS_Q, OBS_P])
    k = np.arange(201)
    assert np.abs(rec[0, :, 0] - (q0 + p0 * k * dt)).max() <= 1e-12
    assert np.abs(rec[1, :, 0] - p0).max() <= 1e-12
    assert abs(pf.mean() - p0) <= 1e-12


def test_zero_mode_feels_no_spring_force(harmonic_model):
    # the spring force has no projection on the centroid mode at all
    th = ThermoParams(1.0, 16)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(16)
    w2 = (2.0 * th.omega_n * np.sin(np.pi * np.arange(16) / 16)) ** 2
    spring_force_modes = -harmonic_model.mass * w2 * normal_mode_transform(x, "forward")
    assert spring_force_modes[0] == 0.0
    d = x - np.roll(x, -1)
    bead_spring_force = -harmonic_model.mass * th.omega_n**2 * (2 * x - np.roll(x, 1) - np.roll(x, -1))
    assert abs(bead_spring_force.sum()) <= 1e-14 * np.abs(bead_spring_force).max()
    del d


def test_single_bead_is_classical(harmonic_model):
    cfg = IntegratorConfig(dt=0.01, n_steps=10000)
    times, q, p = _classical(1.0, 0.0, harmonic_model, cfg)
    e = 0.5 * p**2 + 0.5 * q**2
    # the symplectic flow has a bounded O(dt^2) energy oscillation but no
    # secular drift; conservation to 1e-6 is a statement about the drift
    period = int(round(2.0 * np.pi / cfg.dt))
    n_per = len(e) // period
    means = e[: n_per * period].reshape(n_per, period).mean(axis=1)
    assert np.abs(means - means[0]).max() / means[0] <= 1e-6
    assert np.abs(e - e[0]).max() / e[0] <= 1e-4


def test_classical_matches_rpmd_n1_bitwise(harmonic_model):
    # at N = 1 the RPMD step is velocity Verlet on V, bit for bit at unit mass
    cfg = IntegratorConfig(dt=0.01, n_steps=500)
    _, q, p = _classical(0.7, -0.3, harmonic_model, cfg)
    force = force_fn(harmonic_model)
    qv, pv = np.array([0.7]), np.array([-0.3])
    for step in range(1, cfg.n_steps + 1):
        pv = pv + 0.5 * cfg.dt * force(qv, np.empty(1))
        qv = qv + cfg.dt * pv
        pv = pv + 0.5 * cfg.dt * force(qv, np.empty(1))
        assert q[step] == qv[0] and p[step] == pv[0], step


def test_classical_harmonic_closed_form(harmonic_model):
    cfg = IntegratorConfig(dt=1e-4, n_steps=10000)
    times, q, p = _classical(0.4, 0.9, harmonic_model, cfg)
    ref = 0.4 * np.cos(times) + 0.9 * np.sin(times)
    assert np.abs(q - ref).max() <= 1e-8


def test_classical_quartic_energy():
    model = quartic(1.0)
    cfg = IntegratorConfig(dt=0.001, n_steps=50000)
    times, q, p = _classical(1.0, 0.0, model, cfg)
    e = 0.5 * p**2 + 0.25 * q**4
    assert np.abs(e - e[0]).max() / e[0] <= 1e-6


def test_reversibility(harmonic_model):
    th = ThermoParams(2.0, 12)
    x0, p0 = _random_ring(12, seed=3)
    force, mass = force_fn(harmonic_model), harmonic_model.mass
    _, x, p = propagate_batch(x0[None, :], p0[None, :], force, mass, th, 0.01, 100, [])
    _, x, p = propagate_batch(x, -p, force, mass, th, 0.01, 100, [])
    assert np.abs(x[0] - x0).max() <= 1e-10
    assert np.abs(-p[0] - p0).max() <= 1e-10


def test_centroid_closed_form(harmonic_model):
    th = ThermoParams(1.0, 16)
    x, p = _random_ring(16, seed=4)
    cfg = IntegratorConfig(dt=1e-4, n_steps=10000)
    times, rec = rpmd_trajectory(x, p, harmonic_model, th, cfg, [OBS_Q])
    q0, p0 = x.mean(), p.mean()
    ref = q0 * np.cos(times) + p0 * np.sin(times)
    assert np.abs(rec["q"] - ref).max() <= 1e-8


def test_breathing_vs_ode_oracle(harmonic_model):
    # constant path, zero momenta: all beads move identically; check q^2
    # centroid series against a high-order ODE integration of the full system
    th = ThermoParams(1.0, 8)
    a = 0.9
    x0, p0 = np.full(8, a), np.zeros(8)
    cfg = IntegratorConfig(dt=0.002, n_steps=2000)
    times, rec = rpmd_trajectory(x0, p0, harmonic_model, th, cfg, [OBS_Q2])

    w2 = (2.0 * th.omega_n * np.sin(np.pi * np.arange(8) / 8)) ** 2

    def rhs(t, y):
        x, p = y[:8], y[8:]
        a_modes = normal_mode_transform(x, "forward")
        spring = normal_mode_transform(w2 * a_modes, "inverse")
        return np.concatenate([p, -x - spring])

    sol = solve_ivp(rhs, (0.0, times[-1]), np.concatenate([x0, p0]),
                    t_eval=times, rtol=1e-11, atol=1e-12, method="DOP853")
    ref = (sol.y[:8] ** 2).mean(axis=0)
    assert np.abs(rec["q2"] - ref).max() <= 1e-6
    # breathing starts at a^2 and is periodic with period pi/omega
    assert rec["q2"][0] == pytest.approx(a * a)
    period_idx = int(round(np.pi / cfg.dt))
    assert rec["q2"][period_idx] == pytest.approx(a * a, abs=1e-4)


def test_hamiltonian_conservation_and_dt_scaling():
    model = mildly_anharmonic(1.0, 1.0, c3=0.2, c4=0.1)
    th = ThermoParams(1.0, 12)
    x0, p0 = _random_ring(12, seed=5, scale=0.7)
    h0 = ring_hamiltonian(x0, p0, model, th)

    def max_drift(dt, n_steps):
        x, p = x0[None, :], p0[None, :]
        drift = 0.0
        for _ in range(n_steps):
            _, x, p = propagate_batch(x, p, force_fn(model), model.mass, th, dt, 1, [])
            drift = max(drift, abs(ring_hamiltonian(x[0], p[0], model, th) - h0))
        return drift

    d1 = max_drift(0.02, 500)
    d2 = max_drift(0.01, 1000)
    assert d1 / abs(h0) < 1e-3
    assert 3.2 <= d1 / d2 <= 4.8  # O(dt^2) shadow-Hamiltonian error


def test_long_time_conservation(harmonic_model):
    th = ThermoParams(1.0, 16)
    x, p = _random_ring(16, seed=6)
    h0 = ring_hamiltonian(x, p, harmonic_model, th)
    _, xf, pf = propagate_batch(x[None, :], p[None, :], force_fn(harmonic_model),
                                harmonic_model.mass, th, 0.005, 20000, [])
    hf = ring_hamiltonian(xf[0], pf[0], harmonic_model, th)
    assert abs(hf - h0) / abs(h0) <= 1e-5


def test_ring_hamiltonian_is_per_ring_over_a_batch():
    # a (k, N) batch gives its k one-ring values, so the drift of a batch of
    # trajectories is one call, and it matches propagating each ring alone
    model = mildly_anharmonic(1.0, 1.0, c3=0.2, c4=0.1)
    th = ThermoParams(1.0, 12)
    x0, p0 = 0.7 * np.random.default_rng(9).standard_normal((2, 5, 12))
    force = force_fn(model)
    h0 = ring_hamiltonian(x0, p0, model, th)
    assert h0.shape == (5,)
    alone = [ring_hamiltonian(x, p, model, th) for x, p in zip(x0, p0)]
    assert h0 == pytest.approx(alone, rel=1e-14)
    _, xf, pf = propagate_batch(x0, p0, force, model.mass, th, 0.02, 50, [])
    drift = ring_hamiltonian(xf, pf, model, th) - h0
    for x, p, h, d in zip(x0, p0, alone, drift):
        _, x1, p1 = propagate_batch(x[None, :], p[None, :], force, model.mass, th, 0.02, 50, [])
        assert ring_hamiltonian(x1[0], p1[0], model, th) - h == pytest.approx(d, abs=1e-12)
    assert 0.0 < np.abs(drift).max() < 1e-3 * np.abs(h0).min()


def _reference_propagation(x, p, model, thermo, dt, n_steps, record):
    """Kick-rotate-kick with a fresh array for every product (no buffers)."""
    force = force_fn(model)
    cosw, sin_over, msin = _rotation_factors(thermo, model.mass, dt)
    a = normal_mode_transform(x, "forward")
    b = normal_mode_transform(p, "forward")
    x_cur = x.copy()
    f_nm = normal_mode_transform(force(x_cur, np.empty_like(x_cur)), "forward")

    def observe():
        return [obs.f(x_cur).mean(axis=1) if obs.kind == POSITION
                else b[:, 0] / np.sqrt(thermo.n_beads) for obs in record]

    rec = [observe()]
    for _ in range(n_steps):
        b = b + 0.5 * dt * f_nm
        a, b = a * cosw + b * sin_over, b * cosw - a * msin
        x_cur = normal_mode_transform(a, "inverse")
        f_nm = normal_mode_transform(force(x_cur, np.empty_like(x_cur)), "forward")
        b = b + 0.5 * dt * f_nm
        rec.append(observe())
    return np.array(rec).transpose(1, 0, 2), x_cur, normal_mode_transform(b, "inverse")


@pytest.mark.parametrize("n", [1, 2, 3, 32, 128])
def test_propagate_batch_matches_reference_step(n):
    # the buffered kernel must reproduce the allocating step; a buffer that
    # aliases a or b (rotating with an updated a, say) shows up at once
    model = mildly_anharmonic(1.0, 1.0, c3=0.1, c4=0.1)
    th = ThermoParams(2.0, n)
    rng = np.random.default_rng(40 + n)
    x = 0.6 * rng.standard_normal((17, n))
    p = np.sqrt(n / th.beta) * rng.standard_normal((17, n))
    x_in, p_in = x.copy(), p.copy()
    record = [OBS_Q2, OBS_P]
    rec, xf, pf = propagate_batch(x, p, force_fn(model), model.mass, th, 0.05, 40, record)
    ref_rec, ref_x, ref_p = _reference_propagation(x, p, model, th, 0.05, 40, record)
    assert np.array_equal(x, x_in) and np.array_equal(p, p_in)
    for got, want in ((rec[0], ref_rec[0]), (rec[1], ref_rec[1]), (xf, ref_x), (pf, ref_p)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _allocating_f(obs):
    """The form of a position observable that returns a new array each call."""
    if obs.label.startswith("poly:"):
        coeffs = np.array([float(c) for c in obs.label[5:].split(",")])
        return lambda q: np.polynomial.polynomial.polyval(q, coeffs)
    return {"q": lambda q: q, "q2": lambda q: q * q, "q3": lambda q: q * q * q}[obs.label]


def _grad_kernel(x, p, grad, mass, thermo, dt, n_steps, record):
    """The step on the gradient: grad(q) returns a new array of dV/dq, which
    is negated, each half kick forms its own dt/2 product, the (N+2,)
    rotation factors broadcast over the rows, and each position observable
    allocates its values.  Frozen as the reference for the bits of
    propagate_batch."""
    n = thermo.n_beads
    cosw, sin_over, msin = (np.repeat(f[: n // 2 + 1], 2)
                            for f in _rotation_factors(thermo, mass, dt))
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
    fs = [_allocating_f(obs) if obs.kind == POSITION else None for obs in record]

    def snapshot(step):
        for i, f in enumerate(fs):
            if f is not None:
                np.mean(f(x_cur), axis=1, out=out[i, step])
            else:
                np.divide(b[:, 0], n, out=out[i, step])

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


@pytest.mark.parametrize("n", [1, 2, 3, 32, 128])
@pytest.mark.parametrize("model", [harmonic(1.3, 0.7),
                                   mildly_anharmonic(1.0, 1.0, c3=0.0, c4=0.05),
                                   mildly_anharmonic(1.0, 1.0, c3=0.1, c4=0.1),
                                   quartic(1.0, mass=1.4)],
                         ids=["harmonic", "anharmonic_c3_0", "anharmonic_c3", "quartic"])
def test_propagate_batch_keeps_the_bits_of_the_gradient_kernel(model, n):
    # the in-place force, one kick product per force, the tiled rotation
    # factors and the observables' held buffer change no bit of any record
    # or final state (test_model checks that the force is the negated
    # gradient bit for bit)
    th = ThermoParams(2.0, n)
    rng = np.random.default_rng(70 + n)
    x = 0.6 * rng.standard_normal((17, n))
    x[0, 0], x[1, 0] = 0.0, -0.0
    p = np.sqrt(model.mass * n / th.beta) * rng.standard_normal((17, n))
    record = [OBS_Q, OBS_Q2, OBS_P, observable_from_label("q3"),
              observable_from_label("poly:0.3,-1.2,0.7,2.5")]
    got = propagate_batch(x, p, force_fn(model), model.mass, th, 0.05, 40, record)
    force = force_fn(model)
    want = _grad_kernel(x, p, lambda q: -force(q, np.empty_like(q)), model.mass, th, 0.05, 40,
                        record)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_one_bead_table_path_keeps_the_bits_of_the_gradient_kernel():
    # CMD: centroids on the spline force, written into the step's buffer
    grid = np.linspace(-3.0, 3.0, 13)
    table = CentroidForceTable(grid, -grid - 0.2 * grid**3, np.zeros(13))
    rng = np.random.default_rng(71)
    q0, p0 = rng.uniform(-1.0, 1.0, (17, 1)), rng.standard_normal((17, 1))
    args = (1.3, ThermoParams(1.0, 1), 0.05, 60, [OBS_Q, OBS_P])
    got = propagate_batch(q0, p0, table.force_at, *args)
    want = _grad_kernel(q0, p0, lambda q: -table.force_at(q), *args)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_momentum_convention_centroid_distributions():
    # bead vs bond-midpoint initial momenta: same centroid-trajectory statistics
    model = mildly_anharmonic(1.0, 1.0, c3=0.0, c4=0.05)
    th = ThermoParams(2.0, 8)
    scfg = SamplerConfig(n_samples=2000, seed=23, burn_in=128, decorrelation_stride=2)
    x0 = sample_ring_positions(model, th, scfg)
    cfg = IntegratorConfig(dt=0.02, n_steps=500)
    marks = [int(round(t / cfg.dt)) for t in (1.0, 5.0, 10.0)]
    series = {}
    bead = draw_momenta(model, th, scfg)
    for conv, p0 in (("bead", bead), ("bond_midpoint", bond_midpoints(bead))):
        rec, xf, pf = propagate_batch(x0.copy(), p0, force_fn(model), model.mass, th, cfg.dt,
                                      cfg.n_steps, [OBS_Q])
        series[conv] = rec[0]
    for idx in marks:
        _, pval = stats.ks_2samp(series["bead"][idx], series["bond_midpoint"][idx])
        assert pval > 0.01
    # per-bead trajectories do differ between conventions
    assert not np.allclose(series["bead"][marks[0]], series["bond_midpoint"][marks[0]])


def test_integrator_accuracy_guard(harmonic_model):
    th, coarse = ThermoParams(1.0, 4), IntegratorConfig(dt=0.6, n_steps=10)
    with pytest.raises(GridTooCoarse):
        rpmd_trajectory(*_random_ring(4, seed=7), harmonic_model, th, coarse, [OBS_Q])
    with pytest.raises(GridTooCoarse):
        cmd_kubo_correlator(harmonic_model, th, _linear_table(), SamplerConfig(64, seed=1),
                            coarse, OBS_Q, OBS_Q)


# ----------------------------------------------------------------------
# CMD

def _linear_table(omega=1.0, lim=6.0, nodes=25):
    grid = np.linspace(-lim, lim, nodes)
    return CentroidForceTable(grid, -omega**2 * grid, np.zeros(nodes))


def test_cmd_harmonic_table_trajectory():
    table = _linear_table()
    cfg = IntegratorConfig(dt=0.01, n_steps=1000)
    q, p = _centroid_on_table(0.8, 0.5, table, 1.0, cfg)
    times = cfg.times()
    ref = 0.8 * np.cos(times) + 0.5 * np.sin(times)
    assert np.abs(q - ref).max() <= 1e-4


def test_cmd_free_table_ballistic():
    grid = np.linspace(-50.0, 50.0, 11)
    table = CentroidForceTable(grid, np.zeros(11), np.zeros(11))
    cfg = IntegratorConfig(dt=0.01, n_steps=500)
    q, p = _centroid_on_table(0.0, 1.0, table, 1.0, cfg)
    assert np.abs(q - cfg.times()).max() <= 1e-12
    assert np.abs(p - 1.0).max() == 0.0


def test_cmd_energy_conservation():
    # the linear table's force -q is the spline's own, so its potential is q^2 / 2
    table = _linear_table()
    cfg = IntegratorConfig(dt=0.005, n_steps=4000)
    q, p = _centroid_on_table(1.1, 0.0, table, 1.0, cfg)
    e = 0.5 * p**2 + 0.5 * q**2
    assert np.abs(e - e[0]).max() / abs(e[0]) <= 1e-5


@pytest.mark.parametrize("nodes", [2, 3, 17, 33])
def test_force_table_matches_natural_cubic_spline(nodes):
    rng = np.random.default_rng(nodes)
    grid = np.cumsum(rng.uniform(0.1, 1.0, nodes)) - 3.0
    force = rng.standard_normal(nodes)
    table = CentroidForceTable(grid, force, np.zeros(nodes))
    spline = CubicSpline(grid, force, bc_type="natural")
    q = np.concatenate([grid, rng.uniform(grid[0], grid[-1], 500)])
    ref = spline(q)
    np.testing.assert_allclose(table.force_at(q), ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    buf = np.full_like(q, np.nan)
    assert table.force_at(q, buf) is buf
    assert buf.tobytes() == table.force_at(q).tobytes()
    assert table.force_at(grid[1]) == pytest.approx(force[1], rel=1e-14)


def test_cmd_grid_escape():
    table = _linear_table(lim=1.0, nodes=9)
    cfg = IntegratorConfig(dt=0.01, n_steps=2000)
    with pytest.raises(GridEscape):
        _centroid_on_table(0.9, 1.5, table, 1.0, cfg)


def test_force_table_harmonic(harmonic_model):
    th = ThermoParams(1.0, 32)
    cfg = SamplerConfig(n_samples=400, seed=31, burn_in=96, decorrelation_stride=2)
    grid = np.array([-0.7, 0.0, 0.7])
    table = build_centroid_force_table(harmonic_model, th, cfg, grid)
    assert abs(table.force[2] + 0.7) <= 3.0 * table.std_errors[2] + 1e-13
    assert abs(table.force[1]) <= 3.0 * table.std_errors[1] + 1e-13


def test_force_table_antisymmetry():
    model = mildly_anharmonic(1.0, 1.0, c3=0.0, c4=0.1)
    th = ThermoParams(1.0, 16)
    cfg = SamplerConfig(n_samples=4000, seed=37, burn_in=128, decorrelation_stride=2)
    grid = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    table = build_centroid_force_table(model, th, cfg, grid)
    for i, j in ((0, 4), (1, 3)):
        se = np.hypot(table.std_errors[i], table.std_errors[j])
        assert abs(table.force[i] + table.force[j]) <= 3.0 * se
    assert abs(table.force[2]) <= 3.0 * table.std_errors[2]


def test_force_table_grid_schedule(monkeypatch):
    # two walker groups per node (2048 + 152 walkers), so the jobs have both
    # group sizes and the 152-walker group stacks nodes; node i's rows depend
    # only on (seed, i, grid[i]): moving every other node leaves them alone
    model = mildly_anharmonic(1.0, 1.0, c3=0.2, c4=0.1)
    th = ThermoParams(2.0, 3)
    cfg = SamplerConfig(n_samples=2200, seed=41, burn_in=20, decorrelation_stride=1,
                        n_walkers=2200)
    grid = np.array([-1.0, 0.25, 1.5])
    monkeypatch.setenv("PIMD_KUBO_THREADS", "2")
    ens = sample_ring_positions_constrained(model, th, cfg, grid)
    assert ens.shape == (3, 2200, 3)
    monkeypatch.setenv("PIMD_KUBO_THREADS", "1")
    for i in range(len(grid)):
        moved = np.where(np.arange(len(grid)) == i, grid, grid + 0.7)
        other = sample_ring_positions_constrained(model, th, cfg, moved)
        assert other[i].tobytes() == ens[i].tobytes()
        assert not np.array_equal(np.delete(other, i, axis=0), np.delete(ens, i, axis=0))

    def table(threads):
        monkeypatch.setenv("PIMD_KUBO_THREADS", threads)
        return build_centroid_force_table(model, th, cfg, grid)

    tables = [table(w) for w in ("1", "2", "3")]
    for t in tables[1:]:
        assert t.force.tobytes() == tables[0].force.tobytes()
        assert t.std_errors.tobytes() == tables[0].std_errors.tobytes()
    force = force_fn(model)
    assert tables[0].force.tolist() == [float(force(e, np.empty_like(e)).mean(axis=1).mean())
                                        for e in ens]


def test_force_table_holds_no_grid_ensemble(monkeypatch, traced_peak):
    # 17 nodes of 8192 rings of 16 beads are a 17 MB grid ensemble; each job
    # turns every batch of its rows into bead-mean forces, so the traced peak
    # (about 7.6 MB: the 1 MB of values, two jobs' buffers, one batch of
    # CHUNK_ELEMENTS bead values and its force) stays below the ensemble
    model, th = mildly_anharmonic(1.0, 1.0, c4=0.05), ThermoParams(4.0, 16)
    cfg = SamplerConfig(n_samples=8192, seed=5)
    grid = np.linspace(-4.0, 4.0, 17)
    monkeypatch.setenv("PIMD_KUBO_THREADS", "1")
    peak = traced_peak(build_centroid_force_table, model, th, cfg, grid)
    assert peak < len(grid) * cfg.n_samples * th.n_beads * 8


def test_force_table_samples_once_on_calling_thread(monkeypatch):
    # tracers wrap this module attribute; their span stack is not thread-safe
    threads = []

    def spy(*args, **kwargs):
        threads.append(threading.current_thread())
        return sample_ring_positions_constrained(*args, **kwargs)

    monkeypatch.setattr("pimd_kubo.dynamics.sample_ring_positions_constrained", spy)
    monkeypatch.setenv("PIMD_KUBO_THREADS", "2")
    cfg = SamplerConfig(n_samples=64, seed=4, burn_in=8, decorrelation_stride=1)
    build_centroid_force_table(harmonic(), ThermoParams(1.0, 4), cfg, np.linspace(-1.0, 1.0, 5))
    assert threads == [threading.current_thread()]
    for q_c in (0.5, np.zeros((2, 2))):  # one input form: a 1-D grid of nodes
        with pytest.raises(ValueError, match="1-D grid"):
            sample_ring_positions_constrained(harmonic(), ThermoParams(1.0, 4), cfg, q_c)


def test_force_table_single_bead_grid():
    cfg = SamplerConfig(n_samples=64, seed=2)
    grid = np.array([-0.5, 0.0, 2.0])
    ens = sample_ring_positions_constrained(harmonic(), ThermoParams(1.0, 1), cfg, grid)
    assert ens.shape == (3, 64, 1)
    assert np.array_equal(ens[:, :, 0], np.repeat(grid[:, None], 64, axis=1))
    table = build_centroid_force_table(harmonic(), ThermoParams(1.0, 1), cfg, grid)
    assert np.array_equal(table.force, -grid)


def test_force_table_warns_per_node(monkeypatch):
    # a pure quartic well deep in the quantum regime (beta = 2048, N = 512):
    # the node at q_c = 0 accepts about 1 % of its proposals after burn-in,
    # the one at q_c = 8, where the steep wall makes the internal modes
    # nearly harmonic, about 95 %; the pooled rate would stay above 0.05
    th = ThermoParams(2048.0, 512)
    cfg = SamplerConfig(n_samples=400, seed=3, burn_in=100, decorrelation_stride=1,
                        n_walkers=200)
    monkeypatch.setenv("PIMD_KUBO_THREADS", "2")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_centroid_force_table(quartic(1.0), th, cfg, np.array([0.0, 8.0]))
    nonergodic = [w for w in caught if issubclass(w.category, NonErgodicWarning)]
    assert len(nonergodic) == 1
    assert "below 0.05" in str(nonergodic[0].message)
