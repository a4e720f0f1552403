import threading

import numpy as np
import pytest

from pimd_kubo import (CentroidForceTable, CorrelationSeries, IntegratorConfig, OBS_P, OBS_Q,
                       OBS_Q2, SamplerConfig, ThermoParams, block_standard_error,
                       cmd_kubo_correlator, draw_momenta, exact_kubo_correlator, harmonic,
                       rpmd_kubo_correlator, sample_ring_positions, spectrum)
from pimd_kubo.errors import GridEscape, InsufficientSamples, UnsupportedObservable
from pimd_kubo._stats import N_BLOCKS, block_edges, block_sums, blocked_mean
from pimd_kubo.dynamics import propagate_batch
from pimd_kubo.estimators import _correlator_from_ic, rpmd_initial_conditions
from pimd_kubo.model import force_fn
from pimd_kubo.ringpoly import POSITION


def _scfg(n, seed=1, **kw):
    kw.setdefault("burn_in", 160)
    kw.setdefault("decorrelation_stride", 3)
    return SamplerConfig(n_samples=n, seed=seed, **kw)


@pytest.fixture(scope="module")
def harmonic_qq(harmonic_model):
    th = ThermoParams(1.0, 32)
    scfg = _scfg(4096, seed=51)
    icfg = IntegratorConfig(dt=0.02, n_steps=500)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PIMD_KUBO_THREADS", "2")
        return rpmd_kubo_correlator(harmonic_model, th, scfg, icfg, OBS_Q, OBS_Q)


def test_rpmd_qq_equal_time(harmonic_qq):
    assert abs(harmonic_qq.values[0] - 1.0) <= 3.0 * harmonic_qq.std_errors[0]


def test_rpmd_qq_matches_cos(harmonic_qq):
    dev = np.abs(harmonic_qq.values - np.cos(harmonic_qq.times))
    assert (dev / np.maximum(harmonic_qq.std_errors, 1e-12)).max() <= 3.0


def test_rpmd_parity_mixed_observables(harmonic_model):
    th = ThermoParams(1.0, 16)
    series = rpmd_kubo_correlator(harmonic_model, th, _scfg(2048, seed=52),
                                  IntegratorConfig(dt=0.05, n_steps=10), OBS_Q, OBS_Q2)
    assert abs(series.values[0]) <= 3.0 * series.std_errors[0]


def test_rpmd_equal_time_vs_oracle(harmonic_model, harmonic_eig):
    # C(0) for position-only A, B reduces to <A0 B0> over the ring density and
    # must match the exact Kubo equal-time value within errors (N large)
    th = ThermoParams(1.0, 32)
    series = rpmd_kubo_correlator(harmonic_model, th, _scfg(8192, seed=53),
                                  IntegratorConfig(dt=0.05, n_steps=2), OBS_Q2, OBS_Q2)
    oracle = exact_kubo_correlator(harmonic_eig, OBS_Q2, OBS_Q2, 1.0, series.times)
    assert abs(series.values[0] - oracle.values[0]) <= 3.0 * series.std_errors[0]


def test_rpmd_insufficient_samples(harmonic_model):
    with pytest.raises(InsufficientSamples):
        rpmd_kubo_correlator(harmonic_model, ThermoParams(1.0, 4), _scfg(8, seed=54),
                             IntegratorConfig(dt=0.05, n_steps=2), OBS_Q, OBS_Q)


def test_rpmd_time_reversal(harmonic_model):
    # negating initial momenta must leave the A=B correlator unchanged within SE
    th = ThermoParams(1.0, 16)
    scfg = _scfg(4096, seed=55)
    icfg = IntegratorConfig(dt=0.05, n_steps=100)
    x0 = sample_ring_positions(harmonic_model, th, scfg)
    p0 = draw_momenta(harmonic_model, th, scfg)
    force, mass = force_fn(harmonic_model), harmonic_model.mass
    fwd, fe = _correlator_from_ic(x0, p0, force, mass, th, icfg, OBS_Q, OBS_Q)
    bwd, be = _correlator_from_ic(x0, -p0, force, mass, th, icfg, OBS_Q, OBS_Q)
    dev = np.abs(fwd - bwd) / np.maximum(np.hypot(fe, be), 1e-12)
    assert dev.max() <= 3.0


def test_accumulation_partition_independent(harmonic_model, monkeypatch):
    th = ThermoParams(1.0, 8)
    scfg = _scfg(2048, seed=56)
    icfg = IntegratorConfig(dt=0.05, n_steps=20)

    def rpmd(threads):
        monkeypatch.setenv("PIMD_KUBO_THREADS", threads)
        return rpmd_kubo_correlator(harmonic_model, th, scfg, icfg, OBS_Q, OBS_Q)

    def cmd(threads):  # 2500 centroids: one chunk of trajectories
        monkeypatch.setenv("PIMD_KUBO_THREADS", threads)
        return cmd_kubo_correlator(harmonic_model, th, _linear_table(), _scfg(2500, seed=56),
                                   icfg, OBS_Q, OBS_Q)

    a = rpmd("1")
    for threads in ("2", "3", "4"):
        b = rpmd(threads)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.std_errors, b.std_errors)
    cmds = [cmd(threads) for threads in ("1", "2", "3")]
    for b in cmds[1:]:
        assert b.values.tobytes() == cmds[0].values.tobytes()
        assert b.std_errors.tobytes() == cmds[0].std_errors.tobytes()


def test_accumulation_thread_independent_across_chunk_and_segment_edges(harmonic_model,
                                                                        monkeypatch):
    # N = 64 gives chunks of 512 rings, (512, 512, 276) of 1300; the blocks
    # 487-568 and 975-1056 straddle a chunk edge, and the two full chunks
    # propagate 600 steps as a 512-step segment and an 88-step tail
    th = ThermoParams(1.0, 64)
    scfg = _scfg(1300, seed=68, burn_in=16)
    icfg = IntegratorConfig(dt=0.05, n_steps=600)
    x0 = sample_ring_positions(harmonic_model, th, scfg)
    p0 = draw_momenta(harmonic_model, th, scfg)
    args = (force_fn(harmonic_model), harmonic_model.mass, th, icfg, OBS_Q, OBS_Q2)
    runs = []
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("PIMD_KUBO_THREADS", threads)
        runs.append(_correlator_from_ic(x0, p0, *args))
    for values, errors in runs[1:]:
        assert values.tobytes() == runs[0][0].tobytes()
        assert errors.tobytes() == runs[0][1].tobytes()


@pytest.mark.parametrize("b_obs", [OBS_Q, OBS_P])
def test_one_bead_segments_continue_the_trajectories_bit_for_bit(b_obs, monkeypatch):
    # 2500 centroids are one chunk; a budget of three steps per segment cuts
    # 19 steps into six segments and a one-step tail, whose single column
    # is summed in row order too
    th = ThermoParams(1.0, 1)
    rng = np.random.default_rng(69)
    x0, p0 = rng.standard_normal((2, 2500, 1))
    args = (_cubic_table().force_at, 1.0, th, IntegratorConfig(dt=0.05, n_steps=19),
            OBS_Q, b_obs)
    whole = _correlator_from_ic(x0, p0, *args)
    monkeypatch.setattr("pimd_kubo._stats.CHUNK_ELEMENTS", 3 * 2500)
    cut = _correlator_from_ic(x0, p0, *args)
    assert cut[0].tobytes() == whole[0].tobytes()
    assert cut[1].tobytes() == whole[1].tobytes()


def test_one_bead_correlator_propagates_on_calling_thread(harmonic_model, monkeypatch):
    # at PIMD_KUBO_THREADS = 3, an N = 4 correlator (one chunk of 2500 rings)
    # propagates on a pool thread, a one-bead (CMD) one on this thread
    monkeypatch.setenv("PIMD_KUBO_THREADS", "3")
    th, scfg = ThermoParams(1.0, 4), _scfg(2500, seed=67, burn_in=8)
    icfg = IntegratorConfig(dt=0.05, n_steps=2)
    threads = {"rpmd": set(), "cmd": set()}

    def spy(method, force):
        def traced(x, out):
            threads[method].add(threading.get_ident())
            return force(x, out)
        return traced

    monkeypatch.setattr("pimd_kubo.estimators.force_fn", lambda m: spy("rpmd", force_fn(m)))
    rpmd_kubo_correlator(harmonic_model, th, scfg, icfg, OBS_Q, OBS_Q)
    table = _linear_table()
    table.force_at = spy("cmd", table.force_at)
    cmd_kubo_correlator(harmonic_model, th, table, scfg, icfg, OBS_Q, OBS_Q)
    assert threads["cmd"] == {threading.get_ident()}
    assert threads["rpmd"] and threading.get_ident() not in threads["rpmd"]


@pytest.mark.parametrize("shape", [(1000,), (2500, 7)])
def test_block_sums_of_pieces_equal_one_piece(shape):
    # integer-valued rows sum exactly in any order, so block sums fed in uneven
    # pieces, which start and end mid-block, equal those of one piece bit for bit
    x = np.random.default_rng(shape[0]).integers(-1000, 1000, shape).astype(float)
    edges = block_edges(shape[0])
    b, whole = block_sums(x, 0, edges)
    assert b == 0 and whole.shape == (N_BLOCKS,) + shape[1:]
    total = np.zeros_like(whole)
    cuts = np.unique(np.minimum(np.cumsum([0, 1, 37, 300, 5, 1024, 9999]), shape[0]))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        b, sums = block_sums(x[lo:hi], lo, edges)
        total[b:b + len(sums)] += sums
    assert total.tobytes() == whole.tobytes()


@pytest.mark.parametrize("shape", [(1000,), (2500, 7)])
def test_blocked_mean_matches_numpy(shape):
    x = np.random.default_rng(shape[0]).standard_normal(shape) + 0.5
    edges = block_edges(shape[0])
    mean, se = blocked_mean(block_sums(x, 0, edges)[1], edges)
    np.testing.assert_allclose(mean, x.mean(axis=0), rtol=1e-14)
    np.testing.assert_allclose(se, block_standard_error(x), rtol=1e-14)


def test_block_edges_need_two_rows_per_block():
    with pytest.raises(InsufficientSamples):
        block_edges(2 * N_BLOCKS - 1)
    assert block_edges(2 * N_BLOCKS)[-1] == 2 * N_BLOCKS


def test_rpmd_correlator_streams_products(harmonic_model, monkeypatch, traced_peak):
    # the products A0 * B(t) are reduced chunk by chunk: the traced peak stays
    # well below one n_traj x (n_steps + 1) array, which the full reduction held
    th = ThermoParams(1.0, 4)
    scfg = _scfg(4096, seed=60)
    icfg = IntegratorConfig(dt=0.05, n_steps=500)
    x0 = sample_ring_positions(harmonic_model, th, scfg)
    p0 = draw_momenta(harmonic_model, th, scfg)
    full = 4096 * (icfg.n_steps + 1) * 8
    monkeypatch.setenv("PIMD_KUBO_THREADS", "1")
    peak = traced_peak(_correlator_from_ic, x0, p0, force_fn(harmonic_model),
                       harmonic_model.mass, th, icfg, OBS_Q, OBS_Q)
    assert peak < 0.75 * full


def test_correlator_peak_does_not_grow_with_steps(harmonic_model, monkeypatch, traced_peak):
    # each chunk reduces its products in time segments, so the traced peak,
    # during propagation, grows with n_steps only by the chunk's per-time
    # sums: its total and N_BLOCKS block sums
    th = ThermoParams(1.0, 4)
    scfg = _scfg(4096, seed=70)
    x0 = sample_ring_positions(harmonic_model, th, scfg)
    p0 = draw_momenta(harmonic_model, th, scfg)
    monkeypatch.setenv("PIMD_KUBO_THREADS", "1")
    peaks = {n_steps: traced_peak(_correlator_from_ic, x0, p0, force_fn(harmonic_model),
                                  harmonic_model.mass, th,
                                  IntegratorConfig(dt=0.05, n_steps=n_steps), OBS_Q, OBS_Q)
             for n_steps in (500, 4000)}
    assert peaks[4000] - peaks[500] <= (N_BLOCKS + 2) * 3500 * 8 + 2**20


# ----------------------------------------------------------------------
# CMD correlator

def _linear_table(omega=1.0, lim=8.0, nodes=33):
    grid = np.linspace(-lim, lim, nodes)
    return CentroidForceTable(grid, -omega**2 * grid, np.zeros(nodes))


def test_cmd_qq_matches_cos(harmonic_model):
    th = ThermoParams(1.0, 16)
    table = _linear_table()
    series = cmd_kubo_correlator(harmonic_model, th, table, _scfg(8192, seed=57),
                                 IntegratorConfig(dt=0.02, n_steps=400), OBS_Q, OBS_Q)
    dev = np.abs(series.values - np.cos(series.times))
    assert (dev / np.maximum(series.std_errors, 1e-12)).max() <= 3.0 + 1e-3


def test_cmd_pq_equal_time_zero(harmonic_model):
    th = ThermoParams(1.0, 16)
    series = cmd_kubo_correlator(harmonic_model, th, _linear_table(), _scfg(8192, seed=58),
                                 IntegratorConfig(dt=0.05, n_steps=5), OBS_P, OBS_Q)
    assert abs(series.values[0]) <= 3.0 * series.std_errors[0]


def test_cmd_free_table_constant_correlator(harmonic_model):
    # force-free centroids: <q_c(0) q_c(t)> = <q_c^2> + t <q_c p_c>/m, and the
    # cross term averages to zero, so the correlator stays flat within errors
    th = ThermoParams(1.0, 16)
    grid = np.linspace(-60.0, 60.0, 13)
    table = CentroidForceTable(grid, np.zeros(13), np.zeros(13))
    series = cmd_kubo_correlator(harmonic_model, th, table, _scfg(8192, seed=59),
                                 IntegratorConfig(dt=0.05, n_steps=40), OBS_Q, OBS_Q)
    dev = np.abs(series.values - series.values[0])
    tol = 3.0 * np.hypot(series.std_errors, series.std_errors[0])
    assert np.all(dev[1:] <= tol[1:])


def _cmd_propagate_reference(q, p, table, mass, dt, n_steps):
    """Velocity Verlet for centroid phase-space points, with the full history.

    CMD's own integrator before it ran as the one-bead ring polymer.
    """
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
        f = table.force_at(q)
        p += half * f
        qs[step], ps[step] = q, p
    return qs, ps


def _cmd_correlator_reference(model, thermo, table, scfg, icfg, a_obs, b_obs):
    """(values, std_errors) of the CMD correlator from _cmd_propagate_reference."""
    x0, p0 = rpmd_initial_conditions(model, thermo, scfg, icfg)
    qc0, pc0 = x0.mean(axis=1), p0.mean(axis=1)
    qs, ps = _cmd_propagate_reference(qc0, pc0, table, model.mass, icfg.dt, icfg.n_steps)
    a0 = qc0 if a_obs.kind == POSITION else pc0
    b_t = b_obs.f(qs) if b_obs.kind == POSITION else ps
    edges = block_edges(qc0.size)
    return blocked_mean(block_sums(a0[:, None] * b_t.T, 0, edges)[1], edges)  # A0(0) * B(t)


def _cubic_table():
    grid = np.linspace(-6.0, 6.0, 49)
    return CentroidForceTable(grid, -grid - 0.3 * grid**3, np.zeros(49))


def _close(got, want, mass):
    """Bit for bit at unit mass; within 1e-14 of the largest |want| otherwise."""
    if mass == 1.0:
        return got.tobytes() == want.tobytes()
    return np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("mass", [1.0, 1.7])
def test_cmd_correlator_matches_velocity_verlet_reference(mass, monkeypatch):
    # at N = 1 the shared step is velocity Verlet with the drift q + p (dt/m);
    # the reference drifts by (dt p)/m, the same bits when m = 1
    model = harmonic(mass, 1.0)
    th = ThermoParams(1.0, 8)
    table = _cubic_table()
    scfg = _scfg(2500, seed=65)
    icfg = IntegratorConfig(dt=0.05, n_steps=200)
    monkeypatch.setenv("PIMD_KUBO_THREADS", "2")
    for a_obs, b_obs in ((OBS_Q, OBS_Q), (OBS_P, OBS_Q), (OBS_Q, OBS_P), (OBS_Q, OBS_Q2)):
        got = cmd_kubo_correlator(model, th, table, scfg, icfg, a_obs, b_obs)
        values, errors = _cmd_correlator_reference(model, th, table, scfg, icfg, a_obs, b_obs)
        assert _close(got.values, values, mass), (a_obs.label, b_obs.label)
        assert _close(got.std_errors, errors, mass), (a_obs.label, b_obs.label)


def test_cmd_starts_from_the_centroids_of_the_rpmd_rings(harmonic_model, monkeypatch):
    # CMD and RPMD share their initial rings at one seed: the centroid state
    # CMD propagates is the bead mean of rpmd_initial_conditions
    th = ThermoParams(1.0, 8)
    scfg = _scfg(256, seed=67)
    icfg = IntegratorConfig(dt=0.05, n_steps=4)
    starts = []

    def recorded(x0, p0, *args):
        starts.append((x0.copy(), p0.copy()))
        return _correlator_from_ic(x0, p0, *args)

    monkeypatch.setattr("pimd_kubo.estimators._correlator_from_ic", recorded)
    cmd_kubo_correlator(harmonic_model, th, _linear_table(), scfg, icfg, OBS_Q, OBS_Q)
    x0, p0 = rpmd_initial_conditions(harmonic_model, th, scfg, icfg)
    (qc0, pc0), = starts
    assert qc0.tobytes() == x0.mean(axis=1)[:, None].tobytes()
    assert pc0.tobytes() == p0.mean(axis=1)[:, None].tobytes()


@pytest.mark.parametrize("mass", [1.0, 1.7])
def test_cmd_trajectory_matches_velocity_verlet_reference(mass):
    # one centroid, propagated as the one-bead ring polymer on the table
    table = _cubic_table()
    cfg = IntegratorConfig(dt=0.05, n_steps=400)
    rec, _, _ = propagate_batch(np.array([[0.9]]), np.array([[-0.4]]), table.force_at, mass,
                                ThermoParams(1.0, 1), cfg.dt, cfg.n_steps, [OBS_Q, OBS_P])
    qs, ps = _cmd_propagate_reference(0.9, -0.4, table, mass, cfg.dt, cfg.n_steps)
    assert _close(rec[0, :, 0], qs, mass) and _close(rec[1, :, 0], ps, mass)


def test_cmd_correlator_grid_escape(harmonic_model, monkeypatch):
    # thermal centroids leave a table of [-0.5, 0.5] within the first steps
    grid = np.linspace(-0.5, 0.5, 5)
    table = CentroidForceTable(grid, -grid, np.zeros(5))
    monkeypatch.setenv("PIMD_KUBO_THREADS", "2")
    with pytest.raises(GridEscape):
        cmd_kubo_correlator(harmonic_model, ThermoParams(1.0, 8), table, _scfg(2500, seed=66),
                            IntegratorConfig(dt=0.05, n_steps=5), OBS_Q, OBS_Q)


def test_cmd_rejects_nonlinear_a(harmonic_model):
    th = ThermoParams(1.0, 8)
    with pytest.raises(UnsupportedObservable):
        cmd_kubo_correlator(harmonic_model, th, _linear_table(), _scfg(64, seed=60),
                            IntegratorConfig(dt=0.05, n_steps=2), OBS_Q2, OBS_Q)


# ----------------------------------------------------------------------
# spectrum and block errors

def test_spectrum_single_peak():
    t = np.arange(0.0, 200.0001, 0.05)
    series = CorrelationSeries(t, np.cos(2.7 * t), np.zeros_like(t))
    om, inten = spectrum(series)
    assert abs(om[np.argmax(inten)] - 2.7) <= (om[1] - om[0])


def test_spectrum_zero_series():
    t = np.arange(0.0, 10.0001, 0.05)
    series = CorrelationSeries(t, np.zeros_like(t), np.zeros_like(t))
    om, inten = spectrum(series)
    assert np.all(inten == 0.0)


def test_spectrum_intensity_ratio():
    t = np.arange(0.0, 200.0001, 0.05)
    series = CorrelationSeries(t, np.cos(t) + 0.2 * np.cos(3.0 * t), np.zeros_like(t))
    om, inten = spectrum(series)
    i1 = inten[np.argmin(np.abs(om - 1.0))]
    i3 = inten[np.argmin(np.abs(om - 3.0))]
    assert i1 / i3 == pytest.approx(5.0, rel=0.10)


def test_block_error_constant():
    assert np.all(block_standard_error(np.ones(640)) == 0.0)


def test_block_error_gaussian():
    rng = np.random.default_rng(3)
    se = block_standard_error(rng.standard_normal(1600))
    assert se == pytest.approx(1.0 / 40.0, rel=0.30)


def test_block_error_scaling():
    # average the blocked SE over replications: a single 16-block estimate has
    # ~18% scatter, the mean over 12 replications pins the 1/sqrt(n) law
    rng = np.random.default_rng(4)
    ses = [float(np.mean([block_standard_error(rng.standard_normal(n)) for _ in range(12)]))
           for n in (400, 1600, 6400)]
    assert ses[0] / ses[1] == pytest.approx(2.0, rel=0.30)
    assert ses[1] / ses[2] == pytest.approx(2.0, rel=0.30)


def test_block_error_insufficient():
    with pytest.raises(InsufficientSamples):
        block_standard_error(np.ones(31))


def test_series_validation():
    with pytest.raises(ValueError):
        CorrelationSeries(np.array([0.1, 0.2]), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        CorrelationSeries(np.array([0.0, 0.2]), np.zeros(2), -np.ones(2))
    with pytest.raises(ValueError):
        CorrelationSeries(np.array([0.0, 0.2, 0.1]), np.zeros(3), np.zeros(3))
