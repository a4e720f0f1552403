import numpy as np
import pytest
from scipy.integrate import quad

from pimd_kubo import (GridSpec, OBS_P, OBS_Q, OBS_Q2, Observable, SamplerConfig,
                       ThermoParams, diagonalize, discrete_kubo_correlator, draw_momenta,
                       exact_kubo_correlator, harmonic, harmonic_caq_reference,
                       harmonic_swarm_trace, mildly_anharmonic, sample_ring_positions,
                       thermal_average)
from pimd_kubo._stats import CHUNK_ELEMENTS, row_chunks
from pimd_kubo.errors import (BoundaryLeak, ConfigError, GridUnresolved, QuadratureFailure,
                              SpectralIncomplete)
from pimd_kubo.oracle import (_kinetic_matrix, discrete_kubo_weights, kubo_weights,
                              momentum_matrix, observable_matrix, position_matrix)


def test_harmonic_eigenvalues(harmonic_eig_small):
    expect = np.arange(10) + 0.5
    assert np.abs(harmonic_eig_small.energies - expect).max() <= 1e-8


def test_parity(harmonic_eig_small):
    # psi_n(-q) = (-1)^n psi_n(q); the periodic grid mirrors index j -> (N - j) % N
    psi = harmonic_eig_small.states
    n_pts = psi.shape[0]
    mirror = (n_pts - np.arange(n_pts)) % n_pts
    for n in range(10):
        flip = psi[mirror, n]
        assert np.abs(flip - (-1.0) ** n * psi[:, n]).max() <= 1e-8


def test_orthonormality_and_residual(harmonic_eig_small):
    eig = harmonic_eig_small
    overlap = eig.states.T @ eig.states * eig.grid.dq
    assert np.abs(overlap - np.eye(10)).max() <= 1e-10


def test_boundary_leak_raised():
    with pytest.raises(BoundaryLeak):
        diagonalize(harmonic(1.0, 1.0), GridSpec(-4.0, 4.0, 128), 12)


def test_unresolved_grid_raised():
    # dq = 0.375 exceeds (pi / 4) hbar / sqrt(2 m E_max) = 0.297 for E_max = 3.5;
    # a fault of the [oracle] grid, so a ConfigError
    with pytest.raises(GridUnresolved, match="de Broglie") as info:
        diagonalize(harmonic(1.0, 1.0), GridSpec(-12.0, 12.0, 64), 4)
    assert isinstance(info.value, ConfigError)


def test_anharmonic_gap_perturbation_theory():
    # second-order perturbation theory in the quartic coupling, assembled from
    # ladder-operator matrix elements, as an independent reference
    c4 = 0.01
    model = mildly_anharmonic(1.0, 1.0, c3=0.0, c4=c4)
    eig = diagonalize(model, GridSpec(-10.0, 10.0, 512), 8)

    nb = 40
    q = np.zeros((nb, nb))
    for n in range(nb - 1):
        q[n, n + 1] = q[n + 1, n] = np.sqrt((n + 1) / 2.0)
    q4 = np.linalg.matrix_power(q, 4)
    e0 = np.arange(nb) + 0.5

    def pt2(n):
        first = c4 * q4[n, n]
        second = sum((c4 * q4[n, m]) ** 2 / (e0[n] - e0[m])
                     for m in range(nb) if m != n)
        return e0[n] + first + second

    gap = eig.energies[1] - eig.energies[0]
    assert gap > 1.0
    assert gap == pytest.approx(pt2(1) - pt2(0), rel=0.05)


def _one_shot_kinetic_matrix(grid, mass, hbar):
    """The kinetic matrix from the transforms of the whole identity at once.
    Frozen as the reference for the bits of the column-blocked build."""
    n = grid.n_points
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.dq)
    t = np.fft.fft(np.eye(n), axis=0)
    t *= (hbar**2 * k**2 / (2.0 * mass))[:, None]
    t = np.fft.ifft(t, axis=0).real
    return 0.5 * (t + t.T)


@pytest.mark.parametrize("n, budget, blocks", [(64, CHUNK_ELEMENTS, 1), (1001, CHUNK_ELEMENTS, 4),
                                              (97, 97 * 10, 10)],
                         ids=["one-block", "odd-n", "ten-blocks"])
def test_blocked_kinetic_matrix_keeps_the_bits(monkeypatch, n, budget, blocks):
    # 1001 columns take blocks of 261 (the last of 218), 97 nine blocks of 10
    # and one of 7; each column's transforms do not depend on its block
    monkeypatch.setattr("pimd_kubo._stats.CHUNK_ELEMENTS", budget)
    assert len(row_chunks(n, n)) == blocks
    grid = GridSpec(-9.0, 11.0, n)
    assert (_kinetic_matrix(grid, 1.7, 0.9).tobytes()
            == _one_shot_kinetic_matrix(grid, 1.7, 0.9).tobytes())


def test_thermal_average_q2(harmonic_eig):
    val = thermal_average(harmonic_eig, lambda q: q * q, 1.0)
    assert val == pytest.approx(0.5 / np.tanh(0.5), abs=1e-10)
    assert val == pytest.approx(1.08198, abs=1e-5)


def test_spectral_incomplete():
    eig = diagonalize(harmonic(1.0, 1.0), GridSpec(-10.0, 10.0, 512), 6)
    with pytest.raises(SpectralIncomplete):
        exact_kubo_correlator(eig, OBS_Q, OBS_Q, 1.0, np.array([0.0]))
    with pytest.raises(SpectralIncomplete):
        thermal_average(eig, lambda q: q * q, 1.0)


@pytest.mark.parametrize("n_slices", [1, 8])
def test_discrete_spectral_incomplete(n_slices):
    # the N-slice correlator checks the basis as the exact one does
    eig = diagonalize(harmonic(1.0, 1.0), GridSpec(-10.0, 10.0, 512), 6)
    with pytest.raises(SpectralIncomplete):
        discrete_kubo_correlator(eig, OBS_Q, OBS_Q, 1.0, n_slices, np.array([0.0]))


def _callback_kubo_correlator(eig, a_obs, b_obs, beta, times):
    """The exact correlator as the pair-weight callback path computed it, frozen."""
    times = np.asarray(times, dtype=float)
    es = eig.energies - eig.energies[0]
    boltz = np.exp(-beta * es)
    a_mat = observable_matrix(eig, a_obs)
    b_mat = observable_matrix(eig, b_obs)
    g = (kubo_weights(eig.energies, beta) * a_mat * b_mat.T / boltz.sum()).ravel()
    de = (es[None, :] - es[:, None]).ravel() / eig.hbar
    vals = np.empty(times.size, dtype=complex)
    for rows in row_chunks(times.size, 2 * de.size):
        phase = 1j * np.outer(times[rows], de)
        vals[rows] = np.exp(phase, out=phase) @ g
    return vals.real


@pytest.mark.parametrize("a_obs, b_obs", [(OBS_Q, OBS_Q), (OBS_Q2, OBS_Q2), (OBS_P, OBS_Q)],
                         ids=["q_q", "q2_q2", "p_q"])
def test_exact_kubo_keeps_the_callback_bits(harmonic_eig, a_obs, b_obs):
    # one pair sum for both correlators leaves every bit of the exact one
    anharmonic = diagonalize(mildly_anharmonic(1.0, 1.0, c3=0.1, c4=0.01),
                             GridSpec(-12.0, 12.0, 640), 32)
    times = np.linspace(0.0, 30.0, 3001)
    for eig, beta in ((harmonic_eig, 1.0), (anharmonic, 8.0)):
        got = exact_kubo_correlator(eig, a_obs, b_obs, beta, times).values
        assert got.tobytes() == _callback_kubo_correlator(eig, a_obs, b_obs, beta, times).tobytes()


def test_exact_kubo_harmonic_cos(harmonic_eig):
    times = np.linspace(0.0, 20.0, 801)
    series = exact_kubo_correlator(harmonic_eig, OBS_Q, OBS_Q, 1.0, times)
    assert np.abs(series.values - np.cos(times)).max() <= 1e-8


def test_exact_kubo_even_in_time(harmonic_eig):
    t = np.array([0.0, 0.5, 1.5])
    fwd = exact_kubo_correlator(harmonic_eig, OBS_Q2, OBS_Q2, 2.0, t).values
    # evenness for A = B: C(t) must be symmetric, checked via the cosine-only
    # structure of the spectral sum (sum over n<->m pairs)
    bwd = exact_kubo_correlator(harmonic_eig, OBS_Q2, OBS_Q2, 2.0, t).values
    assert np.allclose(fwd, bwd, atol=1e-12)


def test_parity_selection_rule(harmonic_eig):
    times = np.linspace(0.0, 5.0, 50)
    series = exact_kubo_correlator(harmonic_eig, OBS_Q, OBS_Q2, 1.0, times)
    assert np.abs(series.values).max() <= 1e-12


def test_kubo_weights_vs_gauss_legendre(harmonic_eig):
    beta = 1.0
    es = harmonic_eig.energies - harmonic_eig.energies[0]
    nodes, wts = np.polynomial.legendre.leggauss(64)
    lam = 0.5 * beta * (nodes + 1.0)
    ref = np.zeros((es.size, es.size))
    for l, w in zip(lam, 0.5 * wts):
        ref += w * np.outer(np.exp(-l * es), np.exp(-(beta - l) * es))
    assert np.abs(kubo_weights(harmonic_eig.energies, beta) - ref).max() <= 1e-8


def test_kubo_weights_degenerate_limit():
    e = np.array([0.5, 0.5 + 1e-13, 1.5])
    w = kubo_weights(e, 2.0)
    assert w[0, 0] == pytest.approx(1.0)  # shifted: e^{-beta*0}
    assert w[0, 1] == pytest.approx(1.0, rel=1e-9)


def test_momentum_matrix_antihermitian(harmonic_eig_small):
    p = momentum_matrix(harmonic_eig_small)
    assert np.abs(p.real).max() <= 1e-10
    assert np.abs(p + p.T).max() <= 1e-8  # pure imaginary antisymmetric
    # phase-invariant ladder product: <n|q|n+1><n+1|p|n> = i (n+1)/2
    q = position_matrix(harmonic_eig_small, lambda x: x)
    for n in range(5):
        assert q[n, n + 1] * p[n + 1, n] == pytest.approx(0.5j * (n + 1), abs=1e-7)


def test_exact_kubo_qp_derivative_relation(harmonic_eig):
    # C_qp(t) = m d/dt C_qq(t) = -sin(t)/1 for beta = m = w = 1? scaled check
    times = np.linspace(0.0, 10.0, 401)
    qp = exact_kubo_correlator(harmonic_eig, OBS_Q, OBS_P, 1.0, times)
    assert np.abs(qp.values - (-np.sin(times))).max() <= 1e-8


def test_discrete_kubo_n1_is_symmetrized(harmonic_eig):
    # one slice: the symmetrized Boltzmann factor (A e^{-bH} + e^{-bH} A) / 2, shifted by E0
    beta = 2.0
    e = harmonic_eig.energies
    a = position_matrix(harmonic_eig, lambda q: q * q)
    k1 = discrete_kubo_weights(e, beta, 1) * a
    b = np.exp(-beta * (e - e[0]))
    ref = 0.5 * (a * b[None, :] + b[:, None] * a)
    assert np.abs(k1 - ref).max() <= 1e-12


def test_discrete_kubo_diagonal(harmonic_eig):
    beta = 1.5
    e = harmonic_eig.energies
    a = position_matrix(harmonic_eig, lambda q: q * q)
    for n_slices in (1, 3, 8):
        k = discrete_kubo_weights(e, beta, n_slices) * a
        assert np.abs(np.diag(k) - np.diag(a) * np.exp(-beta * (e - e[0]))).max() <= 1e-12


def test_discrete_kubo_weights_tend_to_kubo_weights(harmonic_eig):
    # the trapezoid rule's error is O(1/N^2) where beta (Em - En) / N is small,
    # so over the lowest 8 states (gaps up to 7, beta = 2)
    beta = 2.0
    e = harmonic_eig.energies[:8]
    exact = kubo_weights(e, beta)
    errs = {n: np.abs(discrete_kubo_weights(e, beta, n) - exact).max() for n in (8, 16)}
    assert 3.5 <= errs[8] / errs[16] <= 4.5


def test_discrete_kubo_convergence(harmonic_eig):
    beta = 2.0
    t0 = np.array([0.0])
    exact = exact_kubo_correlator(harmonic_eig, OBS_Q2, OBS_Q2, beta, t0).values[0]
    errs = {n: abs(discrete_kubo_correlator(harmonic_eig, OBS_Q2, OBS_Q2, beta, n, t0).values[0] - exact)
            for n in (8, 16)}
    assert 3.5 <= errs[8] / errs[16] <= 4.5


def test_swarm_trace_delta_limit():
    rng = np.random.default_rng(4)
    m = harmonic(1.0, 1.0)
    th = ThermoParams(2.0, 6)
    x, p = rng.normal(size=(2, 6))
    for f in (lambda q: q, lambda q: q * q, lambda q: q**4):
        direct = np.mean(f(x))
        assert harmonic_swarm_trace(x, p, 0.0, f, m, th) == pytest.approx(direct, abs=1e-10)


def test_swarm_trace_linear_b_is_classical_mean():
    rng = np.random.default_rng(8)
    m = harmonic(1.0, 1.3)
    th = ThermoParams(1.0, 4)
    x, p = rng.normal(size=(2, 4))
    t = 0.9
    p_mid = 0.5 * (p + np.roll(p, -1))
    expect = np.mean(x * np.cos(1.3 * t) + p_mid * np.sin(1.3 * t) / 1.3)
    assert harmonic_swarm_trace(x, p, t, lambda q: q, m, th) == pytest.approx(expect, abs=1e-9)


def test_swarm_trace_gaussian_width():
    # B = q^2 at t = pi/2 on a zero state isolates the swarm variance
    m = harmonic(1.0, 1.0)
    th = ThermoParams(8.0, 4)
    x = np.zeros(4)
    p = np.zeros(4)
    val = harmonic_swarm_trace(x, p, np.pi / 2.0, lambda q: q * q, m, th)
    assert val == pytest.approx(8.0 / (4.0 * 4.0), abs=1e-9)
    assert val == pytest.approx(0.5, abs=1e-9)


def test_swarm_trace_matches_adaptive_quadrature():
    # a non-polynomial B, so the Gauss-Hermite sums are not exact at any order
    rng = np.random.default_rng(12)
    m = harmonic(1.0, 1.0)
    th = ThermoParams(8.0, 4)
    x, p = rng.normal(size=(2, 4))
    t = 0.7
    val = harmonic_swarm_trace(x, p, t, lambda q: np.cos(3.0 * q), m, th)
    centers = x * np.cos(t) + 0.5 * (p + np.roll(p, -1)) * np.sin(t)
    sigma = np.sqrt(8.0 * np.sin(t) ** 2 / 16.0)
    ref = np.mean([quad(lambda q, mu=mu: np.cos(3.0 * q) * np.exp(-0.5 * ((q - mu) / sigma) ** 2),
                        mu - 12.0 * sigma, mu + 12.0 * sigma, epsabs=1e-14, epsrel=1e-14,
                        limit=200)[0] for mu in centers]) / (sigma * np.sqrt(2.0 * np.pi))
    assert val == pytest.approx(ref, abs=1e-10)


def test_swarm_trace_quadrature_failure():
    m = harmonic(1.0, 1.0)
    th = ThermoParams(1.0, 4)
    x = np.zeros(4)
    p = np.zeros(4)
    with pytest.raises(QuadratureFailure):
        harmonic_swarm_trace(x, p, 0.7,
                             lambda q: np.sign(np.sin(300.0 / (np.abs(q) + 1e-3))), m, th)


def test_caq_reference_matches_cos(harmonic_model):
    th = ThermoParams(1.0, 16)
    cfg = SamplerConfig(n_samples=4096, seed=17, burn_in=128, decorrelation_stride=2)
    times = np.linspace(0.0, 10.0, 101)
    x = sample_ring_positions(harmonic_model, th, cfg)
    p = draw_momenta(harmonic_model, th, cfg)
    series = harmonic_caq_reference(harmonic_model, th, OBS_Q, times, x, p)
    dev = np.abs(series.values - np.cos(times)) / np.maximum(series.std_errors, 1e-12)
    assert dev.max() <= 3.0
    assert series.values[0] == pytest.approx(1.0, abs=3 * series.std_errors[0])
