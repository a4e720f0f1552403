import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from pimd_kubo import (OBS_P, OBS_Q, OBS_Q2, SamplerConfig, ThermoParams, draw_momenta,
                       estimate_static_average, harmonic, log_ring_density,
                       mean_square_position, mildly_anharmonic, potential_grad, quartic,
                       sample_ring_positions, sample_ring_positions_constrained)
from pimd_kubo import _streams
from pimd_kubo.errors import InsufficientSamples, NonErgodicWarning
from pimd_kubo.model import potential_fn
from pimd_kubo.ringpoly import free_rp_frequencies, normal_mode_matrix
from pimd_kubo.sampler import (_GROUP, _bead_sets, _conditional_centroid_m2, _run_group_free,
                              _run_lanes_constrained)


def _cfg(n, seed=1, **kw):
    kw.setdefault("burn_in", 192)
    kw.setdefault("decorrelation_stride", 4)
    return SamplerConfig(n_samples=n, seed=seed, **kw)


def test_harmonic_q2_matches_grid_oracle(harmonic_model):
    # exact <q^2> = (hbar / 2 m w) coth(beta hbar w / 2) = 1.08198 at beta = 1
    th = ThermoParams(1.0, 32)
    ens = sample_ring_positions(harmonic_model, th, _cfg(30000, seed=2))
    mean, se = estimate_static_average(OBS_Q2, ens)
    assert abs(mean - 1.08198) <= 3.0 * se + 1e-4  # finite-N bias ~1e-4 at N=32


def test_classical_limit_single_bead(harmonic_model):
    th = ThermoParams(1.0, 1)
    ens = sample_ring_positions(harmonic_model, th, _cfg(40000, seed=3))
    var = ens.var()
    se = np.sqrt(2.0 / len(ens)) * var * 3.0  # crude 3-sigma band for a variance
    assert abs(var - 1.0) <= max(se, 0.05)


def test_centroid_distribution(harmonic_model):
    th = ThermoParams(1.0, 16)
    ens = sample_ring_positions(harmonic_model, th, _cfg(30000, seed=4))
    qc = ens.mean(axis=1)
    from pimd_kubo.estimators import block_error
    var_se = block_error(qc * qc)
    assert abs((qc * qc).mean() - 1.0) <= 3.0 * var_se


def test_constrained_centroid_pinned(harmonic_model):
    th = ThermoParams(1.0, 16)
    for q_c in (0.0, 0.7, -1.3):
        ens = sample_ring_positions_constrained(harmonic_model, th, _cfg(500, seed=5), q_c)
        assert np.abs(ens.mean(axis=1) - q_c).max() <= 1e-12


def test_constrained_symmetry(harmonic_model):
    th = ThermoParams(1.0, 16)
    ens = sample_ring_positions_constrained(harmonic_model, th, _cfg(20000, seed=6), 0.0)
    x1 = ens[:, 0]
    skew = stats.skew(x1)
    se = np.sqrt(6.0 / len(x1))  # SE of skewness for near-normal samples
    assert abs(skew) <= 5.0 * se


def test_constrained_mean_force(harmonic_model):
    # harmonic centroid potential is the bare well: <-V'> = -m w^2 q_c exactly
    th = ThermoParams(1.0, 32)
    ens = sample_ring_positions_constrained(harmonic_model, th, _cfg(2000, seed=7), 0.7)
    force = -potential_grad(harmonic_model, ens).mean(axis=1)
    assert abs(force.mean() + 0.7) <= 1e-12


def test_detailed_balance_two_bead_histogram(harmonic_model):
    # 2D histogram against the analytic bivariate Gaussian from log_ring_density
    th = ThermoParams(1.0, 2)
    ens = sample_ring_positions(harmonic_model, th, _cfg(60000, seed=8, decorrelation_stride=6))
    prec = np.array([[4.5, -4.0], [-4.0, 4.5]])  # from the N=2 ring exponent
    cov = np.linalg.inv(prec)
    # verify the precision matrix actually matches log_ring_density
    rng = np.random.default_rng(0)
    for _ in range(4):
        a, b = rng.normal(size=(2, 2))
        lhs = log_ring_density(a, th, harmonic_model) - log_ring_density(b, th, harmonic_model)
        rhs = -0.5 * a @ prec @ a + 0.5 * b @ prec @ b
        assert lhs == pytest.approx(rhs, abs=1e-10)

    lim = 3.2 * np.sqrt(cov[0, 0])
    nb = 20
    edges = np.linspace(-lim, lim, nb + 1)
    counts, _, _ = np.histogram2d(ens[:, 0], ens[:, 1], bins=(edges, edges))
    # expected probabilities by fine midpoint quadrature inside each cell
    fine = 6
    sub = np.linspace(-lim, lim, nb * fine + 1)
    mids = 0.5 * (sub[:-1] + sub[1:])
    xx, yy = np.meshgrid(mids, mids, indexing="ij")
    dens = np.exp(-0.5 * (prec[0, 0] * xx**2 + 2 * prec[0, 1] * xx * yy + prec[1, 1] * yy**2))
    dens *= (sub[1] - sub[0]) ** 2 / (2 * np.pi * np.sqrt(np.linalg.det(cov)))
    prob = dens.reshape(nb, fine, nb, fine).sum(axis=(1, 3))

    n_in = counts.sum()
    mask = prob * n_in >= 10.0
    chi2 = ((counts[mask] - n_in * prob[mask]) ** 2 / (n_in * prob[mask])).sum()
    dof = mask.sum() - 1
    assert chi2 < stats.chi2.ppf(0.99, dof)


def test_trotter_convergence_ratio(harmonic_model):
    # O(1/N^2) scaling on the cheap N = 4 -> 8 doubling; the acceptance suite
    # runs the N = 8 -> 16 version at full statistical power
    exact = 0.5 / np.tanh(0.5)
    errs = {}
    for n_beads, n in ((4, 150000), (8, 500000)):
        th = ThermoParams(1.0, n_beads)
        cfg = _cfg(n, seed=40 + n_beads, burn_in=256, n_walkers=8192)
        ens = sample_ring_positions(harmonic_model, th, cfg)
        mean, se = mean_square_position(ens, harmonic_model, th, conditioned=True)
        errs[n_beads] = abs(mean - exact)
        assert se < 0.15 * errs[n_beads]
    assert 3.2 <= errs[4] / errs[8] <= 4.8


def test_conditional_estimator_consistency(harmonic_model):
    # conditioned and plain estimators agree within combined errors
    th = ThermoParams(1.0, 16)
    ens = sample_ring_positions(harmonic_model, th, _cfg(30000, seed=9))
    m1, s1 = mean_square_position(ens, harmonic_model, th, conditioned=False)
    m2, s2 = mean_square_position(ens, harmonic_model, th, conditioned=True)
    assert abs(m1 - m2) <= 4.0 * np.hypot(s1, s2)


def test_conditional_quadrature_matches_gaussian_branch():
    # force the quadrature path with a vanishing cubic term and compare
    from pimd_kubo import mildly_anharmonic

    th = ThermoParams(1.0, 8)
    rng = np.random.default_rng(10)
    u = rng.normal(size=(200, 8))
    u -= u.mean(axis=1, keepdims=True)
    harm = harmonic(1.0, 1.0)
    tiny = mildly_anharmonic(1.0, 1.0, c3=0.0, c4=1e-14)
    g = _conditional_centroid_m2(harm, th, u)
    q = _conditional_centroid_m2(tiny, th, u)
    assert np.abs(g - q).max() <= 1e-8


def test_conditional_estimator_anharmonic():
    # quadrature-path estimator stays unbiased for a quartic well
    model = quartic(1.0)
    th = ThermoParams(2.0, 8)
    ens = sample_ring_positions(model, th, _cfg(40000, seed=11))
    m1, s1 = mean_square_position(ens, model, th, conditioned=False)
    m2, s2 = mean_square_position(ens, model, th, conditioned=True)
    assert abs(m1 - m2) <= 4.0 * np.hypot(s1, s2)
    assert s2 < s1


def test_momentum_variance(harmonic_model):
    th = ThermoParams(1.0, 4)
    cfg = _cfg(100000, seed=12)
    p = draw_momenta(th, harmonic_model, cfg, "bead")
    var = p.var()
    assert abs(var - 4.0) <= 3.0 * np.sqrt(2.0 / p.size) * 4.0


def test_centroid_momentum_variance(harmonic_model):
    th = ThermoParams(1.0, 4)
    p = draw_momenta(th, harmonic_model, _cfg(100000, seed=13), "bead")
    pc = p.mean(axis=1)
    var = pc.var()
    assert abs(var - 1.0) <= 3.0 * np.sqrt(2.0 / pc.size) * 1.0


def test_bond_midpoint_preserves_centroid(harmonic_model):
    th = ThermoParams(2.0, 8)
    cfg = _cfg(1000, seed=14)
    bead = draw_momenta(th, harmonic_model, cfg, "bead")
    mid = draw_momenta(th, harmonic_model, cfg, "bond_midpoint")
    assert np.abs(bead.mean(axis=1) - mid.mean(axis=1)).max() <= 1e-12
    assert not np.allclose(bead, mid)


def test_draw_momenta_deterministic(harmonic_model):
    th = ThermoParams(1.0, 4)
    cfg = _cfg(100, seed=15)
    assert np.array_equal(draw_momenta(th, harmonic_model, cfg),
                          draw_momenta(th, harmonic_model, cfg))


def test_static_average_symmetry(harmonic_model):
    th = ThermoParams(1.0, 8)
    ens = sample_ring_positions(harmonic_model, th, _cfg(20000, seed=16))
    mean, se = estimate_static_average(OBS_Q, ens)
    assert abs(mean) <= 3.0 * se
    p = draw_momenta(th, harmonic_model, _cfg(20000, seed=17))
    pmean, pse = estimate_static_average(OBS_P, p)
    assert abs(pmean) <= 3.0 * pse


def test_static_average_insufficient():
    with pytest.raises(InsufficientSamples):
        estimate_static_average(OBS_Q, np.zeros((8, 4)))


def test_seed_reproducibility_and_worker_independence(harmonic_model):
    th = ThermoParams(1.0, 8)
    cfg = _cfg(5000, seed=18)
    a = sample_ring_positions(harmonic_model, th, cfg, workers=1)
    b = sample_ring_positions(harmonic_model, th, cfg, workers=4)
    assert np.array_equal(a, b)
    c = sample_ring_positions_constrained(harmonic_model, th, cfg, 0.5, workers=1)
    d = sample_ring_positions_constrained(harmonic_model, th, cfg, 0.5, workers=3)
    assert np.array_equal(c, d)


def test_nonergodic_warning(harmonic_model):
    th = ThermoParams(1.0, 4)
    # no burn-in, giant step: acceptance collapses below 5%
    cfg = SamplerConfig(n_samples=500, seed=19, burn_in=0, decorrelation_stride=1,
                        move_scale=500.0)
    with pytest.warns(NonErgodicWarning):
        sample_ring_positions(harmonic_model, th, cfg)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(n_samples=0, seed=1)
    with pytest.raises(ValueError):
        SamplerConfig(n_samples=10, seed=1, decorrelation_stride=0)
    with pytest.raises(ValueError):
        SamplerConfig(n_samples=10, seed=1, target_acceptance=1.5)


def _reference_run_group_constrained(model, thermo, cfg, q_c, g_index, g_size, rounds, out):
    """The allocating mode-move kernel the buffered one must reproduce bit for bit."""
    n = thermo.n_beads
    beta_n = thermo.beta / n
    pot = potential_fn(model)
    gen = _streams.stream(cfg.seed, _streams.POSITIONS_CONSTRAINED, g_index)
    cmat = normal_mode_matrix(n)
    w = free_rp_frequencies(thermo)
    v2 = model.poly_coefficients()[0]
    curv = 2.0 * v2 + model.mass * 1e-6
    sigma0 = np.sqrt(n / (thermo.beta * (model.mass * w[1:] ** 2 + curv)))

    a = np.zeros((g_size, n))
    a[:, 0] = math.sqrt(n) * q_c
    a[:, 1:] = 0.1 * sigma0 * gen.standard_normal((g_size, n - 1))
    x = a @ cmat.T
    v_sum = pot(x).sum(axis=1)
    scale = np.broadcast_to(cfg.move_scale * sigma0, (g_size, n - 1)).copy()

    total_sweeps = cfg.burn_in + rounds * cfg.decorrelation_stride
    win = np.zeros((g_size, n - 1))
    acc_prod = 0.0
    att_prod = 0.0
    emitted = 0
    half_spring = 0.5 * model.mass * w**2

    sweep = 0
    while sweep < total_sweeps:
        z = gen.standard_normal((n - 1, g_size))
        u = gen.random((n - 1, g_size))
        in_burn = sweep < cfg.burn_in
        for k in range(1, n):
            da = scale[:, k - 1] * z[k - 1]
            xp = x + da[:, None] * cmat[:, k][None, :]
            v_new = pot(xp).sum(axis=1)
            ak = a[:, k]
            d = beta_n * (v_new - v_sum) + beta_n * half_spring[k] * ((ak + da) ** 2 - ak**2)
            acc = u[k - 1] < np.exp(-np.minimum(d, 700.0))
            x[acc] = xp[acc]
            a[acc, k] += da[acc]
            v_sum[acc] = v_new[acc]
            if in_burn:
                win[:, k - 1] += acc
            else:
                acc_prod += float(acc.sum())
                att_prod += g_size
        sweep += 1
        if in_burn and sweep % 16 == 0:
            rate = win / 16
            scale *= np.exp(1.2 * (rate - cfg.target_acceptance))
            np.clip(scale, 1e-4 * sigma0, 1e4 * sigma0, out=scale)
            win[:] = 0.0
        if not in_burn and (sweep - cfg.burn_in) % cfg.decorrelation_stride == 0:
            rows = (np.arange(g_size) + g_index * _GROUP) * rounds + emitted
            out[rows] = x
            emitted += 1
    return acc_prod, att_prod


@pytest.mark.parametrize("model", [harmonic(1.0, 1.0),
                                   mildly_anharmonic(1.0, 1.0, c3=0.3, c4=0.1),
                                   quartic(1.0)],
                         ids=["harmonic", "anharmonic_c3", "quartic"])
@pytest.mark.parametrize("n", [2, 3, 16])
def test_constrained_kernel_matches_reference(model, n, monkeypatch):
    # burn-in of 80 sweeps is five adaptation windows, then 5 rounds at
    # stride 3 are emitted; group 1 checks the row offsets
    th = ThermoParams(2.0, n)
    cfg = SamplerConfig(n_samples=1, seed=23, burn_in=80, decorrelation_stride=3)
    rounds = 5
    rows = (_GROUP + 37) * rounds
    # (seed, q_c, g_index, g_size) of each lane; the stack of all three must
    # give every lane the bits it gets alone, also when its mode moves run
    # in chunks of 7 walkers that cut across the lanes
    lanes = [(23, 0.4, 0, 37), (23, 0.4, 1, 37), (91, -1.3, 1, 20)]
    want, want_stats = [], []
    for seed, q_c, g_index, g_size in lanes:
        plane = np.full((rows, n), np.nan)
        lane_cfg = SamplerConfig(n_samples=1, seed=seed, burn_in=80, decorrelation_stride=3)
        want_stats.append(_reference_run_group_constrained(model, th, lane_cfg, q_c, g_index,
                                                           g_size, rounds, plane))
        want.append(plane)
    for stack, chunk in (([0], None), ([1], None), ([2], None), ([0, 1, 2], None),
                         ([0, 1, 2], 7 * n)):
        if chunk:
            monkeypatch.setattr("pimd_kubo.sampler._CHUNK_VALUES", chunk)
        got = {i: np.full((rows, n), np.nan) for i in stack}
        got_stats = _run_lanes_constrained(model, th, cfg, [lanes[i] + (got[i],) for i in stack],
                                           rounds)
        assert got_stats == [want_stats[i] for i in stack]
        for i in stack:
            assert got[i].tobytes() == want[i].tobytes()
            start = lanes[i][2] * _GROUP * rounds
            assert np.isfinite(got[i][start:start + lanes[i][3] * rounds]).all()


def _reference_run_group_free(model, thermo, cfg, g_index, g_size, rounds, out):
    """The allocating bead-move kernel the buffered one must reproduce bit for bit."""
    n = thermo.n_beads
    beta_n = thermo.beta / n
    c_spring = model.mass * n / (2.0 * thermo.beta * thermo.hbar**2)
    pot = potential_fn(model)
    gen = _streams.stream(cfg.seed, _streams.POSITIONS, g_index)

    x = 0.05 * gen.standard_normal((g_size, n))
    v_cache = pot(x)
    scale = np.full((g_size, 1), cfg.move_scale)
    t_scale = np.full(g_size, cfg.move_scale)

    total_sweeps = cfg.burn_in + rounds * cfg.decorrelation_stride
    win_bead = np.zeros(g_size)
    win_tr = np.zeros(g_size)
    acc_prod = 0.0
    att_prod = 0.0
    emitted = 0

    sets = _bead_sets(n)
    neighbors = [((ks + 1) % n, (ks - 1) % n) for ks in sets]

    sweep = 0
    while sweep < total_sweeps:
        z = gen.standard_normal((n + 1, g_size))
        u = gen.random((n + 1, g_size))
        in_burn = sweep < cfg.burn_in
        off = 0
        for ks, (kp, km) in zip(sets, neighbors):
            xk = x[:, ks]
            prop = xk + scale * z[off:off + ks.size].T
            v_new = pot(prop)
            d = beta_n * (v_new - v_cache[:, ks])
            if n > 1:
                xkp, xkm = x[:, kp], x[:, km]
                d = d + c_spring * ((prop - xkp) ** 2 + (prop - xkm) ** 2
                                    - (xk - xkp) ** 2 - (xk - xkm) ** 2)
            acc = u[off:off + ks.size].T < np.exp(-np.minimum(d, 700.0))
            x[:, ks] = np.where(acc, prop, xk)
            v_cache[:, ks] = np.where(acc, v_new, v_cache[:, ks])
            if in_burn:
                win_bead += acc.sum(axis=1)
            else:
                acc_prod += float(acc.sum())
                att_prod += acc.size
            off += ks.size
        shift = t_scale * z[n]
        xp = x + shift[:, None]
        v_new = pot(xp)
        d = beta_n * (v_new.sum(axis=1) - v_cache.sum(axis=1))
        acc = u[n] < np.exp(-np.minimum(d, 700.0))
        x[acc] = xp[acc]
        v_cache[acc] = v_new[acc]
        if in_burn:
            win_tr += acc

        sweep += 1
        if in_burn and sweep % 16 == 0:
            rate = win_bead / (16 * n)
            scale[:, 0] *= np.exp(1.2 * (rate - cfg.target_acceptance))
            rate_t = win_tr / 16
            t_scale *= np.exp(1.2 * (rate_t - cfg.target_acceptance))
            np.clip(scale, 1e-4 * cfg.move_scale, 1e4 * cfg.move_scale, out=scale)
            np.clip(t_scale, 1e-4 * cfg.move_scale, 1e4 * cfg.move_scale, out=t_scale)
            win_bead[:] = 0.0
            win_tr[:] = 0.0
        if not in_burn and (sweep - cfg.burn_in) % cfg.decorrelation_stride == 0:
            rows = (np.arange(g_size) + g_index * _GROUP) * rounds + emitted
            out[rows] = x
            emitted += 1
    return acc_prod, att_prod


@pytest.mark.parametrize("model", [harmonic(1.0, 1.0),
                                   mildly_anharmonic(1.0, 1.0, c3=0.3, c4=0.1),
                                   quartic(1.0)],
                         ids=["harmonic", "anharmonic_c3", "quartic"])
@pytest.mark.parametrize("n", [1, 2, 5, 64])
def test_free_kernel_matches_reference(model, n):
    # burn-in of 80 sweeps is five adaptation windows, then 5 rounds at
    # stride 3 are emitted; group 1 checks the row offsets
    th = ThermoParams(2.0, n)
    cfg = SamplerConfig(n_samples=1, seed=29, burn_in=80, decorrelation_stride=3)
    rounds = 5
    rows = (_GROUP + 37) * rounds
    for g_index, g_size in ((0, 37), (1, 23)):
        want, got = np.full((rows, n), np.nan), np.full((rows, n), np.nan)
        want_stats = _reference_run_group_free(model, th, cfg, g_index, g_size, rounds, want)
        assert _run_group_free(model, th, cfg, g_index, g_size, rounds, got) == want_stats
        assert got.tobytes() == want.tobytes()
        start = g_index * _GROUP * rounds
        assert np.isfinite(got[start:start + g_size * rounds]).all()


def test_free_sampler_holds_one_sweep_of_draws(harmonic_model):
    # one walker group of 2048 at N = 8: the normals and uniforms come one
    # sweep at a time, so the sampler holds far less than 64 sweeps of draws
    th = ThermoParams(1.0, 8)
    cfg = SamplerConfig(n_samples=4 * _GROUP, seed=31, burn_in=64, decorrelation_stride=4,
                        n_walkers=_GROUP)
    output = cfg.n_samples * th.n_beads * 8
    block = 64 * (th.n_beads + 1) * _GROUP * 8
    tracemalloc.start()
    try:
        sample_ring_positions(harmonic_model, th, cfg, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < output + block / 4


@pytest.mark.parametrize("constrained", [False, True], ids=["free", "constrained"])
def test_streams_are_prefix_stable(constrained):
    # a longer run reproduces every row of a shorter one bit for bit; the
    # runs end at sweeps 70 and 115, so a layout that drew the normals of
    # 64 sweeps ahead would give sweeps 65-70 different numbers in each
    model = mildly_anharmonic(1.0, 1.0, c3=0.3, c4=0.1)
    th = ThermoParams(2.0, 5)
    walkers = 30

    def rows(rounds):
        cfg = SamplerConfig(n_samples=walkers * rounds, seed=37, burn_in=40,
                            decorrelation_stride=3, n_walkers=walkers)
        if constrained:
            ens = sample_ring_positions_constrained(model, th, cfg, 0.4)
        else:
            ens = sample_ring_positions(model, th, cfg)
        return ens.reshape(walkers, rounds, th.n_beads)  # walker-major rows

    short, long = rows(10), rows(25)
    for w in range(walkers):
        assert short[w].tobytes() == long[w, :10].tobytes()
