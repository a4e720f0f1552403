import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from pimd_kubo import (OBS_P, OBS_Q, OBS_Q2, SamplerConfig, ThermoParams, block_standard_error,
                       draw_momenta, estimate_static_average, harmonic, log_ring_density,
                       mean_square_position, mildly_anharmonic, quartic,
                       sample_ring_positions, sample_ring_positions_constrained)
from pimd_kubo import GridSpec, diagonalize, exact_kubo_correlator
from pimd_kubo.errors import InsufficientSamples, NonErgodicWarning, UnsupportedModel
from pimd_kubo.model import grad_fn, potential_fn
from pimd_kubo.ringpoly import free_rp_frequencies, normal_mode_matrix
from pimd_kubo.sampler import (_GROUP, _conditional_centroid_m2, _layout, _reference,
                              _run_group)


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
    var_se = block_standard_error(qc * qc)
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
    force = -grad_fn(harmonic_model)(ens).mean(axis=1)
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
        mean, se = mean_square_position(ens, harmonic_model, th)
        errs[n_beads] = abs(mean - exact)
        assert se < 0.15 * errs[n_beads]
    assert 3.2 <= errs[4] / errs[8] <= 4.8


def test_conditional_estimator_consistency(harmonic_model):
    # conditioned and plain estimators agree within combined errors
    th = ThermoParams(1.0, 16)
    ens = sample_ring_positions(harmonic_model, th, _cfg(30000, seed=9))
    m1, s1 = estimate_static_average(OBS_Q2, ens)
    m2, s2 = mean_square_position(ens, harmonic_model, th)
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
    m1, s1 = estimate_static_average(OBS_Q2, ens)
    m2, s2 = mean_square_position(ens, model, th)
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
    pmean, pse = estimate_static_average(OBS_P, momenta=p)
    assert abs(pmean) <= 3.0 * pse


def test_static_average_insufficient():
    with pytest.raises(InsufficientSamples):
        estimate_static_average(OBS_Q, np.zeros((8, 4)))


def test_seed_reproducibility_and_worker_independence(harmonic_model, monkeypatch):
    th = ThermoParams(1.0, 8)
    cfg = _cfg(5000, seed=18)

    def sampled(threads, *q_c):
        monkeypatch.setenv("PIMD_KUBO_THREADS", threads)
        if q_c:
            return sample_ring_positions_constrained(harmonic_model, th, cfg, *q_c)
        return sample_ring_positions(harmonic_model, th, cfg)

    assert np.array_equal(sampled("1"), sampled("4"))
    assert np.array_equal(sampled("1", 0.5), sampled("3", 0.5))


def test_nonergodic_warning():
    # a pure quartic well deep in the quantum regime: the Gaussian reference
    # misses the non-Gaussian shape of every one of the 512 beads, and after
    # burn-in the walkers accept about 1.5 % of their proposals
    th = ThermoParams(2048.0, 512)
    cfg = SamplerConfig(n_samples=400, seed=19, burn_in=100, decorrelation_stride=1,
                        n_walkers=200)
    with pytest.warns(NonErgodicWarning, match="below 0.05"):
        sample_ring_positions(quartic(1.0), th, cfg)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(n_samples=0, seed=1)
    with pytest.raises(ValueError):
        SamplerConfig(n_samples=10, seed=1, decorrelation_stride=0)
    with pytest.raises(ValueError):
        SamplerConfig(n_samples=10, seed=1, n_walkers=0)
    with pytest.raises(TypeError):  # no step size to adapt
        SamplerConfig(n_samples=10, seed=1, move_scale=0.5)


def _run_kernel(model, thermo, cfg, q_c=None):
    """(rows, accepted, attempted) of _run_group over every walker group of cfg."""
    walkers, rounds, groups = _layout(cfg)
    out = np.full((walkers * rounds, thermo.n_beads), np.nan)
    reference = _reference(model, thermo, q_c)
    counts = [_run_group(model, thermo, cfg, cfg.seed, q_c, reference, g, size, rounds, out)
              for g, size in groups]
    return out[: cfg.n_samples], sum(c[0] for c in counts), sum(c[1] for c in counts)


def test_reference_solved_once_per_node(monkeypatch):
    # (c, kappa) depends on the node alone: a free call on a cubic well, where
    # every solve bisects for c, solves once for its four walker groups, and
    # a constrained grid once per node
    calls = []

    def counted(model, thermo, q_c):
        calls.append(q_c)
        return _reference(model, thermo, q_c)

    monkeypatch.setattr("pimd_kubo.sampler._reference", counted)
    monkeypatch.setenv("PIMD_KUBO_THREADS", "2")
    model, th = mildly_anharmonic(c3=0.1, c4=0.01), ThermoParams(8.0, 4)
    cfg = SamplerConfig(n_samples=4 * _GROUP, seed=3, burn_in=1, decorrelation_stride=1,
                        n_walkers=4 * _GROUP)
    assert len(_layout(cfg)[2]) == 4
    sample_ring_positions(model, th, cfg)
    assert calls == [None]
    sample_ring_positions_constrained(model, th, cfg, [-0.5, 0.5])
    assert calls == [None, -0.5, 0.5]


@pytest.mark.parametrize("n", [2, 3, 16, 64])
def test_harmonic_reference_is_exact(harmonic_model, n):
    # the reference is the harmonic ring itself: every proposal is accepted,
    # rows are independent draws, and each normal mode's mean square is its
    # variance N / (beta (m w_k^2 + m w^2)) within 3 SE (sqrt(2 / rows) relative)
    th = ThermoParams(8.0, n)
    cfg = SamplerConfig(n_samples=4096, seed=n, burn_in=16, decorrelation_stride=1)
    var = n / (th.beta * (free_rp_frequencies(th) ** 2 + 1.0))
    for q_c in (None, 0.7):
        ens, accepted, attempted = _run_kernel(harmonic_model, th, cfg, q_c)
        assert accepted == attempted
        a = ens @ normal_mode_matrix(n)
        internal = (a[:, 1:] ** 2).mean(axis=0) / var[1:] - 1.0
        assert np.abs(internal).max() <= 3.0 * math.sqrt(2.0 / len(ens))
        if q_c is None:
            assert abs((a[:, 0] ** 2).mean() / var[0] - 1.0) <= 3.0 * math.sqrt(2.0 / len(ens))
        else:
            assert np.abs(a[:, 0] - math.sqrt(n) * q_c).max() <= 1e-12


def _importance_reference(model, thermo, q_c, f, draws=40000):
    """<f(x)> and its SE by self-normalised importance sampling.

    The draws are i.i.d. from the Gaussian ring of _reference,
    built here from normal_mode_matrix and numpy's own generator; any
    proper curvature would give an unbiased estimate, this one a precise
    one.  Mode 0 is pinned at sqrt(N) q_c unless q_c is None.
    """
    n = thermo.n_beads
    c, kappa = _reference(model, thermo, q_c)
    first = 0 if q_c is None else 1
    w2 = model.mass * free_rp_frequencies(thermo)[first:] ** 2
    sigma = np.sqrt(n / (thermo.beta * (w2 + kappa)))
    y = (np.random.default_rng(5).standard_normal((draws, n - first)) * sigma
         @ normal_mode_matrix(n)[:, first:].T)
    x = c + y
    log_w = -(thermo.beta / n) * (potential_fn(model)(x) - 0.5 * kappa * y * y).sum(axis=1)
    w = np.exp(log_w - log_w.max())
    vals = f(x)
    mean = (w * vals).sum() / w.sum()
    return mean, math.sqrt((w * w * (vals - mean) ** 2).sum()) / w.sum()


_MODELS = pytest.mark.parametrize("model", [harmonic(1.0, 1.0),
                                            mildly_anharmonic(1.0, 1.0, c3=0.3, c4=0.1),
                                            quartic(1.0)],
                                  ids=["harmonic", "anharmonic_c3", "quartic"])


@_MODELS
@pytest.mark.parametrize("n", [2, 3, 16])
def test_constrained_kernel_matches_reference(model, n):
    # the mean force -<(1/N) sum_j V'(x_j)> on two nodes against the bare
    # harmonic force -m w^2 q_c, a 1-D quadrature over the single internal
    # mode of N = 2, or an importance-sampling estimate (4 combined SE:
    # 18 comparisons)
    th = ThermoParams(2.0, n)
    cfg = SamplerConfig(n_samples=8192, seed=23, burn_in=64, decorrelation_stride=2)
    grad = grad_fn(model)

    def force(x):
        return -grad(x).mean(axis=1)

    for q_c in (0.4, -1.3):
        vals = force(sample_ring_positions_constrained(model, th, cfg, q_c))
        mean, se = vals.mean(), block_standard_error(vals, 64)
        if model.kind == "harmonic":
            assert abs(mean + q_c) <= 1e-12
            continue
        if n == 2:
            # x = q_c -/+ a / sqrt(2); the ring exponent is
            # (beta / 2) (V(x_0) + V(x_1) + m w_1^2 a^2 / 2)
            a = np.linspace(-12.0, 12.0, 24001)
            x = q_c + np.stack([-a, a], axis=1) / math.sqrt(2.0)
            w1 = free_rp_frequencies(th)[1]
            expo = 0.5 * th.beta * (potential_fn(model)(x).sum(axis=1) + 0.5 * w1**2 * a * a)
            weight = np.exp(-(expo - expo.min()))
            want, want_se = (weight * force(x)).sum() / weight.sum(), 0.0
        else:
            want, want_se = _importance_reference(model, th, q_c, force)
        assert abs(mean - want) <= 4.0 * math.hypot(se, want_se)


@_MODELS
@pytest.mark.parametrize("n", [1, 2, 5, 64])
def test_free_kernel_matches_reference(model, n):
    # <centroid> and <(1/N) sum_j x_j^2> against the analytic harmonic
    # values or an importance-sampling estimate (4 combined SE: 24 comparisons)
    th = ThermoParams(2.0, n)
    cfg = SamplerConfig(n_samples=8192, seed=29, burn_in=64, decorrelation_stride=2)
    ens = sample_ring_positions(model, th, cfg)
    assert np.isfinite(ens).all()
    bead_m2 = np.sum(1.0 / (th.beta * (free_rp_frequencies(th) ** 2 + 1.0)))
    for f, harmonic_value in ((lambda x: x.mean(axis=1), 0.0),
                              (lambda x: (x * x).mean(axis=1), bead_m2)):
        vals = f(ens)
        mean, se = vals.mean(), block_standard_error(vals, 64)
        if model.kind == "harmonic":
            want, want_se = harmonic_value, 0.0
        else:
            want, want_se = _importance_reference(model, th, None, f)
        assert abs(mean - want) <= 4.0 * math.hypot(se, want_se)


def test_quartic_centroid_variance_matches_oracle():
    # the rpmd-quartic-n128 physics point, pooled over four runs of 2048
    # samples (seeds 1-4): <q_c^2> is the Kubo C_qq(0) of the grid oracle
    # (0.10465); the local-move Metropolis sampler read 0.1158 +- 0.0019 here
    model = quartic(1.0)
    th = ThermoParams(8.0, 128)
    eig = diagonalize(model, GridSpec(-8.0, 8.0, 320), 24)
    exact = exact_kubo_correlator(eig, OBS_Q, OBS_Q, th.beta, [0.0]).values[0]
    means, ses = [], []
    for seed in range(1, 5):
        ens = sample_ring_positions(model, th, SamplerConfig(n_samples=2048, seed=seed))
        qc2 = ens.mean(axis=1) ** 2
        means.append(qc2.mean())
        ses.append(block_standard_error(qc2))
    assert abs(np.mean(means) - exact) <= 3.0 * math.hypot(*ses) / len(ses)


def _transfer_matrix_moments(model, thermo, span=8.0, points=801):
    """Bead <x> and <x^2> of the N-bead ring from the N-th power of its
    symmetric bead transfer matrix on a uniform grid."""
    x = np.linspace(-span, span, points)
    v = potential_fn(model)(x)
    n, beta = thermo.n_beads, thermo.beta
    step = np.exp(-(beta / n) * 0.5 * (v[:, None] + v[None, :])
                  - (model.mass * n / (2.0 * beta)) * (x[:, None] - x[None, :]) ** 2)
    d = np.diag(np.linalg.matrix_power(step * (x[1] - x[0]), n))
    return (d * x).sum() / d.sum(), (d * x * x).sum() / d.sum()


def test_shoulder_well_matches_transfer_matrix():
    # c3 = -0.72, c4 = 0.3 is a single well just short of a second minimum
    # (9 v3^2 = 4.67 < 32 v2 v4 = 4.8); at beta = 8, N = 16 its ring sits
    # off q = 0, at <x> = 0.525, where a reference centred at q = 0 reads
    # 0.419.  Bead <x> and <x^2> within 4 SE of the transfer matrix
    model = mildly_anharmonic(1.0, 1.0, c3=-0.72, c4=0.3)
    th = ThermoParams(8.0, 16)
    ens = sample_ring_positions(model, th, SamplerConfig(n_samples=8192, seed=43))
    for f, want in zip((lambda x: x.mean(axis=1), lambda x: (x * x).mean(axis=1)),
                       _transfer_matrix_moments(model, th)):
        vals = f(ens)
        assert abs(vals.mean() - want) <= 4.0 * block_standard_error(vals, 64)


def test_second_minimum_is_rejected():
    # c3 = -1, c4 = 0.3: a second, deeper minimum at q = 2.10.  At beta = 8,
    # N = 16 the transfer matrix puts 3.6 % of the beads below the barrier
    # top at q = 0.40, nearly all on the 27 % of rings that cross it, which
    # Gaussian proposals reach too rarely: both ensembles refuse the model
    model = mildly_anharmonic(1.0, 1.0, c3=-1.0, c4=0.3)
    th = ThermoParams(8.0, 16)
    cfg = SamplerConfig(n_samples=64, seed=1)
    assert _transfer_matrix_moments(model, th)[0] == pytest.approx(1.7186, abs=1e-4)
    with pytest.raises(UnsupportedModel, match="second minimum"):
        sample_ring_positions(model, th, cfg)
    with pytest.raises(UnsupportedModel, match="second minimum"):
        sample_ring_positions_constrained(model, th, cfg, [0.0, 2.0])


def test_free_sampler_holds_one_sweep_of_draws(harmonic_model, monkeypatch):
    # one walker group of 2048 at N = 8: the normals and uniforms come one
    # proposal at a time, so the sampler holds far less than 64 proposals'
    # worth of draws (the bound counts N + 1 of them per walker and proposal)
    th = ThermoParams(1.0, 8)
    cfg = SamplerConfig(n_samples=4 * _GROUP, seed=31, burn_in=64, decorrelation_stride=4,
                        n_walkers=_GROUP)
    output = cfg.n_samples * th.n_beads * 8
    block = 64 * (th.n_beads + 1) * _GROUP * 8
    monkeypatch.setenv("PIMD_KUBO_THREADS", "1")
    tracemalloc.start()
    try:
        sample_ring_positions(harmonic_model, th, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < output + block / 4


@pytest.mark.parametrize("constrained", [False, True], ids=["free", "constrained"])
def test_streams_are_prefix_stable(constrained):
    # a longer run reproduces every row of a shorter one bit for bit; the
    # runs end at proposals 70 and 115, so a layout that drew the normals of
    # 64 proposals ahead would give proposals 65-70 different numbers in each
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
