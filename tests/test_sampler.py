import math
import warnings

import numpy as np
import pytest
from scipy import stats

from pimd_kubo import (OBS_P, OBS_Q, OBS_Q2, OBS_Q3, SamplerConfig, ThermoParams,
                       block_standard_error, draw_momenta, harmonic, log_ring_density,
                       mildly_anharmonic, observable_from_label, quartic, sample_ring_positions,
                       sample_ring_positions_constrained, static_average)
from pimd_kubo import GridSpec, diagonalize, exact_kubo_correlator
from pimd_kubo.errors import InsufficientSamples, NonErgodicWarning, UnsupportedModel
from pimd_kubo.model import force_fn, potential_fn
from pimd_kubo.ringpoly import bond_midpoints, free_rp_frequencies, normal_mode_matrix
from pimd_kubo._stats import CHUNK_ELEMENTS, row_chunks
from pimd_kubo import _streams, sampler
from pimd_kubo.sampler import (_CENTROID_NODES, _GROUP, _layout, _reference, _run_group,
                              _sample, _static_values, sample_static_average)


def _cfg(n, seed=1, **kw):
    kw.setdefault("burn_in", 192)
    kw.setdefault("decorrelation_stride", 4)
    return SamplerConfig(n_samples=n, seed=seed, **kw)


def test_harmonic_q2_matches_grid_oracle(harmonic_model):
    # exact <q^2> = (hbar / 2 m w) coth(beta hbar w / 2) = 1.08198 at beta = 1
    th = ThermoParams(1.0, 32)
    ens = sample_ring_positions(harmonic_model, th, _cfg(30000, seed=2))
    mean, se = static_average(OBS_Q2, ens, harmonic_model, th)
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
    grid = np.array([0.0, 0.7, -1.3])
    ens = sample_ring_positions_constrained(harmonic_model, th, _cfg(500, seed=5), grid)
    for q_c, node in zip(grid, ens):
        assert np.abs(node.mean(axis=1) - q_c).max() <= 1e-12


def test_constrained_symmetry(harmonic_model):
    th = ThermoParams(1.0, 16)
    ens = sample_ring_positions_constrained(harmonic_model, th, _cfg(20000, seed=6), [0.0])[0]
    x1 = ens[:, 0]
    skew = stats.skew(x1)
    se = np.sqrt(6.0 / len(x1))  # SE of skewness for near-normal samples
    assert abs(skew) <= 5.0 * se


def test_constrained_mean_force(harmonic_model):
    # harmonic centroid potential is the bare well: <-V'> = -m w^2 q_c exactly
    th = ThermoParams(1.0, 32)
    ens = sample_ring_positions_constrained(harmonic_model, th, _cfg(2000, seed=7), [0.7])[0]
    force = force_fn(harmonic_model)(ens, np.empty_like(ens)).mean(axis=1)
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
        lhs = log_ring_density(a, harmonic_model, th) - log_ring_density(b, harmonic_model, th)
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
        mean, se = static_average(OBS_Q2, ens, harmonic_model, th)
        errs[n_beads] = abs(mean - exact)
        assert se < 0.15 * errs[n_beads]
    assert 3.2 <= errs[4] / errs[8] <= 4.8


LABELS = ["q", "q2", "q3", "poly:0.5,-1,0,2"]


def _plain_bead_mean(obs, ens):
    """The bead mean of f over each row, without the centroid integrated out."""
    vals = obs.centroid(ens, None)
    return float(vals.mean()), float(block_standard_error(vals))


def test_conditional_estimator_consistency(harmonic_model):
    # conditioned and plain estimators agree within combined errors
    th = ThermoParams(1.0, 16)
    ens = sample_ring_positions(harmonic_model, th, _cfg(30000, seed=9))
    for obs in map(observable_from_label, LABELS):
        m1, s1 = _plain_bead_mean(obs, ens)
        m2, s2 = static_average(obs, ens, harmonic_model, th)
        assert abs(m1 - m2) <= 4.0 * np.hypot(s1, s2), obs.label
        assert s2 < s1, obs.label


def test_conditional_quadrature_matches_gaussian_branch():
    # force the quadrature path with a vanishing quartic term and compare
    th = ThermoParams(1.0, 8)
    x = np.random.default_rng(10).normal(size=(200, 8))
    harm = harmonic(1.0, 1.0)
    tiny = mildly_anharmonic(1.0, 1.0, c3=0.0, c4=1e-14)
    for obs in map(observable_from_label, LABELS):
        g = _static_values(obs, x, harm, th)
        q = _static_values(obs, x, tiny, th)
        assert np.abs(g - q).max() <= 1e-8, obs.label


def test_conditional_estimator_anharmonic():
    # quadrature-path estimator stays unbiased for a quartic well
    model = quartic(1.0)
    th = ThermoParams(2.0, 8)
    ens = sample_ring_positions(model, th, _cfg(40000, seed=11))
    for obs in map(observable_from_label, LABELS):
        m1, s1 = _plain_bead_mean(obs, ens)
        m2, s2 = static_average(obs, ens, model, th)
        assert abs(m1 - m2) <= 4.0 * np.hypot(s1, s2), obs.label
        assert s2 < s1, obs.label


def test_integrated_estimator_on_an_asymmetric_well():
    # q, q2, q3 and poly: agree with the plain bead mean within 4 combined
    # SE, and the SE of q and q3 falls
    model, th = mildly_anharmonic(1.0, 1.0, c3=0.1, c4=0.01), ThermoParams(8.0, 32)
    ens = sample_ring_positions(model, th, _cfg(16384, seed=1))
    for obs in map(observable_from_label, LABELS):
        m1, s1 = _plain_bead_mean(obs, ens)
        m2, s2 = static_average(obs, ens, model, th)
        assert abs(m1 - m2) <= 4.0 * np.hypot(s1, s2), obs.label
        assert s2 < s1 or obs.label not in ("q", "q3"), obs.label


# the six wells on which the Gauss-Legendre node count was chosen
NODE_WELLS = [(quartic(1.0), 8.0, 4), (quartic(1.0), 8.0, 8), (quartic(1.0), 1.0, 32),
              (mildly_anharmonic(1.0, 1.0, c3=0.1, c4=0.01), 1.0, 32),
              (mildly_anharmonic(1.0, 1.0, c3=0.1, c4=0.01), 8.0, 32),
              (mildly_anharmonic(1.0, 1.0, c4=0.05), 8.0, 64)]


@pytest.mark.parametrize("model, beta, n", NODE_WELLS,
                         ids=["quartic_b8_n4", "quartic_b8_n8", "quartic_b1_n32",
                              "c3_b1_n32", "c3_b8_n32", "c4_b8_n64"])
def test_doubling_the_centroid_nodes_moves_no_row(monkeypatch, model, beta, n):
    # every row's q, q2 and q3 value is converged in the node count: twice
    # the nodes move none by 1e-14 of the largest q2 value of the rows
    th = ThermoParams(beta, n)
    x = sample_ring_positions(model, th, _cfg(2048, seed=43))
    got = [_static_values(obs, x, model, th) for obs in (OBS_Q, OBS_Q2, OBS_Q3)]
    doubled = np.polynomial.legendre.leggauss(2 * _CENTROID_NODES)
    monkeypatch.setattr(sampler, "_legendre_rule", lambda: doubled)
    for obs, vals in zip((OBS_Q, OBS_Q2, OBS_Q3), got):
        moved = np.abs(_static_values(obs, x, model, th) - vals)
        assert moved.max() < 1e-14 * got[1].max(), obs.label


@pytest.mark.parametrize("model", [harmonic(1.0, 1.0), quartic(1.0),
                                   mildly_anharmonic(1.0, 1.0, c3=0.1, c4=0.01)],
                         ids=["harmonic", "quartic", "c3"])
def test_bead_mean_force_integrates_to_zero(model):
    # by parts over the centroid's conditional density,
    # E[(1/N) sum_j V'(x_j) | u] = 0 for every ring
    v2, v3, v4 = model.poly_coefficients()
    obs = observable_from_label(f"poly:0,{2.0 * v2!r},{3.0 * v3!r},{4.0 * v4!r}")
    th = ThermoParams(4.0, 16)
    x = sample_ring_positions(model, th, _cfg(2048, seed=44))
    assert np.abs(_static_values(obs, x, model, th)).max() <= 1e-12


@pytest.mark.parametrize("model", [harmonic(1.0, 1.0), quartic(1.0),
                                   mildly_anharmonic(1.0, 1.0, c3=0.1, c4=0.01)],
                         ids=["harmonic", "quartic", "c3"])
def test_streamed_values_equal_values_of_held_rows(monkeypatch, model):
    # two walker groups (2048 + 64): a batch of the first holds 8 of its 11
    # rounds, so it ends in a partial batch, and the second takes all 11 in
    # one; each row's value does not depend on the batch it was drawn in or
    # on the threads, and the [:n_samples] cut drops the same rows
    th = ThermoParams(4.0, 16)
    walkers = _GROUP + 64
    cfg = SamplerConfig(n_samples=11 * walkers - 5, seed=45, burn_in=4, decorrelation_stride=1,
                        n_walkers=walkers)
    assert CHUNK_ELEMENTS // (_GROUP * th.n_beads) == 8 and _layout(cfg)[1] == 11
    x = sample_ring_positions(model, th, cfg)
    labels = [OBS_Q, OBS_Q2, OBS_Q3, observable_from_label("poly:0.5,-1,0,2")]
    held = [_static_values(obs, x, model, th) for obs in labels]
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("PIMD_KUBO_THREADS", threads)
        for obs, want in zip(labels, held):
            got = _sample(model, th, cfg, [None], lambda r: _static_values(obs, r, model, th))[0]
            assert got.tobytes() == want.tobytes(), (threads, obs.label)
    for obs in labels:
        assert (np.array(sample_static_average(obs, model, th, cfg)).tobytes()
                == np.array(static_average(obs, x, model, th)).tobytes()), obs.label


def test_streamed_constrained_values_equal_values_of_held_rows(monkeypatch):
    # the force table's value on 17 nodes of 128 walkers: one thread stacks
    # them as 8 + 9, whose batch holds 14 of the 16 rounds and then 2; three
    # threads stack 5 + 6 + 6, whose batch holds all 16
    model, th = mildly_anharmonic(1.0, 1.0, c4=0.05), ThermoParams(4.0, 16)
    cfg = SamplerConfig(n_samples=2048, seed=46, burn_in=8)
    grid = np.linspace(-3.0, 3.0, 17)
    force = force_fn(model)

    def value(x):
        return force(x, np.empty_like(x)).mean(axis=-1)

    want = value(sample_ring_positions_constrained(model, th, cfg, grid))
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("PIMD_KUBO_THREADS", threads)
        got = sample_ring_positions_constrained(model, th, cfg, grid, value)
        assert got.shape == (17, 2048)
        assert got.tobytes() == want.tobytes(), threads


def test_momenta_drawn_in_chunks_equal_one_draw(harmonic_model):
    # the stream's normals do not depend on how many are drawn at once, so
    # draw_momenta, built from row chunks, is one whole draw, and static p
    # keeps only each chunk's bead means
    whole = _streams.stream(7, _streams.MOMENTA, 0).standard_normal((1000, 64))
    gen = _streams.stream(7, _streams.MOMENTA, 0)
    parts = [gen.standard_normal((m, 64)) for m in (1, 333, 2, 664)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()
    th = ThermoParams(2.0, 64)
    cfg = _cfg(3 * CHUNK_ELEMENTS // 64 + 5, seed=7)
    assert len(row_chunks(cfg.n_samples, th.n_beads)) == 4
    p = draw_momenta(harmonic_model, th, cfg)
    sigma = math.sqrt(harmonic_model.mass * th.n_beads / th.beta)
    one = sigma * _streams.stream(7, _streams.MOMENTA, 0).standard_normal(p.shape)
    assert p.tobytes() == one.tobytes()
    assert (np.array(sample_static_average(OBS_P, harmonic_model, th, cfg)).tobytes()
            == np.array(static_average(OBS_P, p, harmonic_model, th)).tobytes())


def _unchunked_mean_square_position(ensemble, model, thermo, blocks=16):
    """static_average of q2 with the ensemble's u, u.u and u.u.u sums formed
    whole and the quadrature in 65536-row chunks; returns (mean, se) and the
    per-row values E[c^2 + P_2 | u], P_2 the bead mean of u^2.
    Frozen as the reference for the bits of the chunked estimator."""
    x = np.asarray(ensemble, dtype=float)
    qc = x.mean(axis=1)
    u = x - qc[:, None]
    v2, v3, v4 = model.poly_coefficients()
    n = u.shape[-1]
    beta_n = thermo.beta / n
    p2 = (u * u).mean(axis=1)
    if v3 == 0.0 and v4 == 0.0:
        vals = p2 + 1.0 / (2.0 * beta_n * v2 * n)
    else:
        s2 = (u * u).sum(axis=-1)
        s3 = (u * u * u).sum(axis=-1)
        b4, b3 = v4 * n, v3 * n
        b2 = v2 * n + 6.0 * v4 * s2
        b1 = 3.0 * v3 * s2 + 4.0 * v4 * s3
        t, wq = np.polynomial.legendre.leggauss(_CENTROID_NODES)
        vals = np.empty(u.shape[0])
        for lo in range(0, u.shape[0], 65536):
            hi = min(lo + 65536, u.shape[0])
            bb1, bb2 = b1[lo:hi], b2[lo:hi]

            def expo(c):
                return beta_n * (((b4 * c + b3) * c + bb2) * c + bb1) * c

            span = np.minimum(np.sqrt(40.0 / np.maximum(beta_n * bb2, 1e-300)),
                              (40.0 / (beta_n * b4)) ** 0.25)
            span = np.minimum(span, 1e6)
            for _ in range(80):
                low = np.minimum(expo(span), expo(-span))
                grow = low < 40.0
                if not grow.any():
                    break
                span[grow] *= 1.3
            c = span[:, None] * t[None, :]
            e = beta_n * ((((b4 * c + b3) * c + bb2[:, None]) * c + bb1[:, None]) * c)
            e -= e.min(axis=1, keepdims=True)
            wgt = wq[None, :] * np.exp(-e)
            vals[lo:hi] = ((c * c + p2[lo:hi, None]) * wgt).sum(axis=1) / wgt.sum(axis=1)
    return float(vals.mean()), float(block_standard_error(vals, blocks)), vals


@pytest.mark.parametrize("model", [harmonic(1.0, 1.0),
                                   mildly_anharmonic(1.0, 1.0, c3=0.1, c4=0.05),
                                   quartic(1.0)],
                         ids=["harmonic", "anharmonic_c3", "quartic"])
def test_chunked_mean_square_position_keeps_the_bits(model):
    # 2.5 chunks of rows; rows of widely spread size make the quadrature
    # span grow a different number of times per row within one chunk
    n = 16
    th = ThermoParams(4.0, n)
    rng = np.random.default_rng(41)
    x = rng.normal(size=(5 * CHUNK_ELEMENTS // (2 * n), n))
    x *= np.exp(rng.normal(size=(len(x), 1)))
    x[0] = -0.0
    mean, se, vals = _unchunked_mean_square_position(x, model, th)
    got = static_average(OBS_Q2, x, model, th)
    assert np.array(got).tobytes() == np.array([mean, se]).tobytes()
    # each row's value does not depend on the rows beside it
    got_vals = np.concatenate([_static_values(OBS_Q2, x[rows], model, th)
                               for rows in row_chunks(len(x), _CENTROID_NODES)])
    assert got_vals.tobytes() == vals.tobytes()


def test_conditional_span_ends_keep_their_rounding():
    # a ring of -0.0 beads in a pure quartic starts its span on the
    # exponent's 40 contour, where (beta_n cubic) c at the span's ends and
    # the nodes' order (cubic c) beta_n round to opposite sides of 40
    model, th = quartic(0.3), ThermoParams(20.0, 32)
    x = np.random.default_rng(42).normal(size=(64, 32))
    x[0] = -0.0
    vals = _unchunked_mean_square_position(x, model, th)[2]
    assert _static_values(OBS_Q2, x, model, th).tobytes() == vals.tobytes()


def test_mean_square_position_holds_chunk_temporaries_only(traced_peak):
    # the quadrature nodes for all 65536 rows at once would be 50 MB per
    # temporary; the traced peak of q2 and of q3 stays within the per-row
    # values plus six chunk temporaries: u and its running power product of
    # a row chunk, and in the quadrature the nodes c, the exponent e and g(c)
    th = ThermoParams(4.0, 16)
    x = np.random.default_rng(42).normal(size=(65536, 16))
    model = mildly_anharmonic(1.0, 1.0, c4=0.05)
    for obs in (OBS_Q2, OBS_Q3):
        peak = traced_peak(static_average, obs, x, model, th)
        assert peak < 65536 * 8 + 6 * 8 * CHUNK_ELEMENTS, obs.label


def test_momentum_variance(harmonic_model):
    th = ThermoParams(1.0, 4)
    cfg = _cfg(100000, seed=12)
    p = draw_momenta(harmonic_model, th, cfg)
    var = p.var()
    assert abs(var - 4.0) <= 3.0 * np.sqrt(2.0 / p.size) * 4.0


def test_centroid_momentum_variance(harmonic_model):
    th = ThermoParams(1.0, 4)
    p = draw_momenta(harmonic_model, th, _cfg(100000, seed=13))
    pc = p.mean(axis=1)
    var = pc.var()
    assert abs(var - 1.0) <= 3.0 * np.sqrt(2.0 / pc.size) * 1.0


def test_bond_midpoint_preserves_centroid(harmonic_model):
    th = ThermoParams(2.0, 8)
    cfg = _cfg(1000, seed=14)
    bead = draw_momenta(harmonic_model, th, cfg)
    mid = bond_midpoints(bead)
    assert np.abs(bead.mean(axis=1) - mid.mean(axis=1)).max() <= 1e-12
    assert not np.allclose(bead, mid)


def test_draw_momenta_deterministic(harmonic_model):
    th = ThermoParams(1.0, 4)
    cfg = _cfg(100, seed=15)
    assert np.array_equal(draw_momenta(harmonic_model, th, cfg),
                          draw_momenta(harmonic_model, th, cfg))


def test_static_average_symmetry(harmonic_model):
    th = ThermoParams(1.0, 8)
    ens = sample_ring_positions(harmonic_model, th, _cfg(20000, seed=16))
    # E[q_c | u] = 0 on the harmonic well, so every ring's q is 0
    assert static_average(OBS_Q, ens, harmonic_model, th) == (0.0, 0.0)
    p = draw_momenta(harmonic_model, th, _cfg(20000, seed=17))
    pmean, pse = static_average(OBS_P, p, harmonic_model, th)
    assert abs(pmean) <= 3.0 * pse


def test_static_average_insufficient():
    with pytest.raises(InsufficientSamples):
        static_average(OBS_Q, np.zeros((8, 4)), harmonic(1.0, 1.0), ThermoParams(1.0, 4))


def test_seed_reproducibility_and_worker_independence(harmonic_model, monkeypatch):
    th = ThermoParams(1.0, 8)
    cfg = _cfg(5000, seed=18)

    def sampled(threads, *q_c):
        monkeypatch.setenv("PIMD_KUBO_THREADS", threads)
        if q_c:
            return sample_ring_positions_constrained(harmonic_model, th, cfg, q_c)
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


def _run_kernel(model, thermo, cfg, q_c=None, node=0):
    """(rows, accepted, attempted) of _run_group over every walker group of cfg, for one node."""
    walkers, rounds, groups = _layout(cfg)
    out = np.full((walkers * rounds, thermo.n_beads), np.nan)
    stack = [(node, q_c, _reference(model, thermo, q_c))]
    counts = [_run_group(model, thermo, cfg, stack, g, size,
                         out.reshape(1, walkers, rounds, thermo.n_beads), None)()
              for g, size in groups]
    return out[: cfg.n_samples], sum(c[0][0] for c in counts), sum(c[1] for c in counts)


@pytest.mark.parametrize("walkers, nodes", [(96, 7), (_GROUP + 64, 5)],
                         ids=["one-group", "two-groups"])
def test_stacked_nodes_equal_one_node_calls(monkeypatch, walkers, nodes):
    # a stack shares every ufunc of a proposal but draws from each node's own
    # streams, so each node's rows and (accepted, attempted) counts equal a
    # one-node kernel call with that node's index, at any stacking
    model, th = mildly_anharmonic(c4=0.05), ThermoParams(4.0, 16)
    grid = np.linspace(-3.0, 3.0, nodes)
    cfg = SamplerConfig(n_samples=2 * walkers, seed=41, burn_in=6, decorrelation_stride=2,
                        n_walkers=walkers)
    singles = [_run_kernel(model, th, cfg, q, node=i) for i, q in enumerate(grid)]
    jobs = []  # (node indices of the stack, accepted per node, attempted per node) of each job

    def recorded(model, thermo, cfg, stack, g_index, g_size, out, value):
        run = _run_group(model, thermo, cfg, stack, g_index, g_size, out, value)

        def counted():
            accepted, attempted = run()
            jobs.append(([node for node, _, _ in stack], accepted, attempted))
            return accepted, attempted
        return counted

    monkeypatch.setattr("pimd_kubo.sampler._run_group", recorded)
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("PIMD_KUBO_THREADS", threads)
        jobs.clear()
        ens = sample_ring_positions_constrained(model, th, cfg, grid)
        assert max(len(stacked) for stacked, _, _ in jobs) > 1  # some nodes were stacked
        for i, (rows, accepted, attempted) in enumerate(singles):
            assert ens[i].tobytes() == rows.tobytes()
            mine = [(acc[stacked.index(i)], att) for stacked, acc, att in jobs if i in stacked]
            assert tuple(map(sum, zip(*mine))) == (accepted, attempted)


def _frozen_metropolis(model, thermo, cfg, q_c=None, node=0):
    """(rows, accepted, attempted) of one node's independence Metropolis
    chains, walker group by walker group, every proposal formed, priced and
    tested, the initial state included.  Frozen, written out from the kernel
    as it was before the harmonic free ensemble skipped the test, as the
    reference for the bits of _run_group."""
    n, pinned = thermo.n_beads, q_c is not None
    walkers, rounds, groups = _layout(cfg)
    c, kappa = _reference(model, thermo, q_c)
    pot = potential_fn(model)
    k = np.arange(2, n + 1) // 2
    sigma = np.sqrt(n / (thermo.beta * (model.mass * free_rp_frequencies(thermo)[k] ** 2 + kappa)))
    scale = sigma * np.sqrt(np.where(2 * k == n, n, 0.5 * n))
    purpose = _streams.POSITIONS_CONSTRAINED if pinned else _streams.POSITIONS
    rows = np.empty((walkers, rounds, n))
    accepted = attempted = 0
    for g, size in groups:
        gen = _streams.stream(cfg.seed, purpose, node << 24 | g)

        def propose():
            z = gen.standard_normal((size, n - pinned))
            spec = np.zeros((size, n // 2 + 1), dtype=complex)
            parts = spec.view(float)
            parts[:, 2:n + 1] = z[:, 1 - pinned:] * scale
            if not pinned:
                parts[:, 0] = z[:, 0] * (n / np.sqrt(thermo.beta * kappa))
            y = np.fft.irfft(spec, n=n)
            x = y + c
            return x, (pot(x) - (0.5 * kappa * y) * y).sum(axis=-1) * (thermo.beta / n)

        x, phi = propose()
        emitted = 0
        for step in range(1, cfg.burn_in + rounds * cfg.decorrelation_stride + 1):
            x_new, phi_new = propose()
            acc = gen.random(size) < np.exp(np.minimum(phi - phi_new, 0.0))
            x = np.where(acc[:, None], x_new, x)
            phi = np.where(acc, phi_new, phi)
            after = step - cfg.burn_in
            if after > 0:
                accepted += int(acc.sum())
                attempted += size
                if after % cfg.decorrelation_stride == 0:
                    rows[g * _GROUP:g * _GROUP + size, emitted] = x
                    emitted += 1
    return rows.reshape(-1, n)[: cfg.n_samples], accepted, attempted


def _counting_potential(monkeypatch):
    """The number of potential evaluations the sampler has made, as a one-item list."""
    calls = [0]

    def counted(model):
        pot = potential_fn(model)

        def evaluate(q, out=None):
            calls[0] += 1
            return pot(q, out=out)
        return evaluate

    monkeypatch.setattr("pimd_kubo.sampler.potential_fn", counted)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 16, 64])
@pytest.mark.parametrize("burn_in", [0, 5, 80])
@pytest.mark.parametrize("stride", [1, 4])
def test_exact_path_keeps_the_metropolis_bits(monkeypatch, harmonic_model, n, burn_in, stride):
    # on the harmonic free ensemble every proposal is accepted, so the kernel
    # forms only the proposals it emits, prices none, and still draws every
    # proposal's normals and uniforms: rows and counts equal the frozen
    # Metropolis chain's; 37 walkers make 3 rounds of 100 samples
    th = ThermoParams(8.0, n)
    cfg = SamplerConfig(n_samples=100, seed=50 + n, burn_in=burn_in,
                        decorrelation_stride=stride, n_walkers=37)
    want, accepted, attempted = _frozen_metropolis(harmonic_model, th, cfg)
    calls = _counting_potential(monkeypatch)
    rows, got_accepted, got_attempted = _run_kernel(harmonic_model, th, cfg)
    assert rows.tobytes() == want.tobytes()
    assert (got_accepted, got_attempted) == (accepted, attempted) == (attempted, 111 * stride)
    assert calls[0] == 0


def test_exact_path_is_taken_only_by_the_harmonic_free_ensemble(monkeypatch):
    # two walker groups (2048 + 37) of 3 rounds, n_samples no multiple of the
    # walkers, through _sample at 1 and 2 threads: the harmonic free call takes
    # the exact path; an anharmonic free call and a pinned harmonic grid price
    # every proposal (one potential call each per proposal and group) and keep
    # their Metropolis bits
    th = ThermoParams(4.0, 3)
    walkers = _GROUP + 37
    cfg = SamplerConfig(n_samples=3 * walkers - 11, seed=52, burn_in=5, decorrelation_stride=2,
                        n_walkers=walkers)
    proposals = 2 * (1 + cfg.burn_in + 3 * cfg.decorrelation_stride)
    harmonic_well, anharmonic = harmonic(1.0, 1.0), mildly_anharmonic(1.0, 1.0, c3=0.1, c4=0.05)
    grid = [-0.7, 0.0, 1.3]
    free = {model: _frozen_metropolis(model, th, cfg) for model in (harmonic_well, anharmonic)}
    assert free[harmonic_well][1] == free[harmonic_well][2]
    assert free[anharmonic][1] < free[anharmonic][2]
    pinned = [_frozen_metropolis(harmonic_well, th, cfg, q, node=i)[0] for i, q in enumerate(grid)]
    calls = _counting_potential(monkeypatch)
    for threads in ("1", "2"):
        monkeypatch.setenv("PIMD_KUBO_THREADS", threads)
        for model, calls_per_call in ((harmonic_well, 0), (anharmonic, proposals)):
            calls[0] = 0
            assert sample_ring_positions(model, th, cfg).tobytes() == free[model][0].tobytes()
            assert calls[0] == calls_per_call
        calls[0] = 0
        ens = sample_ring_positions_constrained(harmonic_well, th, cfg, grid)
        assert ens.tobytes() == np.stack(pinned).tobytes()
        assert calls[0] >= proposals


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
    bead_force = force_fn(model)

    def force(x):
        return bead_force(x, np.empty_like(x)).mean(axis=1)

    for q_c in (0.4, -1.3):
        vals = force(sample_ring_positions_constrained(model, th, cfg, [q_c])[0])
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


def test_free_sampler_holds_one_sweep_of_draws(harmonic_model, monkeypatch, traced_peak):
    # one walker group of 2048 at N = 8: the normals and uniforms come one
    # proposal at a time, so the sampler holds far less than 64 proposals'
    # worth of draws (the bound counts N + 1 of them per walker and proposal)
    th = ThermoParams(1.0, 8)
    cfg = SamplerConfig(n_samples=4 * _GROUP, seed=31, burn_in=64, decorrelation_stride=4,
                        n_walkers=_GROUP)
    output = cfg.n_samples * th.n_beads * 8
    block = 64 * (th.n_beads + 1) * _GROUP * 8
    monkeypatch.setenv("PIMD_KUBO_THREADS", "1")
    peak = traced_peak(sample_ring_positions, harmonic_model, th, cfg)
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
            ens = sample_ring_positions_constrained(model, th, cfg, [0.4])[0]
        else:
            ens = sample_ring_positions(model, th, cfg)
        return ens.reshape(walkers, rounds, th.n_beads)  # walker-major rows

    short, long = rows(10), rows(25)
    for w in range(walkers):
        assert short[w].tobytes() == long[w, :10].tobytes()


def test_error_bars_are_honest_at_the_default_layout():
    # 16 one-node calls at the cmd-compare tail node q_c = 4 (c4 = 0.05,
    # beta = 4, N = 16, 2048 samples, the default walkers, burn-in and
    # stride).  If the 16-block SE covers burn-in and autocorrelation,
    # 15 var(node means) / mean(SE^2) is chi^2 with 15 degrees of freedom;
    # the band is its 0.5 % and 99.5 % quantiles, fixed from the
    # distribution, not from any run.
    model = mildly_anharmonic(1.0, 1.0, c4=0.05)
    th = ThermoParams(4.0, 16)
    force = force_fn(model)
    means, se2 = [], []
    for seed in range(1, 17):
        ens = sample_ring_positions_constrained(model, th, SamplerConfig(2048, seed), [4.0])[0]
        vals = force(ens, np.empty_like(ens)).mean(axis=1)
        means.append(vals.mean())
        se2.append(block_standard_error(vals) ** 2)
    ratio = 15.0 * np.var(means, ddof=1) / np.mean(se2)
    assert stats.chi2.ppf(0.005, 15) <= ratio <= stats.chi2.ppf(0.995, 15)
