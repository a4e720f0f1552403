"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS/FAIL line with the
measured numbers (run with -s to stream them).  Tolerances are fixed here
and are not tuned at runtime.  Every physics point, seed, sample size and
threshold is the one its criterion specifies, except criterion 2's
statistic (below).

Two criteria assert what the method promises in place of a clause that
cannot hold:

* criterion 4 (spurious spectral features, c4=0.05, beta=8, N=32): the
  clause asked for a C_qq line >= 5% of the main line in a band
  0.85-1.15 w_k around a free ring-polymer frequency.  The paper gives no
  magnitude for a linear observable, and for q the internal modes barely
  reach the centroid: the strongest band (k=2) is 0.17% of the main line
  (oracle 0.012%), a few standard errors at most at 8192 trajectories, and
  even c4=0.5 keeps every band off the main line below 3%.  The harmonic
  control (c4=0) matches the oracle.  The artifact is large where the internal
  modes enter the observable directly: on the same trajectories the
  tail-detrended q^2 spectrum has RPMD lines of 14-100% in bands k=4..8
  where the oracle is <= 7.7e-4.  The criterion asserts both halves with
  the spec's band and its 5% and 1% thresholds: (a) some q^2 band has
  RPMD >= 5% and oracle <= 1%; (b) no C_qq band reaches 5%.
* criterion 7 (discrete Kubo transform, beta=2): the N-slice trapezoid in
  lambda has the signed error (beta/12N^2) <[[A,H],B]> + O(N^-4) at t=0.
  The 8/16 ratio clause (kept; it measures 3.99) pins that 1/N^2 rule,
  under which the N=256 error is 6.68e-6 for q^2 and 2.54e-6 for q, so an
  absolute 1e-6 can never be met.  The criterion asserts that the signed
  N=256 error minus the closed-form leading term is <= 1e-6 for q^2 and q
  (measured 2.7e-11 and 2.6e-12), which a leading term wrong by more than
  15% fails.

One criterion tests its claim with another statistic than its
specification:

* criterion 2 (RPMD harmonic exactness for linear B, seed 2100): the clause
  asked for max |C - cos|/SE <= 3 over the 1001 times with a 16-block SE.
  A maximum over correlated times has no known size: it exceeds 3 for 2 to
  5 % of seeds even when every sample is an exact independent draw, so a
  change of stream layout could flip it by chance (seed 2100 reads 3.70
  with the Gaussian-reference sampler, and the criterion ran seed 2101).
  In a harmonic well the centroid follows velocity Verlet exactly, so the
  estimate is a cos(W t) + b sin(W t) with cos(W dt) = 1 - (w dt)^2 / 2,
  where a is the mean of q_c^2 and b that of dt q_c p_c / (m sin W dt)
  over the trajectories.  The criterion asserts (i) that the series equals
  this fit within 1e-10 (measured 4.2e-13): the dynamics are exact; and
  (ii) that (a, b) matches (1 / (beta m w^2), 0) = (1, 0): chi^2 with 2
  degrees of freedom on the covariance of 100 block means, each of 10
  whole walker chains, below the Hotelling threshold 14.99 for a
  covariance estimated from 100 blocks at false-alarm rate 1e-3.  Seed 2100
  reads chi^2 = 8.62 (p = 0.017).  Points, sizes and dt are unchanged.
  The size holds: over seeds 2100-2499 the p-values of (a, b) are uniform
  (Kolmogorov-Smirnov p = 0.69; 4 of 400 below 0.01, 2 below 1e-3).
  Checked on broken copies of the package at seeds 2100 and 2101: sampled
  positions scaled to bias C(0) by -5 SE give chi^2 = 79.8 and 25.2 (the
  old statistic 11.3 and 5.8); a +5 SE bias gives 5.2 and 21.7 (old 2.9
  and 5.4); a centroid force 1 % too strong leaves the fit off by 3.8e-2
  and 4.0e-2 (old 5.2 and 5.5).  So the new statistic fails wherever the
  old one did, and not on the unbroken seed 2100.
"""

import json
import math

import numpy as np
import pytest
from scipy import stats

from pimd_kubo import (GridSpec, IntegratorConfig, OBS_Q, OBS_Q2, SamplerConfig, ThermoParams,
                       band_peaks, build_centroid_force_table, cmd_kubo_correlator,
                       diagonalize, discrete_kubo_correlator, exact_kubo_correlator,
                       harmonic, harmonic_caq_reference, harmonic_swarm_trace,
                       mildly_anharmonic, rpmd_initial_conditions, rpmd_kubo_correlator,
                       sample_ring_positions, static_average, thermal_average)
from pimd_kubo.dynamics import propagate_batch
from pimd_kubo.model import force_fn
from pimd_kubo.oracle import kubo_weights, position_matrix
from pimd_kubo.ringpoly import bond_midpoints
from pimd_kubo.sampler import draw_momenta

HARMONIC = harmonic(1.0, 1.0)


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ----------------------------------------------------------------------
# 1. Trotter convergence of <q^2>: error(N=8)/error(N=16) in [3.2, 4.8]

def test_criterion_01_trotter_convergence(harmonic_eig):
    exact = thermal_average(harmonic_eig, lambda q: q * q, 1.0)

    def measure(n_beads, n_total, shards, seed0):
        th = ThermoParams(1.0, n_beads)
        per = n_total // shards
        means, errs = [], []
        for s in range(shards):
            cfg = SamplerConfig(n_samples=per, seed=seed0 + s, burn_in=256,
                                decorrelation_stride=4, n_walkers=8192)
            ens = sample_ring_positions(HARMONIC, th, cfg)
            mu, se = static_average(OBS_Q2, ens, HARMONIC, th)
            means.append(mu)
            errs.append(se)
        return float(np.mean(means)), float(np.sqrt(np.sum(np.square(errs))) / shards)

    m8, se8 = measure(8, 1_000_000, 1, 1100)
    m16, se16 = measure(16, 16_000_000, 8, 1200)
    e8, e16 = abs(m8 - exact), abs(m16 - exact)
    ratio = e8 / e16
    ok = (se8 < 0.1 * e8) and (se16 < 0.1 * e16) and (3.2 <= ratio <= 4.8)
    assert _report(1, ok,
                   f"Trotter convergence: exact={exact:.6f} err8={e8:.3e}(se/err={se8 / e8:.2f}) "
                   f"err16={e16:.3e}(se/err={se16 / e16:.2f}) ratio={ratio:.2f} in [3.2,4.8]")


# ----------------------------------------------------------------------
# 2. RPMD harmonic exactness for linear B

def test_criterion_02_rpmd_harmonic_linear_b():
    th = ThermoParams(1.0, 32)
    scfg = SamplerConfig(n_samples=10_000, seed=2100, burn_in=256, decorrelation_stride=4)
    icfg = IntegratorConfig(dt=0.01, n_steps=1000)
    x0, p0 = rpmd_initial_conditions(HARMONIC, th, scfg, icfg)
    series = rpmd_kubo_correlator(HARMONIC, th, scfg, icfg, OBS_Q, OBS_Q, initial=(x0, p0))
    # the centroid follows velocity Verlet, q_c(n dt) = q_c cos(n W dt)
    # + dt p_c / (m sin W dt) sin(n W dt) with cos W dt = 1 - (w dt)^2 / 2, so
    # C(t) = a cos W t + b sin W t with a, b the means of these rows (m = w = 1)
    w_dt = math.acos(1.0 - 0.5 * icfg.dt**2)
    qc, pc = x0.mean(axis=1), p0.mean(axis=1)
    rows = np.stack([qc * qc, icfg.dt / math.sin(w_dt) * qc * pc], axis=1)
    ab = rows.mean(axis=0)
    steps = np.arange(icfg.n_steps + 1)
    fit_err = np.abs(series.values - ab[0] * np.cos(steps * w_dt)
                     - ab[1] * np.sin(steps * w_dt)).max()
    # (a, b) against the exact (1 / (beta m w^2), 0): chi^2 with 2 degrees of
    # freedom on the covariance of 100 block means, each of 10 whole walker
    # chains; the threshold is Hotelling's, for a covariance estimated from
    # the blocks, at false-alarm rate 1e-3
    blocks = 100
    d = ab - (1.0, 0.0)
    cov = np.cov(rows.reshape(blocks, -1, 2).mean(axis=1), rowvar=False) / blocks
    chi2 = d @ np.linalg.solve(cov, d)
    limit = 2.0 * (blocks - 1) / (blocks - 2) * stats.f.isf(1e-3, 2, blocks - 2)
    ok = fit_err <= 1e-10 and chi2 <= limit
    assert _report(2, ok,
                   f"RPMD linear-B exactness: |C - (a cos + b sin)| = {fit_err:.1e} <= 1e-10; "
                   f"chi2 of (a - 1, b) = {chi2:.2f} <= {limit:.2f} "
                   f"(a={ab[0]:.4f}+-{math.sqrt(cov[0, 0]):.4f}, b={ab[1]:.4f})")


# ----------------------------------------------------------------------
# 3. RPMD failure for nonlinear B at beta hbar w = 8

def test_criterion_03_rpmd_nonlinear_b_failure():
    beta = 8.0
    th = ThermoParams(beta, 64)
    eig = diagonalize(HARMONIC, GridSpec(-12.0, 12.0, 640), 24)
    scfg = SamplerConfig(n_samples=8192, seed=3100, burn_in=512, decorrelation_stride=8,
                         n_walkers=8192)
    icfg = IntegratorConfig(dt=0.01, n_steps=600)
    series = rpmd_kubo_correlator(HARMONIC, th, scfg, icfg, OBS_Q2, OBS_Q2)
    oracle = exact_kubo_correlator(eig, OBS_Q2, OBS_Q2, beta, series.times)
    dev = np.abs(series.values - oracle.values)
    sig = dev / np.maximum(series.std_errors, 1e-300)
    equal_time_ok = sig[0] <= 3.0
    separation_ok = sig.max() >= 5.0
    ok = equal_time_ok and separation_ok
    assert _report(3, ok,
                   f"nonlinear-B failure: t=0 dev {sig[0]:.2f} sigma <= 3; "
                   f"max dev {dev.max():.4f} = {sig.max():.1f} sigma >= 5")


# ----------------------------------------------------------------------
# 4. spurious spectral features from the internal ring-polymer modes

def _spurious(bands):
    """The k of the bands with an RPMD line >= 5% where the oracle is <= 1%."""
    return [k for k, _, rel, rel_ref, _ in bands if rel >= 0.05 and rel_ref <= 0.01]


def test_criterion_04_spurious_spectral_features():
    beta = 8.0
    model = mildly_anharmonic(1.0, 1.0, c3=0.0, c4=0.05)
    th = ThermoParams(beta, 32)
    eig = diagonalize(model, GridSpec(-12.0, 12.0, 640), 24)

    dt, n_steps = 0.05, 4000
    icfg = IntegratorConfig(dt=dt, n_steps=n_steps)
    scfg = SamplerConfig(n_samples=8192, seed=4100, burn_in=512, decorrelation_stride=8,
                         n_walkers=8192)
    # the streams are counter-based, so both calls run the same trajectories
    peaks = {}
    for obs in (OBS_Q, OBS_Q2):
        series = rpmd_kubo_correlator(model, th, scfg, icfg, obs, obs)
        oracle = exact_kubo_correlator(eig, obs, obs, beta, series.times)
        # strongest Hann-spectrum line in each band [0.85, 1.15] w_k, k = 1..15,
        # relative to the main line of its own spectrum; q^2 loses its
        # <A><B> plateau (the last quarter's mean) first
        _, peaks[obs.label] = band_peaks(series, oracle, th, range(1, 16),
                                         detrend=obs is OBS_Q2)

    # (a) q^2 sees the internal modes directly: some band carries an RPMD
    # line >= 5% of the main line where the exact spectrum is <= 1%
    artifact = _spurious(peaks["q2"])
    # (b) the internal modes barely reach the centroid position: no C_qq
    # band reaches 5%
    strongest = {label: max(p, key=lambda band: band[2]) for label, p in peaks.items()}
    bound_ok = strongest["q"][2] < 0.05
    ok = bool(artifact) and bound_ok
    k2, _, r2, o2, _ = strongest["q2"]
    k1, _, r1, o1, _ = strongest["q"]
    assert _report(4, ok,
                   f"internal-mode artifact: q^2 bands with RPMD >= 5% and oracle <= 1%: "
                   f"k={artifact} (strongest k={k2}: RPMD {100 * r2:.2f}%, oracle "
                   f"{100 * o2:.4f}%); C_qq strongest k={k1}: RPMD {100 * r1:.2f}% < 5%, "
                   f"oracle {100 * o1:.4f}%")


# ----------------------------------------------------------------------
# 5. CMD harmonic exactness: force table and correlator

def test_criterion_05_cmd_harmonic():
    th = ThermoParams(1.0, 32)
    node_cfg = SamplerConfig(n_samples=512, seed=5100, burn_in=96, decorrelation_stride=2)
    # 0.25-spaced grid whose inner 33 nodes are exactly [-4, 4]; the wider
    # span keeps thermal trajectories inside the tabulated range
    grid = np.linspace(-6.5, 6.5, 53)
    table = build_centroid_force_table(HARMONIC, th, node_cfg, grid)
    inner = slice(10, 43)
    force_dev = np.abs(table.force[inner] + grid[inner])
    # 1e-13 absorbs float roundoff: the harmonic constrained force estimator
    # has zero physical variance, so both sides sit at machine scale
    force_ok = np.all(force_dev <= 3.0 * table.std_errors[inner] + 1e-13)

    scfg = SamplerConfig(n_samples=10_000, seed=5200, burn_in=256, decorrelation_stride=4)
    icfg = IntegratorConfig(dt=0.01, n_steps=1000)
    series = cmd_kubo_correlator(HARMONIC, th, table, scfg, icfg, OBS_Q, OBS_Q)
    dev = np.abs(series.values - np.cos(series.times))
    corr_ok = np.all(dev <= 3.0 * series.std_errors + 1e-3)
    ok = force_ok and corr_ok
    assert _report(5, ok,
                   f"CMD harmonic: max|F_c + w^2 q_c| = {force_dev.max():.2e} on [-4,4]x33; "
                   f"max (|C - cos| - 3 SE) = {(dev - 3 * series.std_errors).max():.2e} <= 1e-3")


# ----------------------------------------------------------------------
# 6. closed-form reference vs RPMD on matched seeds; momentum conventions

def test_criterion_06_caq_cross_validation():
    th = ThermoParams(1.0, 32)
    scfg = SamplerConfig(n_samples=8192, seed=6100, burn_in=256, decorrelation_stride=4)
    icfg = IntegratorConfig(dt=0.02, n_steps=500)
    rpmd = rpmd_kubo_correlator(HARMONIC, th, scfg, icfg, OBS_Q, OBS_Q)
    x0 = sample_ring_positions(HARMONIC, th, scfg)
    bead = draw_momenta(HARMONIC, th, scfg)
    ref = harmonic_caq_reference(HARMONIC, th, OBS_Q, rpmd.times, x0, bead)
    comb = np.maximum(np.hypot(rpmd.std_errors, ref.std_errors), 1e-300)
    dev = np.abs(rpmd.values - ref.values) / comb
    agree_ok = dev.max() <= 3.0

    # centroid-trajectory statistics must agree across momentum conventions
    marks = [int(round(t / icfg.dt)) for t in (1.0, 5.0, 10.0)]
    traj = {}
    for conv, p0 in (("bead", bead), ("bond_midpoint", bond_midpoints(bead))):
        rec, _, _ = propagate_batch(x0.copy(), p0, force_fn(HARMONIC), HARMONIC.mass, th,
                                    icfg.dt, icfg.n_steps, [OBS_Q])
        traj[conv] = rec[0]
    pvals = [stats.ks_2samp(traj["bead"][i], traj["bond_midpoint"][i]).pvalue
             for i in marks]
    ks_ok = min(pvals) > 0.01
    ok = agree_ok and ks_ok
    assert _report(6, ok,
                   f"closed-form vs RPMD matched seeds: max dev {dev.max():.2f} sigma <= 3; "
                   f"convention KS p-values {['%.3f' % p for p in pvals]} all > 0.01")


# ----------------------------------------------------------------------
# 7. discretized Kubo transform vs exact lambda integral

def test_criterion_07_discrete_kubo(harmonic_eig):
    # The N-slice trapezoid in lambda has the signed error
    #   D_N - C = (beta / 12 N^2) <[[A, H], B]> + O(N^-4)   at t = 0,
    # so the 8/16 ratio clause fixes a 1/N^2 rule and N=256 cannot reach an
    # absolute 1e-6 (the leading term is 6.68e-6 for q^2, 2.54e-6 for q).
    # What is asserted instead: after the closed-form leading term is taken
    # off, the N=256 residual is <= 1e-6, for q^2 and for q.
    # Harmonic closed forms: [[q, H], q] = hbar^2 / m and
    # [[q^2, H], q^2] = 4 hbar^2 q^2 / m, <q^2> = (hbar / 2 m w) coth(beta hbar w / 2).
    beta = 2.0
    m, w, hbar = HARMONIC.mass, HARMONIC.omega, harmonic_eig.hbar
    q2_mean = hbar / (2.0 * m * w) / math.tanh(0.5 * beta * hbar * w)
    double_commutator = {"q": hbar**2 / m, "q2": 4.0 * hbar**2 * q2_mean / m}
    t0 = np.array([0.0])

    def signed_err(obs, n):
        exact = exact_kubo_correlator(harmonic_eig, obs, obs, beta, t0).values[0]
        return discrete_kubo_correlator(harmonic_eig, obs, obs, beta, n, t0).values[0] - exact

    errs = {n: abs(signed_err(OBS_Q2, n)) for n in (8, 16)}
    ratio = errs[8] / errs[16]
    ratio_ok = 3.5 <= ratio <= 4.5
    resid = {}
    for obs in (OBS_Q2, OBS_Q):
        leading = beta / (12.0 * 256**2) * double_commutator[obs.label]
        resid[obs.label] = abs(signed_err(obs, 256) - leading)
    resid_ok = max(resid.values()) <= 1e-6
    ok = ratio_ok and resid_ok
    assert _report(7, ok,
                   f"discrete Kubo transform: q^2 err ratio 8/16 = {ratio:.2f} in [3.5,4.5]; "
                   f"N=256 |err - (beta/12N^2)<[[A,H],B]>| = {resid['q2']:.2e} (q^2), "
                   f"{resid['q']:.2e} (q) <= 1e-6")


# ----------------------------------------------------------------------
# 8. oracle self-consistency

def test_criterion_08_oracle_self_consistency(harmonic_eig_small, harmonic_eig):
    e_err = np.abs(harmonic_eig_small.energies - (np.arange(10) + 0.5)).max()
    energies_ok = e_err <= 1e-8

    # imaginary residue of the spectral sum, recomputed directly
    beta = 1.0
    es = harmonic_eig.energies - harmonic_eig.energies[0]
    z = np.exp(-beta * es).sum()
    a = position_matrix(harmonic_eig, lambda q: q)
    g = kubo_weights(harmonic_eig.energies, beta) * a * a.T / z
    de = es[None, :] - es[:, None]
    times = np.linspace(0.0, 10.0, 101)
    vals = np.einsum("nm,tnm->t", g, np.exp(1j * times[:, None, None] * de))
    residue = np.abs(vals.imag).max()
    residue_ok = residue < 1e-10

    nodes, wts = np.polynomial.legendre.leggauss(64)
    lam = 0.5 * beta * (nodes + 1.0)
    ref = np.zeros((es.size, es.size))
    for l, w in zip(lam, 0.5 * wts):
        ref += w * np.outer(np.exp(-l * es), np.exp(-(beta - l) * es))
    w_err = np.abs(kubo_weights(harmonic_eig.energies, beta) - ref).max()
    weights_ok = w_err <= 1e-8
    ok = energies_ok and residue_ok and weights_ok
    assert _report(8, ok,
                   f"oracle self-consistency: |E_n - (n+1/2)| {e_err:.1e} <= 1e-8; "
                   f"imag residue {residue:.1e} < 1e-10; weights vs quadrature {w_err:.1e} <= 1e-8")


# ----------------------------------------------------------------------
# 9. swarm-trace delta limit

def test_criterion_09_swarm_trace_limits():
    th = ThermoParams(8.0, 8)
    rng = np.random.default_rng(9100)
    worst = 0.0
    for _ in range(4):
        x = 0.5 * rng.standard_normal(8)
        p = 0.5 * rng.standard_normal(8)
        for f in (lambda q: q, lambda q: q * q, lambda q: q**4):
            val = harmonic_swarm_trace(x, p, 1e-6, f, HARMONIC, th)
            worst = max(worst, abs(val - np.mean(f(x))))
    ok = worst <= 1e-6
    assert _report(9, ok, f"swarm trace at t=1e-6 vs B0(x): max |dev| = {worst:.2e} <= 1e-6")


# ----------------------------------------------------------------------
# 10. determinism and parallel equivalence through the batch runner

_RUNNER_CONFIG = """\
[model]
kind = harmonic

[thermo]
beta = 1.0
n_beads = 16

[sampler]
n_samples = 768
burn_in = 96
decorrelation_stride = 2

[integrator]
dt = 0.02
n_steps = 200

[oracle]
n_retained = 32

[run]
command = compare
seed = 77
output_dir = {out}
a = q
b = q
"""


def test_criterion_10_determinism(tmp_path, monkeypatch):
    from pimd_kubo.runner import parse_config, run

    blobs = {}
    for w in (1, 4, 8):
        out = tmp_path / f"w{w}"
        monkeypatch.setenv("PIMD_KUBO_THREADS", str(w))
        cfg = parse_config(_RUNNER_CONFIG.format(out=out))
        status = run(cfg)
        assert status == 0
        blobs[w] = ((out / "results.csv").read_bytes(), (out / "diff.csv").read_bytes())
    ok = blobs[1] == blobs[4] == blobs[8]
    assert _report(10, ok, "bit-identical results.csv and diff.csv at 1, 4 and 8 workers")


# ----------------------------------------------------------------------
# companion demonstration (not a numbered criterion): the ring-polymer
# spectral artifact that criterion 4 targets is vivid for a nonlinear
# observable, where internal modes carry most of the signal

def test_nonlinear_observable_spectrum_artifact():
    beta = 8.0
    model = mildly_anharmonic(1.0, 1.0, c3=0.0, c4=0.05)
    th = ThermoParams(beta, 32)
    eig = diagonalize(model, GridSpec(-12.0, 12.0, 640), 24)

    icfg = IntegratorConfig(dt=0.05, n_steps=3000)
    scfg = SamplerConfig(n_samples=4096, seed=4400, burn_in=512, decorrelation_stride=8,
                         n_walkers=4096)
    series = rpmd_kubo_correlator(model, th, scfg, icfg, OBS_Q2, OBS_Q2)
    oracle = exact_kubo_correlator(eig, OBS_Q2, OBS_Q2, beta, series.times)

    hits = _spurious(band_peaks(series, oracle, th, range(1, 16), detrend=True)[1])
    print(f"\nnonlinear-observable artifact bands (k): {hits}")
    assert hits, "expected at least one strong spurious band for the q^2 observable"
