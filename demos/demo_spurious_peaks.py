"""Spurious ring-polymer resonances in RPMD spectra.

In an anharmonic well the internal ring-polymer modes couple to the
physical motion and leave fingerprints in RPMD spectra near the free
ring-polymer frequencies w_k = 2 (N / beta hbar) sin(k pi / N).  For the
centroid position autocorrelation the contamination is faint (fractions of
a percent of the main line); for a nonlinear observable such as q^2 the
artifact dominates the spectrum, with the strongest RPMD line sitting at an
internal-mode frequency the exact spectrum does not have at all.
"""

from pimd_kubo import (GridSpec, IntegratorConfig, OBS_Q, OBS_Q2, SamplerConfig, ThermoParams,
                       band_peaks, diagonalize, exact_kubo_correlator, mildly_anharmonic,
                       rpmd_kubo_correlator)


def band_table(label, bands):
    print(f"\n{label}: relative band intensities near free-RP frequencies")
    print(f"{'k':>3} {'w_k':>7} {'RPMD':>9} {'exact':>9}")
    for k, w_k, rr, oo, spurious in bands:
        flag = "  <-- spurious" if spurious else ""
        print(f"{k:>3} {w_k:>7.3f} {rr:>9.4f} {oo:>9.5f}{flag}")


def main():
    beta = 8.0
    model = mildly_anharmonic(1.0, 1.0, c3=0.0, c4=0.05)
    thermo = ThermoParams(beta, 32)
    eig = diagonalize(model, GridSpec(-12.0, 12.0, 640), 24)

    icfg = IntegratorConfig(dt=0.05, n_steps=3000)
    scfg = SamplerConfig(n_samples=2048, seed=33, burn_in=512, decorrelation_stride=8,
                         n_walkers=2048)

    for obs, label in ((OBS_Q, "A = B = q (centroid position)"),
                       (OBS_Q2, "A = B = q^2 (nonlinear)")):
        series = rpmd_kubo_correlator(model, thermo, scfg, icfg, obs, obs)
        oracle = exact_kubo_correlator(eig, obs, obs, beta, series.times)
        (w_r, w_o), bands = band_peaks(series, oracle, thermo, range(1, 9), detrend=True)
        print(f"\n{label}")
        print(f"  main RPMD line at w = {w_r:.3f}, exact main line at w = {w_o:.3f}")
        band_table(label, bands)


if __name__ == "__main__":
    main()
