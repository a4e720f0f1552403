"""Imaginary-time discretization error of a static average.

Samples the ring-polymer position distribution of a harmonic well at
several bead counts and compares <q^2> against the exact thermal value from
grid diagonalization.  The error falls off as 1/N^2; doubling the bead
count divides it by about four.

The static estimator integrates the centroid coordinate out of every
sampled configuration (analytically on the harmonic well), which removes
the classical part of the variance and makes the tiny discretization
errors resolvable with modest sample counts.
"""

import numpy as np

from pimd_kubo import (GridSpec, OBS_Q2, SamplerConfig, ThermoParams, diagonalize, harmonic,
                       sample_ring_positions, static_average, thermal_average)


def main():
    model = harmonic(1.0, 1.0)
    beta = 1.0

    eig = diagonalize(model, GridSpec(-12.0, 12.0, 640), 32)
    exact = thermal_average(eig, lambda q: q * q, beta)
    print(f"exact <q^2> at beta={beta}: {exact:.7f}")
    print(f"{'N':>4} {'<q^2>_N':>12} {'std err':>10} {'error':>12}")

    errors = {}
    for n_beads in (2, 4, 8, 16):
        thermo = ThermoParams(beta, n_beads)
        cfg = SamplerConfig(n_samples=400_000, seed=100 + n_beads, burn_in=256,
                            decorrelation_stride=4, n_walkers=8192)
        ens = sample_ring_positions(model, thermo, cfg)
        mean, se = static_average(OBS_Q2, ens, model, thermo)
        errors[n_beads] = abs(mean - exact)
        print(f"{n_beads:>4} {mean:>12.7f} {se:>10.1e} {mean - exact:>12.2e}")

    print("\nerror ratios under bead doubling (1/N^2 scaling gives ~4):")
    for a, b in ((2, 4), (4, 8), (8, 16)):
        print(f"  N={a:>2} -> N={b:>2}: {errors[a] / errors[b]:.2f}")


if __name__ == "__main__":
    main()
