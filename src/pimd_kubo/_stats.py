"""Blocked error bars shared by samplers and correlator estimators."""

import numpy as np

from .errors import InsufficientSamples


def block_standard_error(samples, n_blocks=16):
    """Standard error of the mean from n_blocks contiguous block means.

    samples may be (n,) or (n, T); the error is computed per column.
    Blocking absorbs residual autocorrelation along the sample axis as long
    as each block is much longer than the correlation time.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    if n < 2 * n_blocks:
        raise InsufficientSamples(f"need at least {2 * n_blocks} samples for {n_blocks} blocks")
    edges = np.linspace(0, n, n_blocks + 1, dtype=int)
    means = np.stack([samples[a:b].mean(axis=0) for a, b in zip(edges[:-1], edges[1:])])
    return means.std(axis=0, ddof=1) / np.sqrt(n_blocks)
