"""Walker-chain batch means for the sampler's statistical efficiency.

`sample_ring_positions` returns rows in walker-major order: walker w emits
rows w*L .. w*L+L-1, L being the number of rounds (documented in
`pimd_kubo/sampler.py`).  Each walker chain is then one batch, and the
batch-means estimate of the integrated autocorrelation time is

    tau = L * var(chain means) / var(all rows),

in units of emitted rows.  Between-walker spread left by burn-in counts in
tau too, so a sampler that mixes worse shows a larger tau.
"""

import numpy as np


def chain_tau(values, chain_length):
    """Integrated autocorrelation time of walker-major `values`, in rows."""
    v = np.asarray(values, dtype=float)
    n_chains = v.size // chain_length if chain_length >= 1 else 0
    if n_chains < 2:
        raise ValueError("need at least two whole walker chains")
    v = v[: n_chains * chain_length]
    means = v.reshape(n_chains, chain_length).mean(axis=1)
    return chain_length * means.var(ddof=1) / v.var(ddof=1)

