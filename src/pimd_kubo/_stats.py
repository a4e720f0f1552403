"""Blocked error bars shared by samplers and correlator estimators."""

import numpy as np

from .errors import InsufficientSamples


def _block_edges(n, n_blocks):
    if n < 2 * n_blocks:
        raise InsufficientSamples(f"need at least {2 * n_blocks} samples for {n_blocks} blocks")
    return np.linspace(0, n, n_blocks + 1, dtype=int)


def _error_of_block_means(means):
    return means.std(axis=0, ddof=1) / np.sqrt(len(means))


def block_standard_error(samples, n_blocks=16):
    """Standard error of the mean from n_blocks contiguous block means.

    samples may be (n,) or (n, T); the error is computed per column.
    Blocking absorbs residual autocorrelation along the sample axis as long
    as each block is much longer than the correlation time.
    """
    samples = np.asarray(samples, dtype=float)
    edges = _block_edges(samples.shape[0], n_blocks)
    return _error_of_block_means(
        np.stack([samples[a:b].mean(axis=0) for a, b in zip(edges[:-1], edges[1:])]))


class RowAccumulator:
    """Mean and block standard error of n_rows rows that arrive in order.

    Only running sums are kept: one for all rows and one per block of
    block_standard_error.  Each sum starts at zero and adds its rows one by
    one, as numpy reduces a C-ordered (n_rows, T) array over axis 0, so
    result() equals samples.mean(axis=0) and block_standard_error(samples)
    of that array bit for bit when T >= 2 (a single column numpy sums
    pairwise).
    """

    def __init__(self, n_rows, n_blocks=16):
        self._edges = _block_edges(n_rows, n_blocks)
        self._total = None
        self._sums = None
        self._count = 0

    def add(self, rows):
        """Add the next rows, an (m, T) array, in row order."""
        if self._count + len(rows) > self._edges[-1]:
            raise ValueError(f"more than {self._edges[-1]} rows added")
        if self._total is None:
            self._total = np.zeros(rows.shape[1])
            self._sums = np.zeros((len(self._edges) - 1, rows.shape[1]))
        blocks = np.searchsorted(self._edges, self._count + np.arange(len(rows)), "right") - 1
        for row, block in zip(rows, blocks):
            self._total += row
            self._sums[block] += row
        self._count += len(rows)

    def result(self):
        """(mean, standard error) per column, once every row has been added."""
        n = self._edges[-1]
        if self._count != n:
            raise ValueError(f"{self._count} of {n} rows added")
        means = self._sums / np.diff(self._edges)[:, None]
        return self._total / n, _error_of_block_means(means)
