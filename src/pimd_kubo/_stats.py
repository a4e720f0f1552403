"""Blocked error bars and the row-chunk budget shared by samplers and estimators."""

import numpy as np

from .errors import InsufficientSamples

N_BLOCKS = 16  # error blocks of every blocked mean unless a run sets [run] blocks
# Most elements of one temporary in a per-row reduction of an ensemble: 2**18
# float64s, 2 MB.  That is small beside an ensemble worth chunking (131072
# rings of 64 beads are 64 MB) and near the size of a core's cache, yet a
# chunk still holds over a thousand rows of up to 201 elements, so the numpy
# dispatch per chunk stays negligible.  It is a constant and not a setting:
# every reduction it chunks is row-wise, so it changes no bit of any result,
# only the memory a run holds.
CHUNK_ELEMENTS = 2**18


def row_chunks(n_rows, row_size):
    """Slices covering n_rows rows in order, each of at most CHUNK_ELEMENTS elements.

    row_size is the element count of one row (an empty row counts as one);
    a row larger than the budget gets a slice of its own.
    """
    step = max(1, CHUNK_ELEMENTS // max(row_size, 1))
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def _block_edges(n, n_blocks):
    if n < 2 * n_blocks:
        raise InsufficientSamples(f"need at least {2 * n_blocks} samples for {n_blocks} blocks")
    return np.linspace(0, n, n_blocks + 1, dtype=int)


def _error_of_block_means(means):
    return means.std(axis=0, ddof=1) / np.sqrt(len(means))


def block_standard_error(samples, n_blocks=N_BLOCKS):
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

    Only running sums are kept: one for all rows and one for each of the
    N_BLOCKS blocks of block_standard_error.  Each sum starts at zero and
    adds its rows one by one, as numpy reduces a C-ordered (n_rows, T)
    array over axis 0, so result() equals samples.mean(axis=0) and
    block_standard_error(samples) of that array bit for bit when T >= 2 (a
    single column numpy sums pairwise).
    """

    def __init__(self, n_rows):
        self._edges = _block_edges(n_rows, N_BLOCKS)
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
