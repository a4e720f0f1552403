"""Blocked error bars and the row-chunk budget shared by samplers and estimators."""

import numpy as np

from .errors import InsufficientSamples

N_BLOCKS = 16  # error blocks of every blocked mean unless a run sets [run] blocks
# Most elements of one temporary in a per-row reduction of an ensemble: 2**18
# float64s, 2 MB.  That is small beside an ensemble worth chunking (131072
# rings of 64 beads are 64 MB) and near the size of a core's cache, yet a
# chunk still holds over a thousand rows of up to 201 elements, so the numpy
# dispatch per chunk stays negligible.  It is a constant and not a setting:
# every reduction it chunks is row-wise, so it changes no bit of any result
# but an N > 1 RPMD correlator's, whose propagation it also cuts into time
# segments (estimators), each restarting from bead positions and momenta,
# which rounds the ring's normal modes again.
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


def _fold(sums, rows, first, edges):
    """Add rows, the rows first, first + 1, ... of a blocked set, to sums in row order.

    sums[0] is the total and sums[1 + b] the sum of block b of the blocks
    that edges bound.  Each sum is prepended as row 0 of its rows in one
    C-ordered copy and reduced by np.add.reduce over axis 0, which adds the
    rows one by one; a single column numpy would sum pairwise, so that case
    accumulates.
    """
    m, n_cols = rows.shape
    last = first + m
    buf = np.empty((m + 1, n_cols))
    buf[1:] = rows
    spans = [(0, 0, m)] + [(1 + b, max(lo, first) - first, min(hi, last) - first)
                           for b, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]))
                           if lo < last and hi > first]
    for i, a, z in spans:  # buf[a] holds the row before this sum's, added already
        buf[a] = sums[i]
        if n_cols == 1:
            sums[i] = np.add.accumulate(buf[a:z + 1, 0])[-1]
        else:
            np.add.reduce(buf[a:z + 1], axis=0, out=sums[i])


class RowAccumulator:
    """Mean and block standard error of n_rows rows that arrive in order.

    Only running sums are kept: one for all rows and one for each of the
    N_BLOCKS blocks of block_standard_error.  Each sum starts at +0.0 and
    adds its rows one by one, as numpy reduces a C-ordered (n_rows, T)
    array over axis 0, so result() equals samples.mean(axis=0) and
    block_standard_error(samples) of that array bit for bit when T >= 2 (a
    single column numpy sums pairwise).  Rows may also arrive as the sums
    of a run of them (block_sums, then add_sums), which another thread can
    form; the whole then adds N_BLOCKS + 1 rows of sums per run.
    """

    def __init__(self, n_rows):
        self._edges = _block_edges(n_rows, N_BLOCKS)
        self._sums = None  # the total, then one sum per block
        self._count = 0

    def _take(self, m, n_cols):
        if self._count + m > self._edges[-1]:
            raise ValueError(f"more than {self._edges[-1]} rows added")
        if self._sums is None:
            self._sums = np.zeros((N_BLOCKS + 1, n_cols))
        self._count += m

    def add(self, rows):
        """Add the next rows, an (m, T) array, in row order."""
        first = self._count
        self._take(*rows.shape)
        _fold(self._sums, rows, first, self._edges)

    def block_sums(self, rows, first):
        """The (N_BLOCKS + 1, T) sums that add would form from +0.0 for rows, the rows first, ...

        Row 0 is the total and row 1 + b the sum over block b; blocks that
        rows do not reach hold +0.0.  It reads only the block edges, so
        other threads may call it while this one adds.
        """
        sums = np.zeros((N_BLOCKS + 1, rows.shape[1]))
        _fold(sums, rows, first, self._edges)
        return sums

    def add_sums(self, sums, m):
        """Add the block_sums of the next m rows."""
        self._take(m, sums.shape[1])
        self._sums += sums

    def result(self):
        """(mean, standard error) per column, once every row has been added."""
        n = self._edges[-1]
        if self._count != n:
            raise ValueError(f"{self._count} of {n} rows added")
        means = self._sums[1:] / np.diff(self._edges)[:, None]
        return self._sums[0] / n, _error_of_block_means(means)
