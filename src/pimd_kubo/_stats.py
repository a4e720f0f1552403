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
# but two: an N > 1 RPMD correlator's, whose propagation it also cuts into
# time segments (estimators), each restarting from bead positions and
# momenta, which rounds the ring's normal modes again; and the harmonic CAQ
# reference's (oracle), whose error blocks its row chunks cut into partial
# sums (block_sums).
CHUNK_ELEMENTS = 2**18


def row_chunks(n_rows, row_size):
    """Slices covering n_rows rows in order, each of at most CHUNK_ELEMENTS elements.

    row_size is the element count of one row (an empty row counts as one);
    a row larger than the budget gets a slice of its own.
    """
    step = max(1, CHUNK_ELEMENTS // max(row_size, 1))
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def block_edges(n, n_blocks=N_BLOCKS):
    """Edges of n_blocks contiguous blocks of n rows, as even as integers allow.

    Raises InsufficientSamples below two rows per block.
    """
    if n < 2 * n_blocks:
        raise InsufficientSamples(f"need at least {2 * n_blocks} samples for {n_blocks} blocks")
    return np.linspace(0, n, n_blocks + 1, dtype=int)


def block_sums(rows, first, edges):
    """(b, sums): the sums over axis 0 of rows, the rows first, first + 1, ..., per block.

    sums[i] = rows[lo:hi].sum(axis=0) over the rows that fall in block
    b + i of the blocks that edges bound, so rows may be one piece of a
    larger set: adding each piece's sums into an (n_blocks, ...) array at
    b gives that set's block sums.  A block that two pieces share is summed
    as two partial sums, which rounds otherwise than one sum over the
    block: the pieces fix the bits, not the threads that form them or the
    order in which they do, and the mean of pieces is numpy's full
    reduction only to rounding.
    """
    last = first + len(rows)
    b = np.searchsorted(edges, first, side="right") - 1
    cuts = np.clip(edges[b:np.searchsorted(edges, last) + 1], first, last) - first
    return b, np.stack([rows[lo:hi].sum(axis=0) for lo, hi in zip(cuts[:-1], cuts[1:])])


def blocked_mean(sums, edges):
    """(mean, standard error) per column from the block sums of all rows.

    sums is the (n_blocks, ...) array of block_sums over the blocks that
    edges bound; the error is the spread of the block means.
    """
    means = sums / np.diff(edges).reshape((-1,) + (1,) * (sums.ndim - 1))
    return sums.sum(axis=0) / edges[-1], means.std(axis=0, ddof=1) / np.sqrt(len(means))


def block_standard_error(samples, n_blocks=N_BLOCKS):
    """Standard error of the mean from n_blocks contiguous block means.

    samples may be (n,) or (n, T); the error is computed per column.
    Blocking absorbs residual autocorrelation along the sample axis as long
    as each block is much longer than the correlation time.  A block's sum
    over its count is numpy's mean of the block, bit for bit.
    """
    samples = np.asarray(samples, dtype=float)
    edges = block_edges(len(samples), n_blocks)
    return blocked_mean(block_sums(samples, 0, edges)[1], edges)[1]
