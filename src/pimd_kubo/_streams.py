"""Counter-based random streams for reproducible, scheduling-independent runs.

Every random draw in the package comes from a Philox generator keyed by
(seed, purpose, index), where seed is the run's own seed.  A stream is a
pure function of its key, so any partitioning of work across threads or
processes reproduces the same numbers as a serial run.

The index of a position stream is node << 24 | walker_group: node i of a
constrained grid in the bits from 24 up, the walker group below.  A free
call is node 0.  Neither part reaches its limit in any run that fits in
memory (2^24 groups are 2^35 walkers, and 2^24 nodes fill the 48 bits of
the index).
"""

import numpy as np

# purpose tags (fit in 16 bits); a tag's value keys its streams, so it stays fixed
POSITIONS = 1
POSITIONS_CONSTRAINED = 2
MOMENTA = 3


def stream(seed, purpose, index):
    """Generator for the (seed, purpose, index) stream; seed is in [0, 2^64)."""
    key = np.array([seed, purpose << 48 | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
