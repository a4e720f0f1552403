"""Counter-based random streams for reproducible, scheduling-independent runs.

Every random draw in the package comes from a Philox generator keyed by
(seed, purpose, index).  A stream is a pure function of its key, so any
partitioning of work across threads or processes reproduces the same
numbers as a serial run.
"""

import numpy as np

# purpose tags (fit in 16 bits); a tag's value keys its streams, so it stays fixed
POSITIONS = 1
POSITIONS_CONSTRAINED = 2
MOMENTA = 3
CMD_MOMENTA = 5


def stream(seed, purpose, index=0):
    """Generator for the (seed, purpose, index) stream."""
    key = np.array([np.uint64(seed) & np.uint64(0xFFFFFFFFFFFFFFFF),
                    (np.uint64(purpose) << np.uint64(48)) | np.uint64(index)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
