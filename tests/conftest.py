import tracemalloc

import numpy as np
import pytest

from pimd_kubo import GridSpec, diagonalize, harmonic


@pytest.fixture(scope="session")
def harmonic_model():
    return harmonic(1.0, 1.0)


@pytest.fixture(scope="session")
def harmonic_eig(harmonic_model):
    # wide box so 44 retained states stay clear of the edges (beta >= 1 use)
    return diagonalize(harmonic_model, GridSpec(-14.0, 14.0, 768), 44)


@pytest.fixture(scope="session")
def harmonic_eig_small(harmonic_model):
    return diagonalize(harmonic_model, GridSpec(-10.0, 10.0, 512), 10)


@pytest.fixture
def traced_peak():
    """peak(fn, *args): the traced peak of heap bytes while fn(*args) runs, numpy's included."""
    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
