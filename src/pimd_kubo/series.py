"""Time-series container shared by estimators and oracles."""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteResult


@dataclass
class CorrelationSeries:
    """A real correlation function on a time grid with standard errors."""

    times: np.ndarray
    values: np.ndarray
    std_errors: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.std_errors = np.asarray(self.std_errors, dtype=float)
        if not (self.times.shape == self.values.shape == self.std_errors.shape):
            raise ValueError("times, values and std_errors must have equal shape")
        if self.times.size == 0 or self.times[0] != 0.0:
            raise ValueError("time grid must start at 0")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("time grid must be strictly ascending")
        bad = ~(np.isfinite(self.values) & np.isfinite(self.std_errors))
        if bad.any():
            raise NonFiniteResult(f"{int(bad.sum())} of {bad.size} points are not finite, "
                                  f"the first at t = {self.times[bad.argmax()]:g}")
        if np.any(self.std_errors < 0):
            raise ValueError("standard errors must be >= 0")

    @property
    def dt(self):
        steps = np.diff(self.times)
        if steps.size and not np.allclose(steps, steps[0], rtol=1e-10, atol=0.0):
            raise ValueError("time grid is not uniform")
        return float(steps[0]) if steps.size else 0.0

    def __len__(self):
        return self.times.size
