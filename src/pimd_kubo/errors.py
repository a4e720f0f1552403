"""Exception and warning types shared across the package."""


class InsufficientSamples(ValueError):
    """Raised when an estimator receives fewer samples than its blocking needs."""


class NonErgodicWarning(UserWarning):
    """Monte Carlo acceptance rate fell below 0.05 after burn-in.

    The sampler proposes from a Gaussian reference, so a low rate means the
    reference misses the target; a high rate means it fits (harmonic: 1).
    """


class UnsupportedModel(ValueError):
    """The sampler's Gaussian reference cannot serve a well with two minima."""


class GridEscape(RuntimeError):
    """A centroid trajectory left the tabulated force range."""


class GridTooCoarse(ValueError):
    """RPMD or CMD time step too coarse for the well's harmonic frequency (dt * omega >= 0.5)."""


class QuadratureFailure(RuntimeError):
    """Adaptive quadrature could not reach the requested absolute accuracy."""


class SpectralIncomplete(ValueError):
    """Retained eigenbasis does not span the thermal density at this beta."""


class BoundaryLeak(ValueError):
    """A retained eigenstate has non-negligible amplitude at the grid edge."""


class NonFiniteResult(ValueError):
    """A correlation series holds a NaN or infinite value or standard error."""


class UnsupportedObservable(TypeError):
    """Observable kind not admissible for the requested operation."""


class ConfigError(ValueError):
    """Run-configuration parse or validation error, with source position."""

    def __init__(self, message, line=None, key=None):
        self.line = line
        self.key = key
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
