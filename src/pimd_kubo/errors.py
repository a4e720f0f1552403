"""Exception and warning types shared across the package.

A ConfigError is what the runner maps to exit 2: a run that its
configuration cannot serve.  Its subclasses are a well the sampler cannot
serve (UnsupportedModel), a time step too coarse for the well
(GridTooCoarse) and an [oracle] grid that cannot represent the thermal
states: one that leaks at its edges (BoundaryLeak), one too coarse for the
highest retained state (GridUnresolved), or too few retained states
(SpectralIncomplete).
"""


class InsufficientSamples(ValueError):
    """Raised when an estimator receives fewer samples than its blocking needs."""


class NonErgodicWarning(UserWarning):
    """Monte Carlo acceptance rate fell below 0.05 after burn-in.

    The sampler proposes from a Gaussian reference, so a low rate means the
    reference misses the target; a high rate means it fits (harmonic: 1).
    """


class ConfigError(ValueError):
    """Run-configuration error (config file or PIMD_KUBO_THREADS), with source position.

    The runner exits 2 on it and on its subclasses.
    """

    def __init__(self, message, line=None, key=None):
        self.line = line
        self.key = key
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnsupportedModel(ConfigError):
    """The sampler's Gaussian reference cannot serve a well with two minima."""


class GridEscape(RuntimeError):
    """A centroid trajectory left the tabulated force range."""


class GridTooCoarse(ConfigError):
    """RPMD or CMD time step too coarse for the well's harmonic frequency (dt * omega >= 0.5)."""


class QuadratureFailure(RuntimeError):
    """The swarm trace's Gauss-Hermite sums of orders 32 and 64 disagree beyond its tolerance."""


class SpectralIncomplete(ConfigError):
    """Retained eigenbasis does not span the thermal density at this beta."""


class BoundaryLeak(ConfigError):
    """A retained eigenstate has non-negligible amplitude at the grid edge."""


class GridUnresolved(ConfigError):
    """The grid spacing does not resolve the de Broglie scale of the highest retained state."""


class NonFiniteResult(ValueError):
    """A correlation series holds a NaN or infinite value or standard error."""


class UnsupportedObservable(TypeError):
    """Observable kind not admissible for the requested operation."""


