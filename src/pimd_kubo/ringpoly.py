"""Ring-polymer state, observables and the cyclic normal-mode transform.

Bead indexing is 0-based with cyclic closure (index N wraps to 0).  The
normal-mode transform is the real orthogonal transform diagonalizing the
cyclic spring matrix; mode 0 carries sqrt(N) times the centroid and the
mode frequencies are w_k = 2 (N / beta hbar) sin(k pi / N).

The transform is the product with normal_mode_matrix(N).  The RPMD step
does not use it: it works on the real FFT half spectrum of the beads, whose
real and imaginary parts are the same modes up to a scale per mode (see
dynamics.propagate_batch).
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .model import potential_eval

POSITION = "position"
MOMENTUM = "momentum"


@dataclass
class RingPolymerState:
    """N bead positions and momenta of one cyclic path."""

    positions: np.ndarray
    momenta: np.ndarray

    def __post_init__(self):
        self.positions = np.atleast_1d(np.asarray(self.positions, dtype=float))
        self.momenta = np.atleast_1d(np.asarray(self.momenta, dtype=float))
        if self.positions.shape != self.momenta.shape or self.positions.ndim != 1:
            raise ValueError("positions and momenta must be 1D arrays of equal length")
        if not (np.all(np.isfinite(self.positions)) and np.all(np.isfinite(self.momenta))):
            raise ValueError("non-finite bead entries rejected")


@dataclass(frozen=True)
class Observable:
    """A position-function observable f(q) or the momentum observable."""

    kind: str
    label: str
    f: object = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in (POSITION, MOMENTUM):
            raise ValueError(f"unknown observable kind {self.kind!r}")

    @classmethod
    def position(cls, f, label):
        return cls(POSITION, label, f)

    @classmethod
    def momentum(cls):
        return cls(MOMENTUM, "p")

    def centroid(self, positions, momenta):
        """Centroid value per sample of (n, N) bead arrays: the bead mean of f(x), or of p."""
        if self.kind == POSITION:
            return self.f(positions).mean(axis=1)
        return momenta.mean(axis=1)


OBS_Q = Observable.position(lambda q: q, "q")
OBS_Q2 = Observable.position(lambda q: q * q, "q2")
OBS_Q3 = Observable.position(lambda q: q**3, "q3")
OBS_P = Observable.momentum()


def observable_from_label(label):
    """Map a text label (q, p, q2, q3, poly:c0,c1,...) to an Observable."""
    builtin = {"q": OBS_Q, "q2": OBS_Q2, "q3": OBS_Q3, "p": OBS_P}
    if label in builtin:
        return builtin[label]
    if label.startswith("poly:"):
        coeffs = np.array([float(c) for c in label[5:].split(",")], dtype=float)

        def poly(q, _c=coeffs):
            return np.polynomial.polynomial.polyval(q, _c)

        return Observable.position(poly, label)
    raise ValueError(f"unknown observable label {label!r}")


# ----------------------------------------------------------------------
# energetics of the cyclic chain

def spring_energy(state, thermo, model):
    """Harmonic link energy sum_k (m/2) w_N^2 (x_k - x_{k+1})^2, cyclic.

    Zero for a single bead (no springs).
    """
    x = state.positions
    if x.shape[-1] == 1:
        return 0.0
    d = x - np.roll(x, -1, axis=-1)
    w_n = thermo.omega_n
    return float(0.5 * model.mass * w_n**2 * np.sum(d * d, axis=-1))


def log_ring_density(positions, thermo, model):
    """log R(x): Gaussian-link prefactor minus potential and spring exponents.

    log R = (N/2) log(m N / (2 pi beta hbar^2))
            - (beta/N) sum_k V(x_k)
            - (m N / (2 beta hbar^2)) sum_k (x_k - x_{k+1})^2
    """
    x = np.atleast_1d(np.asarray(positions, dtype=float))
    n = x.shape[-1]
    beta, hbar, m = thermo.beta, thermo.hbar, model.mass
    pref = 0.5 * n * np.log(m * n / (2.0 * np.pi * beta * hbar**2))
    pot = (beta / n) * np.sum(potential_eval(model, x), axis=-1)
    if n > 1:
        d = x - np.roll(x, -1, axis=-1)
        spring = (m * n / (2.0 * beta * hbar**2)) * np.sum(d * d, axis=-1)
    else:
        spring = 0.0
    return pref - pot - spring


# ----------------------------------------------------------------------
# normal modes of the free ring polymer

@lru_cache(maxsize=32)
def normal_mode_matrix(n):
    """Orthogonal matrix C with columns the cyclic-spring normal modes.

    Forward transform is a_k = sum_j C[j, k] x_j; column 0 is the centroid
    mode (amplitude sqrt(N) times the centroid).  Column k diagonalizes the
    spring matrix with eigenvalue 4 sin^2(k pi / N).
    """
    j = np.arange(n)
    c = np.zeros((n, n))
    c[:, 0] = np.sqrt(1.0 / n)
    for k in range(1, n):
        ang = 2.0 * np.pi * j * k / n
        if 2 * k < n:
            c[:, k] = np.sqrt(2.0 / n) * np.cos(ang)
        elif 2 * k == n:
            c[:, k] = np.sqrt(1.0 / n) * (-1.0) ** j
        else:
            c[:, k] = np.sqrt(2.0 / n) * np.sin(ang)
    return c


def normal_mode_transform(arr, direction):
    """Apply the cyclic normal-mode transform along the last axis.

    forward gives the amplitudes a = x C of the columns of
    C = normal_mode_matrix(N); inverse gives x = a C^T.
    """
    arr = np.asarray(arr, dtype=float)
    c = normal_mode_matrix(arr.shape[-1])
    if direction == "forward":
        return arr @ c
    if direction == "inverse":
        return arr @ c.T
    raise ValueError("direction must be 'forward' or 'inverse'")


def free_rp_frequencies(thermo):
    """Mode frequencies w_k = 2 (N / beta hbar) sin(k pi / N), k = 0..N-1."""
    n = thermo.n_beads
    k = np.arange(n)
    return 2.0 * thermo.omega_n * np.sin(np.pi * k / n)
