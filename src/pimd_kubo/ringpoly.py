"""Ring-polymer state, centroid functionals and the cyclic normal-mode transform.

Bead indexing is 0-based with cyclic closure (index N wraps to 0).  The
normal-mode transform is the real orthogonal transform diagonalizing the
cyclic spring matrix; mode 0 carries sqrt(N) times the centroid and the
mode frequencies are w_k = 2 (N / beta hbar) sin(k pi / N).

The transform has one realisation for every N: a vectorised real FFT.
normal_mode_matrix stays as its reference and for the constrained
sampler's single-mode moves.  The FFT is chosen for the traffic the program
serves: RPMD transforms 1024-trajectory chunks from a 2-thread pool with
BLAS threads unset, and there every matmul of a matrix path also fans out
to the BLAS threads.  Measured in that pool (2 cores, numpy 2.4.6, OpenBLAS
0.3.31, median of 7), 300 RPMD steps took 1.16 s on the FFT path against
1.89 s on the matrix path for 2048 x 128 beads, and 0.77 s against 0.84 s
for 4096 x 32 beads.  Timed alone on one thread the matrix looks faster
(about 7 against 25 ns per bead at N = 128); with OPENBLAS_NUM_THREADS=1
the two paths tie in the pool.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import UnsupportedObservable
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

    @property
    def n_beads(self):
        return self.positions.size

    def copy(self):
        return RingPolymerState(self.positions.copy(), self.momenta.copy())


@dataclass(frozen=True)
class Observable:
    """A position-function observable f(q) or the momentum observable."""

    kind: str
    label: str
    f: object = field(default=None, compare=False)

    @classmethod
    def position(cls, f, label):
        return cls(POSITION, label, f)

    @classmethod
    def momentum(cls):
        return cls(MOMENTUM, "p")


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
# centroids

def centroid_position(state):
    """(1/N) sum_k x_k."""
    return float(np.mean(state.positions))


def centroid_momentum(state):
    """(1/N) sum_k p_k."""
    return float(np.mean(state.momenta))


def centroid_observable(obs, state):
    """(1/N) sum_k f(x_k) for a position-function observable."""
    if obs.kind != POSITION:
        raise UnsupportedObservable("centroid_observable needs a position observable; use centroid_momentum for p")
    return float(np.mean(obs.f(state.positions)))


# ----------------------------------------------------------------------
# energetics of the cyclic chain

def spring_energy(state, thermo, model):
    """Harmonic link energy sum_k (m/2) w_N^2 (x_k - x_{k+1})^2, cyclic.

    Zero for a single bead (no springs).
    """
    x = state.positions if isinstance(state, RingPolymerState) else np.asarray(state, float)
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


def _forward_fft(x, out=None, work=None):
    """Forward transform of the last axis by one real FFT.

    Mode k (0 < k < N/2) is sqrt(2/N) Re X_k, mode N-k is sqrt(2/N) Im X_k,
    and modes 0 and N/2 are X_k / sqrt(N).  out receives the modes and work
    the complex rfft output when given.
    """
    n = x.shape[-1]
    h = (n + 1) // 2
    ft = np.fft.rfft(x, axis=-1, out=work)
    a = np.empty_like(x) if out is None else out
    s2 = np.sqrt(2.0 / n)
    np.divide(ft.real[..., 0], np.sqrt(n), out=a[..., 0])
    np.multiply(ft.real[..., 1:h], s2, out=a[..., 1:h])
    np.multiply(ft.imag[..., h - 1:0:-1], s2, out=a[..., n - h + 1:])
    if n % 2 == 0:
        np.divide(ft.real[..., n // 2], np.sqrt(n), out=a[..., n // 2])
    return a


def _inverse_fft(a, out=None, work=None):
    """Inverse of _forward_fft: pack the modes into a half spectrum, one irfft."""
    n = a.shape[-1]
    h = (n + 1) // 2
    ft = np.empty(a.shape[:-1] + (n // 2 + 1,), dtype=complex) if work is None else work
    s2 = np.sqrt(n / 2.0)
    np.multiply(a[..., 0], np.sqrt(n), out=ft.real[..., 0])
    ft.imag[..., 0] = 0.0
    np.multiply(a[..., 1:h], s2, out=ft.real[..., 1:h])
    np.multiply(a[..., n - 1:n - h:-1], s2, out=ft.imag[..., 1:h])
    if n % 2 == 0:
        np.multiply(a[..., n // 2], np.sqrt(n), out=ft.real[..., n // 2])
        ft.imag[..., n // 2] = 0.0
    return np.fft.irfft(ft, n=n, axis=-1, out=out)


def normal_mode_transform(arr, direction="forward", out=None, work=None):
    """Apply the cyclic normal-mode transform along the last axis.

    The columns of normal_mode_matrix(N), agreeing with it to 1e-12, realised
    for every N by one real FFT: in the RPMD thread pool that path beats the
    matrix (1.16 s against 1.89 s for 300 steps of 2048 x 128 beads, 0.77 s
    against 0.84 s at 4096 x 32; see the module docstring).  out (real,
    shaped like arr) and work (complex, last axis N // 2 + 1) are optional
    buffers for callers that transform in a loop.
    """
    arr = np.asarray(arr, dtype=float)
    if direction == "forward":
        return _forward_fft(arr, out, work)
    if direction == "inverse":
        return _inverse_fft(arr, out, work)
    raise ValueError("direction must be 'forward' or 'inverse'")


def free_rp_frequencies(thermo):
    """Mode frequencies w_k = 2 (N / beta hbar) sin(k pi / N), k = 0..N-1."""
    n = thermo.n_beads
    k = np.arange(n)
    return 2.0 * thermo.omega_n * np.sin(np.pi * k / n)
