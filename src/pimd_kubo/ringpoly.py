"""Ring-polymer observables, energetics and the cyclic normal-mode transform.

A ring is a bead array of shape (..., N): the last axis holds the N beads
and any leading axes index rings, so a 1-D array is one ring.  Bead
indexing is 0-based with cyclic closure (index N wraps to 0).  The
normal-mode transform is the real orthogonal transform diagonalizing the
cyclic spring matrix; mode 0 carries sqrt(N) times the centroid and the
mode frequencies are w_k = 2 (N / beta hbar) sin(k pi / N).

The transform is the product with normal_mode_matrix(N).  The RPMD step
does not use it: it works on the real FFT half spectrum of the beads, whose
real and imaginary parts are the same modes up to a scale per mode (see
dynamics.propagate_batch).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._stats import row_chunks
from .model import horner, potential_eval

POSITION = "position"
MOMENTUM = "momentum"


@dataclass(frozen=True)
class Observable:
    """A polynomial position observable f(q) or the momentum observable.

    A position observable holds its polynomial's coefficients as
    model.horner takes them: a tuple from the highest power down, None for
    a step that multiplies without adding.  f(q, out=None) is horner on
    them at the bead array q, written into out (an array of q's shape)
    when given.  A leading (1, None) is q itself, so horner starts from q:
    the product 1 q would cost the RPMD step one pass over its beads.  So
    f(q) is q for q, q q for q2 and (q q) q for q3.
    """

    kind: str
    label: str
    coeffs: tuple = None

    def __post_init__(self):
        if self.kind not in (POSITION, MOMENTUM):
            raise ValueError(f"unknown observable kind {self.kind!r}")

    @classmethod
    def position(cls, coeffs, label):
        return cls(POSITION, label, tuple(coeffs))

    def f(self, q, out=None):
        coeffs = (q,) + self.coeffs[2:] if self.coeffs[:2] == (1, None) else self.coeffs
        return horner(coeffs, q, out)

    @classmethod
    def momentum(cls):
        return cls(MOMENTUM, "p")

    def centroid(self, positions, momenta):
        """Centroid value per ring of (..., N) bead arrays: the bead mean of f(x), or of p.

        f is evaluated on chunks of rings along the first axis, each of at
        most _stats.CHUNK_ELEMENTS beads, so no temporary of the input's
        size is formed.  Each ring's mean reduces its own beads alone, so
        the values equal f(positions).mean(axis=-1) bit for bit.
        """
        if self.kind == MOMENTUM:
            return momenta.mean(axis=-1)
        if positions.ndim < 2:
            return self.f(positions).mean(axis=-1)
        out = np.empty(positions.shape[:-1])
        for rows in row_chunks(len(positions), math.prod(positions.shape[1:])):
            out[rows] = self.f(positions[rows]).mean(axis=-1)
        return out


OBS_Q = Observable.position((1, None), "q")
OBS_Q2 = Observable.position((1, None, None), "q2")
OBS_Q3 = Observable.position((1, None, None, None), "q3")
OBS_P = Observable.momentum()


def observable_from_label(label):
    """Map a text label (q, p, q2, q3, poly:c0,c1,...) to an Observable.

    The one place a label becomes coefficients.  Raises ValueError for an
    unknown label or a poly: coefficient that is not a finite number.
    """
    builtin = {"q": OBS_Q, "q2": OBS_Q2, "q3": OBS_Q3, "p": OBS_P}
    if label in builtin:
        return builtin[label]
    if label.startswith("poly:"):
        # model.horner on [0, c_d, ..., c_0]: the operation order of
        # np.polynomial.polynomial.polyval, which starts from 0 q + c_d
        coeffs = [0.0] + [float(c) for c in reversed(label[5:].split(","))]
        if not all(map(math.isfinite, coeffs)):
            raise ValueError(f"observable {label!r} has a non-finite coefficient")
        return Observable.position(coeffs, label)
    raise ValueError(f"unknown observable label {label!r}")


def bond_midpoints(p, out=None):
    """Cyclic bond-midpoint momenta (p_k + p_{k+1}) / 2 of (..., N) bead arrays.

    Written into out when given, which may be p itself; one rolled copy of
    p is the only temporary.
    """
    out = np.add(p, np.roll(p, -1, axis=-1), out=out)
    return np.multiply(out, 0.5, out=out)


# ----------------------------------------------------------------------
# energetics of the cyclic chain

def spring_energy(x, model, thermo):
    """Harmonic link energy sum_k (m/2) w_N^2 (x_k - x_{k+1})^2 of each ring, cyclic."""
    d = x - np.roll(x, -1, axis=-1)
    return 0.5 * model.mass * thermo.omega_n**2 * np.sum(d * d, axis=-1)


def log_ring_density(x, model, thermo):
    """log R(x) of each ring: Gaussian-link prefactor minus potential and spring exponents.

    log R = (N/2) log(m N / (2 pi beta hbar^2))
            - (beta/N) sum_k V(x_k)
            - (m N / (2 beta hbar^2)) sum_k (x_k - x_{k+1})^2
    """
    n = x.shape[-1]
    beta, hbar, m = thermo.beta, thermo.hbar, model.mass
    pref = 0.5 * n * np.log(m * n / (2.0 * np.pi * beta * hbar**2))
    pot = (beta / n) * np.sum(potential_eval(model, x), axis=-1)
    d = x - np.roll(x, -1, axis=-1)
    spring = (m * n / (2.0 * beta * hbar**2)) * np.sum(d * d, axis=-1)
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
