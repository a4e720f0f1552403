"""One-dimensional potential models and the thermodynamic state.

Three potential families cover the physics exercised by the package:
a harmonic well (exactness statements), a mildly anharmonic well
(cubic/quartic perturbations, spurious-peak studies) and a pure quartic
well (strong nonlinearity).  Natural units throughout; hbar is carried
as a parameter of the thermodynamic state.

horner is the package's one polynomial evaluator: V and -V' here, the CMD
force spline in dynamics, every position observable in ringpoly and the
static estimator in sampler all run it.
"""

from dataclasses import dataclass, fields
from functools import partial
from numbers import Integral

import numpy as np

HARMONIC = "harmonic"
MILDLY_ANHARMONIC = "mildly_anharmonic"
QUARTIC = "quartic"

# the parameters of V each kind uses; a kind's other parameters keep their defaults
KIND_PARAMETERS = {
    HARMONIC: ("mass", "omega"),
    MILDLY_ANHARMONIC: ("mass", "omega", "c3", "c4"),
    QUARTIC: ("mass", "a4"),
}
OMEGA_KINDS = (HARMONIC, MILDLY_ANHARMONIC)  # kinds with a harmonic frequency omega


@dataclass(frozen=True)
class PotentialModel:
    """A 1D potential V(q) with analytic gradient.

    kind        one of "harmonic", "mildly_anharmonic", "quartic"
    mass        particle mass, > 0
    omega       angular frequency (harmonic part), > 0 where used
    c3, c4      cubic and quartic coefficients (mildly_anharmonic)
    a4          quartic strength for V = a4 q^4 / 4 (quartic)

    A parameter that the kind does not use (KIND_PARAMETERS) must keep its
    default, so one well has one description.
    """

    kind: str
    mass: float = 1.0
    omega: float = 1.0
    c3: float = 0.0
    c4: float = 0.0
    a4: float = 0.0

    def __post_init__(self):
        if self.kind not in KIND_PARAMETERS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        for f in fields(self)[1:]:  # the parameters after kind
            if f.name not in KIND_PARAMETERS[self.kind] and getattr(self, f.name) != f.default:
                raise ValueError(f"{f.name} is not a parameter of kind {self.kind!r}")
        if not (np.isfinite(self.mass) and self.mass > 0):
            raise ValueError("mass must be finite and > 0")
        if self.kind in OMEGA_KINDS:
            if not (np.isfinite(self.omega) and self.omega > 0):
                raise ValueError("omega must be finite and > 0")
        if self.kind == MILDLY_ANHARMONIC:
            if not np.isfinite(self.c3):
                raise ValueError("c3 must be finite")
            if not (np.isfinite(self.c4) and self.c4 >= 0):
                raise ValueError("c4 must be finite and >= 0")
            if self.c3 != 0.0 and self.c4 == 0.0:
                raise ValueError("c3 != 0 needs c4 > 0: a cubic-only well is unbounded below")
        if self.kind == QUARTIC:
            if not (np.isfinite(self.a4) and self.a4 > 0):
                raise ValueError("a4 must be finite and > 0")
        try:
            coeffs = self.poly_coefficients()
        except OverflowError:  # omega**2 past the float range
            coeffs = (np.inf,)
        if not (any(coeffs) and np.isfinite(coeffs).all()):  # say omega = 1e-200 or 1e200
            raise ValueError("the coefficients of V under- or overflow at " + ", ".join(
                f"{name} = {getattr(self, name)!r}" for name in KIND_PARAMETERS[self.kind]))

    def poly_coefficients(self):
        """Coefficients (v2, v3, v4) of V = v2 q^2 + v3 q^3 + v4 q^4."""
        if self.kind == HARMONIC:
            return 0.5 * self.mass * self.omega**2, 0.0, 0.0
        if self.kind == MILDLY_ANHARMONIC:
            return 0.5 * self.mass * self.omega**2, self.c3, self.c4
        return 0.0, 0.0, 0.25 * self.a4


# a model of one kind; the arguments are PotentialModel's later fields, in order
# (mass, omega, c3, c4), and keep its defaults
harmonic = partial(PotentialModel, HARMONIC)
mildly_anharmonic = partial(PotentialModel, MILDLY_ANHARMONIC)


def quartic(a4, **fields):
    """The well a4 q^4 / 4; fields (mass) as in PotentialModel."""
    return PotentialModel(QUARTIC, a4=a4, **fields)


def require_integers(config, *names):
    """Raise ValueError unless each named field of config is an integer, a numpy one included."""
    for name in names:
        if not isinstance(getattr(config, name), Integral):
            raise ValueError(f"{name} must be an integer, got {getattr(config, name)!r}")


@dataclass(frozen=True)
class ThermoParams:
    """Inverse temperature, bead count and Planck constant."""

    beta: float
    n_beads: int
    hbar: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be finite and > 0")
        require_integers(self, "n_beads")
        if self.n_beads < 1:
            raise ValueError("n_beads must be an integer >= 1")
        if not (np.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError("hbar must be finite and > 0")

    @property
    def omega_n(self):
        """Ring-polymer spring frequency N/(beta*hbar)."""
        return self.n_beads / (self.beta * self.hbar)


def horner(coeffs, q, out=None):
    """sum_j coeffs[j] q^(d - j), d = len(coeffs) - 1, by Horner's rule, into out.

    The one polynomial evaluator of the package: V (potential_fn), -V'
    (force_fn), the CMD force spline (dynamics.CentroidForceTable), every
    position observable (ringpoly.Observable.f: q, q2, q3 and poly:), and
    the conditional-centroid exponent and the bead mean of f at the
    quadrature nodes (sampler.static_average) all run it.  coeffs run from
    the highest power down; each is a scalar or an array that broadcasts
    against q.  Every step is one ufunc writing into out,
        out = c_0 q,  out += c_1,  out *= q,  out += c_2,  ...,  out += c_d,
    so a call allocates at most its result, and the operation order, and so
    every bit, is the same whether out is given or not (when None, a new
    float array in the memory layout of q).  A coefficient None marks a
    step that multiplies without adding.  With d = 0 there is no step: the
    value is coeffs[0] itself, and nothing is allocated or written.  It is
    unchecked: a non-finite q gives a non-finite value, and out must not
    share memory with q.
    """
    out = np.empty_like(q, dtype=float) if out is None and len(coeffs) > 1 else out
    v = coeffs[0]
    for c in coeffs[1:]:
        v = np.multiply(v, q, out=out)
        if c is not None:
            v = np.add(v, c, out=out)
    return v


def _steps(coeffs):
    """horner's coefficients from the leading nonzero one on, a later zero as None.

    The add of a zero coefficient is left out: it could change only the sign
    of a zero.
    """
    lead = next(i for i, c in enumerate(coeffs) if c != 0.0)
    return [coeffs[lead]] + [None if c == 0.0 else c for c in coeffs[lead + 1:]]


def potential_fn(model):
    """V as an unchecked closure pot(q, out=None) over arrays: horner on (v4, v3, v2, 0, 0).

    The evaluator of the sampler and propagation loops, so its steps run
    ((v4 q + v3) q + v2) q q from the leading nonzero coefficient, with the
    add of a zero coefficient left out.
    """
    v2, v3, v4 = model.poly_coefficients()
    return partial(horner, _steps((v4, v3, v2, 0.0, 0.0)))


def force_fn(model):
    """-dV/dq as an unchecked closure force(q, out) over arrays; returns out.

    The force of the propagation loop and the force table, in the out= form
    of horner, so out must not share memory with q: horner on
    (-4 v4, -3 v3, -2 v2, 0), the negated coefficients of
    V' = ((4 v4 q + 3 v3) q + 2 v2) q, from the leading nonzero one.  The
    result is the negated V' of that order bit for bit (rounding is
    sign-symmetric).
    """
    v2, v3, v4 = model.poly_coefficients()
    return partial(horner, _steps((-4.0 * v4, -3.0 * v3, -2.0 * v2, 0.0)))


def potential_eval(model, q):
    """V(q).  Accepts scalars or arrays; rejects non-finite input."""
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        raise ValueError("non-finite position rejected")
    v = potential_fn(model)(q)
    return v if v.ndim else float(v)
