"""One-dimensional potential models and the thermodynamic state.

Three potential families cover the physics exercised by the package:
a harmonic well (exactness statements), a mildly anharmonic well
(cubic/quartic perturbations, spurious-peak studies) and a pure quartic
well (strong nonlinearity).  Natural units throughout; hbar is carried
as a parameter of the thermodynamic state.
"""

from dataclasses import dataclass, fields
from functools import partial

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


@dataclass(frozen=True)
class ThermoParams:
    """Inverse temperature, bead count and Planck constant."""

    beta: float
    n_beads: int
    hbar: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be finite and > 0")
        if int(self.n_beads) != self.n_beads or self.n_beads < 1:
            raise ValueError("n_beads must be an integer >= 1")
        if not (np.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError("hbar must be finite and > 0")

    @property
    def omega_n(self):
        """Ring-polymer spring frequency N/(beta*hbar)."""
        return self.n_beads / (self.beta * self.hbar)


def potential_fn(model):
    """V as an unchecked closure pot(q, out=None) over arrays, in Horner form.

    The evaluator of the sampler and propagation loops: it does not check
    its input, so a non-finite q gives a non-finite V.  Every Horner step
    is one ufunc writing into out (when None, a new float array in the
    memory layout of q), so a call allocates at most its result, and the
    operation order, and so every bit, is the same either way.
    """
    v2, v3, v4 = model.poly_coefficients()
    mul, add = np.multiply, np.add
    if v3 == 0.0 and v4 == 0.0:
        def horner(q, out):  # v2 q q
            return mul(mul(v2, q, out=out), q, out=out)
    elif v3 == 0.0:
        def horner(q, out):  # (v2 + v4 q q) q q
            v = add(v2, mul(mul(v4, q, out=out), q, out=out), out=out)
            return mul(mul(v, q, out=out), q, out=out)
    else:
        def horner(q, out):  # ((v4 q + v3) q + v2) q q
            v = add(mul(v4, q, out=out), v3, out=out)
            v = add(mul(v, q, out=out), v2, out=out)
            return mul(mul(v, q, out=out), q, out=out)

    def pot(q, out=None):
        return horner(q, np.empty_like(q, dtype=float) if out is None else out)

    return pot


def grad_fn(model):
    """dV/dq as an unchecked closure over arrays, in Horner form."""
    v2, v3, v4 = model.poly_coefficients()
    if v3 == 0.0 and v4 == 0.0:
        return lambda q: 2.0 * v2 * q
    if v2 == 0.0 and v3 == 0.0:
        # pure quartic: the dropped terms only add +0.0 to 4 v4 q^2 >= 0
        return lambda q: 4.0 * v4 * q * q * q
    return lambda q: (4.0 * v4 * q * q + 3.0 * v3 * q + 2.0 * v2) * q


def potential_eval(model, q):
    """V(q).  Accepts scalars or arrays; rejects non-finite input."""
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        raise ValueError("non-finite position rejected")
    v = potential_fn(model)(q)
    return v if v.ndim else float(v)
