import re

import numpy as np
import pytest

from pimd_kubo import (GridSpec, IntegratorConfig, SamplerConfig, harmonic, mildly_anharmonic,
                       potential_eval, quartic)
from pimd_kubo.model import PotentialModel, ThermoParams, force_fn, horner, potential_fn

# q at which every Horner step meets a signed zero, an infinity, a nan or
# an underflow, besides ordinary values
Q_EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-200, -1e-200, 1e200, -2.25, 0.75])


def test_harmonic_value():
    assert potential_eval(harmonic(1.0, 1.0), 2.0) == 2.0


def test_quartic_zero():
    assert potential_eval(quartic(1.0), 0.0) == 0.0


def test_mildly_anharmonic_value():
    m = mildly_anharmonic(1.0, 1.0, c3=0.1, c4=0.01)
    assert potential_eval(m, 1.0) == pytest.approx(0.61, abs=1e-15)


def _force(model, q):
    """force_fn(model) at q, into a fresh array."""
    q = np.asarray(q, dtype=float)
    return force_fn(model)(q, np.empty_like(q))


def test_grad_harmonic():
    assert _force(harmonic(1.0, 2.0), 1.0) == -4.0


def test_grad_even_at_origin():
    for m in (harmonic(), mildly_anharmonic(c3=0.0, c4=0.3), quartic(2.0)):
        assert _force(m, 0.0) == 0.0


def test_grad_quartic_finite_difference():
    m = quartic(2.0)
    h = 1e-5
    fd = (potential_eval(m, 1.0 + h) - potential_eval(m, 1.0 - h)) / (2 * h)
    g = -_force(m, 1.0)
    assert g == pytest.approx(2.0, rel=1e-9)
    assert g == pytest.approx(fd, rel=1e-8)


@pytest.mark.parametrize("model", [
    harmonic(1.0, 1.0),
    harmonic(2.5, 0.7),
    mildly_anharmonic(1.0, 1.0, c3=0.1, c4=0.01),
    mildly_anharmonic(1.3, 2.0, c3=-0.2, c4=0.05),
    quartic(4.0, mass=2.0),
])
def test_grad_matches_finite_difference_grid(model):
    q = np.linspace(-5.0, 5.0, 101)
    h = 1e-5
    fd = (potential_eval(model, q + h) - potential_eval(model, q - h)) / (2 * h)
    g = -_force(model, q)
    scale = np.maximum(np.abs(g), 1.0)
    assert np.all(np.abs(g - fd) / scale <= 1e-8)


@pytest.mark.parametrize("model", [
    harmonic(1.3, 0.7),
    mildly_anharmonic(1.0, 1.0, c3=0.3, c4=0.1),
    mildly_anharmonic(1.0, 1.0, c3=0.0, c4=0.05),
    quartic(4.0, mass=2.0),
])
def test_checked_eval_is_the_hot_path_evaluator(model):
    # potential_eval adds only the finite check to the evaluator the sampler
    # uses: equal bit for bit
    q = np.random.default_rng(5).normal(scale=3.0, size=257)
    assert potential_eval(model, q).tobytes() == potential_fn(model)(q).tobytes()


@pytest.mark.parametrize("model", [
    harmonic(1.3, 0.7),
    mildly_anharmonic(1.0, 1.0, c3=0.3, c4=0.1),
    mildly_anharmonic(1.0, 1.0, c3=0.0, c4=0.05),
    quartic(4.0, mass=2.0),
])
def test_potential_out_form_is_bit_identical(model):
    # the constrained sampler evaluates V into a reused buffer
    q = np.random.default_rng(6).normal(scale=3.0, size=(33, 16))
    buf = np.full_like(q, np.nan)
    assert potential_fn(model)(q, out=buf) is buf
    assert buf.tobytes() == potential_fn(model)(q).tobytes()
    # without out, the result keeps the layout of q (mixed layouts are slow)
    assert potential_fn(model)(q.T).flags.f_contiguous


def _grad_reference(model):
    """dV/dq formed as ((4 v4 q + 3 v3) q + 2 v2) q, with the harmonic and the
    pure quartic well's own shorter forms."""
    v2, v3, v4 = model.poly_coefficients()
    if v3 == 0.0 and v4 == 0.0:
        return lambda q: 2.0 * v2 * q
    if v2 == 0.0 and v3 == 0.0:
        return lambda q: 4.0 * v4 * q * q * q
    return lambda q: ((4.0 * v4 * q + 3.0 * v3) * q + 2.0 * v2) * q


@pytest.mark.parametrize("model", [
    harmonic(1.3, 0.7),
    mildly_anharmonic(1.0, 1.0, c3=0.3, c4=0.1),
    mildly_anharmonic(1.0, 1.0, c3=-0.2, c4=0.05),
    mildly_anharmonic(1.0, 1.0, c3=0.0, c4=0.05),
    quartic(4.0, mass=2.0),
])
def test_force_is_the_negated_gradient_bit_for_bit(model):
    # the propagator's force in the out= form is -(dV/dq) of every bit,
    # signed zeros included
    q = np.random.default_rng(7).normal(scale=3.0, size=(33, 16))
    q[0, :3] = 0.0, -0.0, -1e-200
    q[1] = -np.abs(q[1])
    buf = np.full_like(q, np.nan)
    assert force_fn(model)(q, buf) is buf
    assert buf.tobytes() == (-_grad_reference(model)(q)).tobytes()


@pytest.mark.parametrize("coeffs, by_hand", [
    ([2.0, 3.0], lambda q: np.add(np.multiply(2.0, q), 3.0)),
    ([0.0, -1.5, 0.25],
     lambda q: np.add(np.multiply(np.add(np.multiply(0.0, q), -1.5), q), 0.25)),
    ([2.0, None, 3.0, None],
     lambda q: np.multiply(np.add(np.multiply(np.multiply(2.0, q), q), 3.0), q)),
    ([-0.5, None, None], lambda q: np.multiply(np.multiply(-0.5, q), q)),
], ids=["linear", "leading_zero", "multiply_only_steps", "all_multiply_only"])
@pytest.mark.parametrize("q", [Q_EDGES, np.random.default_rng(9).normal(scale=3.0, size=(4, 7)),
                               np.array(-0.0), np.array(np.nan)],
                         ids=["edges", "random_2d", "0d_negative_zero", "0d_nan"])
def test_horner_is_its_ufuncs_written_out(coeffs, by_hand, q):
    # each step is one ufunc in the documented order, a None step only
    # multiplies, and out changes no bit
    out = np.full_like(q, 7.0)
    with np.errstate(all="ignore"):
        want = np.asarray(by_hand(q)).tobytes()
        got = horner(coeffs, q)
        assert horner(coeffs, q, out) is out
    assert got.shape == q.shape and got.tobytes() == want
    assert out.tobytes() == want


def test_horner_takes_array_coefficients():
    # one cubic per point, as the CMD force spline passes them; coefficients
    # may also broadcast, one per row
    rng = np.random.default_rng(10)
    q = rng.normal(size=(3, len(Q_EDGES)))
    q[0] = Q_EDGES
    a, b, c, d = rng.normal(size=(4,) + q.shape)
    b[1, :2] = 0.0, -0.0
    rows = a[:, :1]
    with np.errstate(all="ignore"):
        want = np.add(np.multiply(np.add(np.multiply(np.add(np.multiply(a, q), b), q), c), q), d)
        assert horner(np.stack([a, b, c, d]), q).tobytes() == want.tobytes()
        want = np.add(np.multiply(np.multiply(rows, q), q), d)
        assert horner([rows, None, d], q).tobytes() == want.tobytes()
        # q itself leads, as a position observable passes it; with no step
        # the value is that coefficient, and out is not written
        assert horner([q, None], q).tobytes() == np.multiply(q, q).tobytes()
        out = np.full_like(q, 7.0)
        assert horner([q], q, out) is q and (out == 7.0).all()


def test_bounded_below():
    # quartic-dominated wells grow at the sampling boundary used by the package
    for m in (quartic(0.5), mildly_anharmonic(c3=0.4, c4=0.2)):
        q = 10.0 * max(1.0, 1.0 / m.omega)
        assert potential_eval(m, q) > 0
        assert potential_eval(m, -q) > 0


def test_nonfinite_rejected():
    m = harmonic()
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            potential_eval(m, bad)


def test_model_validation():
    with pytest.raises(ValueError):
        PotentialModel("harmonic", mass=-1.0)
    with pytest.raises(ValueError):
        PotentialModel("harmonic", omega=0.0)
    with pytest.raises(ValueError):
        PotentialModel("quartic", a4=0.0)
    with pytest.raises(ValueError):
        PotentialModel("mildly_anharmonic", c4=-0.1)
    with pytest.raises(ValueError):
        PotentialModel("mildly_anharmonic", c3=0.1, c4=0.0)  # unbounded below
    with pytest.raises(ValueError):
        PotentialModel("unknown")


@pytest.mark.parametrize("make, name", [
    (lambda: harmonic(1.0, 1e-200), "omega = 1e-200"),
    (lambda: mildly_anharmonic(1.0, 1e-200), "omega = 1e-200"),  # c3 = c4 = 0
    (lambda: quartic(5e-324), "a4 = 5e-324"),
    (lambda: harmonic(1.0, 1e200), "omega = 1e+200"),
    (lambda: harmonic(1e308, 2.0), "mass = 1e+308"),
], ids=["harmonic", "mildly_anharmonic", "quartic", "omega_squared_overflows",
        "coefficient_overflows"])
def test_well_whose_coefficients_under_or_overflow_rejected(make, name):
    # 0.5 m omega^2 or a4 / 4 rounds to 0 (V = 0 has no leading coefficient)
    # or past the float range: the model refuses it and names the parameter
    with pytest.raises(ValueError, match="the coefficients of V under- or overflow at .*"
                       + re.escape(name)):
        make()


@pytest.mark.parametrize("kind, params, key, default", [
    ("harmonic", {"c4": 0.1}, "c4", 0.0),
    ("quartic", {"a4": 1.0, "omega": 3.0}, "omega", 1.0),
])
def test_parameter_of_another_kind_rejected(kind, params, key, default):
    # a well is described one way: a parameter its kind does not use keeps
    # its default, or the model names it and refuses
    with pytest.raises(ValueError, match=f"{key} is not a parameter of kind {kind!r}"):
        PotentialModel(kind, **params)
    assert PotentialModel(kind, **{**params, key: default}) == PotentialModel(
        kind, **{k: v for k, v in params.items() if k != key})


def test_thermo_validation():
    ThermoParams(1.0, 1)
    with pytest.raises(ValueError):
        ThermoParams(0.0, 4)
    with pytest.raises(ValueError):
        ThermoParams(1.0, 0)
    with pytest.raises(ValueError):
        ThermoParams(1.0, 4, hbar=0.0)


# a constructor taking one count or seed, and the field it sets
COUNTS = [
    (lambda n: ThermoParams(1.0, n), "n_beads"),
    (lambda n: SamplerConfig(n, seed=1), "n_samples"),
    (lambda n: SamplerConfig(64, seed=n), "seed"),
    (lambda n: SamplerConfig(64, seed=1, burn_in=n), "burn_in"),
    (lambda n: SamplerConfig(64, seed=1, decorrelation_stride=n), "decorrelation_stride"),
    (lambda n: SamplerConfig(64, seed=1, n_walkers=n), "n_walkers"),
    (lambda n: IntegratorConfig(0.05, n), "n_steps"),
    (lambda n: GridSpec(-8.0, 8.0, n), "n_points"),
]


@pytest.mark.parametrize("make, field", COUNTS, ids=[field for _, field in COUNTS])
def test_counts_and_seeds_must_be_integers(make, field):
    # a non-integral count or seed is refused where it is set, not later in
    # a run (a seed of 1.5 drew the streams of seed 1); numpy integers pass
    for bad in (64.0, 64.5, np.float64(64.0), "64"):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            make(bad)
    for good in (64, np.int64(64), np.uint16(64)):
        assert getattr(make(good), field) == 64


def test_omega_n():
    assert ThermoParams(2.0, 8, hbar=1.0).omega_n == 4.0
