import numpy as np
import pytest

from pimd_kubo import harmonic, mildly_anharmonic, potential_eval, quartic
from pimd_kubo.model import PotentialModel, ThermoParams, grad_fn, potential_fn


def test_harmonic_value():
    assert potential_eval(harmonic(1.0, 1.0), 2.0) == 2.0


def test_quartic_zero():
    assert potential_eval(quartic(1.0), 0.0) == 0.0


def test_mildly_anharmonic_value():
    m = mildly_anharmonic(1.0, 1.0, c3=0.1, c4=0.01)
    assert potential_eval(m, 1.0) == pytest.approx(0.61, abs=1e-15)


def test_grad_harmonic():
    assert grad_fn(harmonic(1.0, 2.0))(1.0) == 4.0


def test_grad_even_at_origin():
    for m in (harmonic(), mildly_anharmonic(c3=0.0, c4=0.3), quartic(2.0)):
        assert grad_fn(m)(0.0) == 0.0


def test_grad_quartic_finite_difference():
    m = quartic(2.0)
    h = 1e-5
    fd = (potential_eval(m, 1.0 + h) - potential_eval(m, 1.0 - h)) / (2 * h)
    g = grad_fn(m)(1.0)
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
    g = grad_fn(model)(q)
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


def test_omega_n():
    assert ThermoParams(2.0, 8, hbar=1.0).omega_n == 4.0
