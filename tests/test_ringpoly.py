import numpy as np
import pytest

from pimd_kubo import (OBS_P, OBS_Q, OBS_Q2, OBS_Q3, Observable, ThermoParams,
                       free_rp_frequencies, harmonic, log_ring_density, normal_mode_transform,
                       observable_from_label, spring_energy)
from pimd_kubo._stats import CHUNK_ELEMENTS
from pimd_kubo.ringpoly import bond_midpoints, normal_mode_matrix


def _centroid(obs, x, p=None):
    """obs.centroid of one ring given as bead lists (momenta zero when omitted)."""
    x = np.asarray(x, dtype=float)
    return float(obs.centroid(x, np.zeros_like(x) if p is None else np.asarray(p, float)))


def test_centroid_position():
    assert _centroid(OBS_Q, [1.0, 2.0, 3.0]) == 2.0
    assert _centroid(OBS_Q, [4.2] * 7) == pytest.approx(4.2)
    assert _centroid(OBS_Q, [-1.0, 1.0]) == 0.0
    # one value per row of an (n, N) ensemble
    rows = np.array([[1.0, 3.0], [-2.0, 0.0], [5.0, 5.0]])
    assert OBS_Q.centroid(rows, np.zeros_like(rows)).tolist() == [2.0, -1.0, 5.0]


def test_centroid_observable():
    assert _centroid(Observable.position((1, None, None), "q2"), [1.0, 2.0]) == 2.5
    a = 1.7
    assert _centroid(Observable.position((1, None, None, None), "q3"), [-a, a]) == 0.0
    # a position observable never reads the momenta
    assert _centroid(OBS_Q, [1.0, 2.0], [10.0, 20.0]) == 1.5


def test_centroid_momentum():
    assert _centroid(OBS_P, [0.0, 0.0], [2.0, 4.0]) == 3.0
    assert _centroid(OBS_P, [1.0] * 5, [0.0] * 5) == 0.0


def test_observable_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown observable kind"):
        Observable("spin", "s")


def _frozen_poly(coeffs):
    """The poly: observable's own Horner loop before it ran model.horner, frozen."""
    _c = np.array(coeffs, dtype=float)

    def poly(q, out=None):
        out = np.multiply(q, 0.0, out=out)
        out += _c[-1]
        for c in _c[-2::-1]:
            out *= q
            out += c
        return out

    return poly


# the built-in labels' forms before they ran model.horner: q and q2 keep
# their bits, and q3 is (q q) q in place of np.power
_FROZEN_BUILTIN = {"q": lambda q: q, "q2": lambda q: np.multiply(q, q), "q3": lambda q: q * q * q}


@pytest.mark.parametrize("label", ["q", "q2", "q3"] + [
    f"poly:{c}" for c in ["0.3,-1.2,0.7", "0,0,1", "2.5", "-0.0", "1.5,0,-0.0,2,-0.25"]],
    ids=lambda label: label.removeprefix("poly:"))
def test_poly_observable_keeps_its_loop_bits(label):
    f = observable_from_label(label).f
    ref = _FROZEN_BUILTIN.get(label) or _frozen_poly([float(c) for c in label[5:].split(",")])
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-200, -1e-200, 1e200, -3.5, 0.75])
    rows = np.random.default_rng(12).normal(scale=2.0, size=(6, 8))
    for q in (edges, rows, rows.T, np.array(-0.0)):
        out = np.full_like(q, 7.0)
        with np.errstate(all="ignore"):
            want = np.asarray(ref(q)).tobytes()
            assert f(q).tobytes() == want
            got = f(q, out)
            if label == "q3":
                np.testing.assert_array_max_ulp(got, np.power(q, 3), maxulp=1)
        # q is returned itself, every other label is written into out
        assert got is (q if label == "q" else out)
        assert got.tobytes() == want


def test_bond_midpoint_resummation():
    # (1/N) sum (p_k + p_{k+1})/2 telescopes to the plain centroid on a ring
    rng = np.random.default_rng(11)
    p = rng.normal(size=12)
    mid = 0.5 * (p + np.roll(p, -1))
    assert mid.mean() == pytest.approx(p.mean(), abs=1e-14)


@pytest.mark.parametrize("shape", [(1, 16), (CHUNK_ELEMENTS // 16, 16),
                                   (5 * CHUNK_ELEMENTS // 32, 16), (5, 8192, 16),
                                   (3, CHUNK_ELEMENTS + 1)],
                         ids=["one_row", "budget", "2.5_budgets", "batch_3d", "row_over_budget"])
@pytest.mark.parametrize("obs", [OBS_Q, OBS_Q2, OBS_Q3, observable_from_label("poly:0.3,-1.2,0.7")],
                         ids=["q", "q2", "q3", "poly"])
def test_chunked_centroid_equals_full_mean(obs, shape):
    # rows go through f in chunks of the element budget; every ring's value
    # keeps the bits of the bead mean over the whole array at once
    rng = np.random.default_rng(12)
    x = rng.normal(size=shape)
    x.reshape(-1, shape[-1])[0] = -0.0
    got = obs.centroid(x, None)
    want = obs.f(x).mean(axis=-1)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_centroid_holds_chunk_temporaries_only(traced_peak):
    # the q2 values of a (65536, 32) ensemble, 16 MB, are never formed at
    # once: the traced peak stays within the output plus two chunk
    # temporaries (f of a chunk and its bead mean)
    x = np.random.default_rng(13).normal(size=(65536, 32))
    peak = traced_peak(OBS_Q2.centroid, x, None)
    assert peak < 65536 * 8 + 2 * 8 * CHUNK_ELEMENTS


def test_bond_midpoints_in_place_keeps_the_bits():
    rng = np.random.default_rng(14)
    p = rng.normal(size=(33, 7))
    p[0, 0] = -0.0
    want = 0.5 * (p + np.roll(p, -1, axis=1))
    assert bond_midpoints(p).tobytes() == want.tobytes()
    assert bond_midpoints(p, out=p) is p
    assert p.tobytes() == want.tobytes()


def test_cyclic_permutation_invariance():
    rng = np.random.default_rng(5)
    x, p = rng.normal(size=(2, 8))
    th = ThermoParams(1.3, 8)
    m = harmonic(1.1, 0.9)
    base = (_centroid(OBS_Q, x, p), _centroid(OBS_P, x, p), spring_energy(x, m, th))
    for shift in range(1, 8):
        xs, ps = np.roll(x, shift), np.roll(p, shift)
        assert _centroid(OBS_Q, xs, ps) == pytest.approx(base[0], abs=1e-14)
        assert _centroid(OBS_P, xs, ps) == pytest.approx(base[1], abs=1e-14)
        assert spring_energy(xs, m, th) == pytest.approx(base[2], rel=1e-13)


def test_spring_energy_examples():
    m = harmonic(1.0, 1.0)
    th = ThermoParams(1.0, 2)
    assert spring_energy(np.array([0.0, 1.0]), m, th) == pytest.approx(4.0)
    th8 = ThermoParams(0.7, 8)
    assert spring_energy(np.full(8, 2.5), m, th8) == 0.0
    assert spring_energy(np.array([3.0]), m, ThermoParams(1.0, 1)) == 0.0


def test_spring_energy_translation_invariance():
    rng = np.random.default_rng(7)
    x = rng.normal(size=16)
    th = ThermoParams(2.0, 16)
    m = harmonic(1.4, 1.0)
    e0 = spring_energy(x, m, th)
    assert spring_energy(x + 5.3, m, th) == pytest.approx(e0, rel=1e-12)


def test_log_ring_density_single_bead():
    m = harmonic(1.0, 1.0)
    val = log_ring_density(np.array([0.0]), m, ThermoParams(1.0, 1))
    assert val == pytest.approx(0.5 * np.log(1.0 / (2.0 * np.pi)), abs=1e-12)
    assert val == pytest.approx(-0.9189385332046727 / 1.0, abs=1e-5)


def test_log_ring_density_spring_exponent():
    # free-ring exponent for N=2, x=(0,1): -(mN/2 beta hbar^2) * 2 bonds = -2
    m = harmonic(1.0, 1.0)
    th = ThermoParams(1.0, 2)
    with_v = log_ring_density(np.array([0.0, 1.0]), m, th)
    pref = 0.5 * 2 * np.log(2.0 / (2.0 * np.pi))
    pot = (1.0 / 2.0) * (0.0 + 0.5)
    assert with_v - pref + pot == pytest.approx(-2.0, abs=1e-12)


def test_log_ring_density_decomposition():
    # log R must equal prefactor - (beta/N) sum V - (beta/N) spring_energy
    from pimd_kubo import potential_eval

    rng = np.random.default_rng(13)
    m = harmonic(1.3, 0.8)
    th = ThermoParams(1.7, 6)
    for _ in range(5):
        x = rng.normal(size=6)
        xp = rng.normal(size=6)
        lhs = log_ring_density(x, m, th) - log_ring_density(xp, m, th)
        def parts(y):
            return (-(th.beta / 6) * potential_eval(m, y).sum()
                    - (th.beta / 6) * spring_energy(y, m, th))
        assert lhs == pytest.approx(parts(x) - parts(xp), abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 9, 16, 64])
def test_normal_mode_roundtrip(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    a = normal_mode_transform(x, "forward")
    back = normal_mode_transform(a, "inverse")
    assert np.abs(back - x).max() <= 1e-12


def test_normal_mode_constant_path():
    a = normal_mode_transform(np.full(8, 2.3), "forward")
    assert np.abs(a[1:]).max() <= 1e-13
    assert a[0] == pytest.approx(np.sqrt(8) * 2.3)


def test_transform_diagonalizes_spring_matrix():
    # eigenvalue check: spring matrix -> diag(4 sin^2(k pi / N)) in mode basis
    n = 12
    a = 2.0 * np.eye(n) - np.roll(np.eye(n), 1, axis=1) - np.roll(np.eye(n), -1, axis=1)
    c = normal_mode_matrix(n)
    d = c.T @ a @ c
    k = np.arange(n)
    expect = 4.0 * np.sin(np.pi * k / n) ** 2
    assert np.abs(d - np.diag(expect)).max() <= 1e-12


def test_free_rp_frequencies_single_bead():
    assert free_rp_frequencies(ThermoParams(1.0, 1)).tolist() == [0.0]


def test_free_rp_frequencies_vs_eigen_oracle():
    # compare against direct diagonalization of the cyclic spring matrix
    for n, beta in ((2, 1.0), (4, 1.0), (8, 2.0)):
        th = ThermoParams(beta, n)
        a = 2.0 * np.eye(n) - np.roll(np.eye(n), 1, axis=1) - np.roll(np.eye(n), -1, axis=1)
        evals = np.sort(np.clip(np.linalg.eigvalsh(th.omega_n**2 * a), 0.0, None))
        w = np.sort(free_rp_frequencies(th) ** 2)
        assert np.abs(np.sqrt(evals) - np.sqrt(w)).max() <= 1e-10


def test_free_rp_frequency_values():
    th = ThermoParams(1.0, 4)
    w = free_rp_frequencies(th)
    assert w == pytest.approx([0.0, 5.656854249492381, 8.0, 5.656854249492381])
    th2 = ThermoParams(1.0, 2)
    assert free_rp_frequencies(th2) == pytest.approx([0.0, 4.0])


def test_free_rp_frequency_symmetry():
    w = free_rp_frequencies(ThermoParams(0.9, 15))
    for k in range(1, 15):
        assert w[k] == pytest.approx(w[15 - k], rel=1e-14)

