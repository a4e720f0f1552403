import json
import os
import resource
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from pimd_kubo._stats import CHUNK_ELEMENTS
from pimd_kubo.errors import ConfigError
from pimd_kubo.ringpoly import observable_from_label
from pimd_kubo.runner import _COMMANDS, main, parse_config, run
from pimd_kubo.sampler import draw_momenta, sample_ring_positions, static_average

MINIMAL_STATIC = """\
[model]
kind = harmonic

[thermo]
beta = 1.0
n_beads = 8

[sampler]
n_samples = 640
burn_in = 64
decorrelation_stride = 2

[run]
command = static
seed = 7
output_dir = {out}
a = q2
"""

SMALL_COMPARE = """\
# small harmonic compare run
[model]
kind = harmonic
mass = 1.0
omega = 1.0

[thermo]
beta = 1.0
n_beads = 8

[sampler]
n_samples = 768
burn_in = 64
decorrelation_stride = 2

[integrator]
dt = 0.05
n_steps = 60

[oracle]
q_min = -12.0
q_max = 12.0
n_points = 640
n_retained = 32

[run]
command = compare
seed = 12
output_dir = {out}
a = q
b = q
"""


def test_parse_minimal_defaults(tmp_path):
    cfg = parse_config(MINIMAL_STATIC.format(out=tmp_path / "o"))
    assert cfg.command == "static"
    assert cfg.sections["thermo"]["hbar"] == 1.0
    assert cfg.sections["sampler"]["burn_in"] == 64
    assert cfg.sections["sampler"]["n_walkers"] == 128
    assert cfg.sections["run"]["blocks"] == 16
    model = cfg.model()
    assert model.kind == "harmonic" and model.mass == 1.0


def test_parse_unknown_key_names_line():
    text = "[model]\nkind = harmonic\nomeg = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "omeg" in str(err.value)
    assert "line 3" in str(err.value)


@pytest.mark.parametrize("key", ["move_scale", "target_acceptance"])
def test_step_size_keys_exit_2_naming_their_line(tmp_path, capsys, key):
    # the sampler proposes from a Gaussian reference and adapts no step size
    text = MINIMAL_STATIC.format(out=tmp_path / "o").replace(
        "burn_in = 64\n", f"burn_in = 64\n{key} = 0.5\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == 11 and key in str(err.value)
    path = tmp_path / "old.ini"
    path.write_text(text)
    assert main([str(path), "--quiet"]) == 2
    assert f"line 11: unknown key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_second_minimum_exits_2_before_writing(tmp_path, capsys):
    # c3 = -1, c4 = 0.3 has a second, deeper minimum at q = 2.10, which the
    # Gaussian-reference sampler cannot serve: the run stops at the sampler
    # with the named error and writes nothing
    out = tmp_path / "o"
    text = MINIMAL_STATIC.format(out=out).replace(
        "kind = harmonic", "kind = mildly_anharmonic\nc3 = -1.0\nc4 = 0.3")
    assert run(parse_config(text)) == 2
    assert "second minimum" in capsys.readouterr().err
    assert not out.exists()


def test_parse_unknown_section():
    with pytest.raises(ConfigError) as err:
        parse_config("[banana]\nx = 1\n")
    assert "line 1" in str(err.value)


def test_parse_rejects_wrong_kind_keys():
    text = "[model]\nkind = harmonic\na4 = 2.0\n[thermo]\nbeta=1.0\nn_beads=4\n" \
           "[sampler]\nn_samples=64\n[run]\ncommand = static\nseed = 1\noutput_dir = x\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "a4" in str(err.value)


def test_off_kind_model_key_at_default_and_meta_echo(tmp_path, capsys):
    # a key the kind does not use names the same well at its default; the
    # meta.json echo holds every [model] key with its value and reruns to
    # the same results.csv bytes
    out = tmp_path / "first"
    text = MINIMAL_STATIC.format(out=out).replace("kind = harmonic", "kind = harmonic\nc4 = 0.0")
    assert run(parse_config(text)) == 0
    echo = json.loads((out / "meta.json").read_text())["config"]
    assert echo["model"] == {"kind": "harmonic", "mass": 1.0, "omega": 1.0,
                             "c3": 0.0, "c4": 0.0, "a4": 0.0}
    echo["run"]["output_dir"] = str(tmp_path / "again")
    rerun = "".join(f"[{name}]\n" + "".join(
        f"{key} = {','.join(map(str, v)) if isinstance(v, list) else v}\n"
        for key, v in keys.items() if v is not None) for name, keys in echo.items())
    assert run(parse_config(rerun)) == 0
    assert (tmp_path / "again" / "results.csv").read_bytes() == (out / "results.csv").read_bytes()
    path = tmp_path / "off_kind.ini"
    path.write_text(text.replace("c4 = 0.0", "c4 = 0.1"))
    assert main([str(path), "--quiet"]) == 2
    assert "c4 is not a parameter of kind 'harmonic'" in capsys.readouterr().err


def test_invalid_invariant_cited(tmp_path):
    text = MINIMAL_STATIC.format(out=tmp_path).replace("n_beads = 8", "n_beads = 0")
    path = tmp_path / "bad.ini"
    path.write_text(text)
    status = main([str(path), "--quiet"])
    assert status == 2


def test_missing_section_for_command():
    with pytest.raises(ConfigError) as err:
        parse_config("[run]\ncommand = rpmd\nseed = 1\noutput_dir = x\n")
    assert "requires section" in str(err.value)


def test_static_run_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg = parse_config(MINIMAL_STATIC.format(out=out))
    assert run(cfg) == 0
    assert (out / "results.csv").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["command"] == "static"
    assert "mean" in meta["stats"]
    # value is a plausible <q2> at beta=1, N=8
    line = (out / "results.csv").read_text().splitlines()[1]
    val = float(line.split(",")[1])
    assert 0.9 < val < 1.3


def test_harmonic_static_ignores_burn_in_and_stride(tmp_path):
    # a harmonic well's chain is i.i.d., so its walkers make no burn-in and no
    # stride: the config's values leave results.csv unchanged
    blobs = set()
    for burn_in in (0, 300):
        for stride in (1, 7):
            out = tmp_path / f"b{burn_in}s{stride}"
            text = MINIMAL_STATIC.format(out=out).replace(
                "burn_in = 64", f"burn_in = {burn_in}").replace(
                "decorrelation_stride = 2", f"decorrelation_stride = {stride}")
            assert run(parse_config(text)) == 0
            blobs.add((out / "results.csv").read_bytes())
    assert len(blobs) == 1


def test_malformed_config_exits_2_no_artifacts(tmp_path):
    out = tmp_path / "nothing"
    bad = MINIMAL_STATIC.format(out=out).replace("[model]\nkind = harmonic\n\n", "")
    with pytest.raises(ConfigError):
        parse_config(bad)
    assert not out.exists()


def test_main_exit_codes(tmp_path):
    good = tmp_path / "good.ini"
    good.write_text(MINIMAL_STATIC.format(out=tmp_path / "out"))
    assert main([str(good), "--quiet"]) == 0

    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nomeg = 1\n")
    assert main([str(bad), "--quiet"]) == 2

    assert main([str(tmp_path / "missing.ini"), "--quiet"]) == 2


def test_compare_writes_diff_and_stats(tmp_path):
    out = tmp_path / "cmp"
    cfg = parse_config(SMALL_COMPARE.format(out=out))
    assert run(cfg) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["stats"]["max_diff_over_se"] <= 3.0
    diff = np.loadtxt(out / "diff.csv", delimiter=",", skiprows=1)
    assert diff.shape[1] == 5


def test_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        cfg = parse_config(SMALL_COMPARE.format(out=out))
        assert run(cfg) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "diff.csv").read_bytes() == (out2 / "diff.csv").read_bytes()


def test_worker_count_invariance(tmp_path, monkeypatch):
    blobs = {}
    for w in ("1", "3"):
        out = tmp_path / f"w{w}"
        monkeypatch.setenv("PIMD_KUBO_THREADS", w)
        cfg = parse_config(SMALL_COMPARE.format(out=out))
        assert run(cfg) == 0
        blobs[w] = (out / "results.csv").read_bytes()
    assert blobs["1"] == blobs["3"]


def test_runtime_error_exit_3(tmp_path, capsys):
    # CMD run whose tabulated range cannot contain the sampled trajectories
    text = SMALL_COMPARE.format(out=tmp_path / "ge").replace(
        "command = compare", "command = cmd").replace(
        "[oracle]", "[oracle]\n# unused\n")
    text += "table_min = -0.2\ntable_max = 0.2\ntable_nodes = 5\n"
    cfg = parse_config(text)
    status = run(cfg)
    assert status == 3
    assert "runtime error: GridEscape: " in capsys.readouterr().err
    assert not (tmp_path / "ge" / "results.csv").exists()


# a force table wide enough for every trajectory of SMALL_COMPARE's ensemble
WIDE_TABLE = "table_min = -6.0\ntable_max = 6.0\ntable_nodes = 13\n"


def test_cmd_command_writes_force_table(tmp_path):
    out = tmp_path / "cmd"
    text = SMALL_COMPARE.format(out=out).replace("command = compare", "command = cmd")
    assert run(parse_config(text + WIDE_TABLE)) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["artifacts"] == ["force_table.csv", "results.csv"]
    table = np.loadtxt(out / "force_table.csv", delimiter=",", skiprows=1)
    # the harmonic mean force is -m w^2 q_c, exactly: the centroid is pinned
    assert np.array_equal(table[:, 0], np.linspace(-6.0, 6.0, 13))
    assert np.abs(table[:, 1] + table[:, 0]).max() <= 1e-12
    series = np.loadtxt(out / "results.csv", delimiter=",", skiprows=1)
    assert series.shape == (61, 3)
    assert abs(series[0, 1] - 1.0) <= 4.0 * series[0, 2]  # <q_c^2> = 1 / (beta m w^2)


def test_compare_cmd_writes_diff(tmp_path):
    # CMD is exact for linear A and B in a harmonic well
    out = tmp_path / "cmpcmd"
    text = SMALL_COMPARE.format(out=out) + "method = cmd\n" + WIDE_TABLE
    assert run(parse_config(text)) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["artifacts"] == ["diff.csv", "results.csv"]
    assert meta["stats"]["max_diff_over_se"] <= 4.0
    diff = np.loadtxt(out / "diff.csv", delimiter=",", skiprows=1)
    assert diff.shape == (61, 5)


def test_no_writes_outside_output_dir(tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    out = tmp_path / "only_here"
    cfg = parse_config(MINIMAL_STATIC.format(out=out))
    assert run(cfg) == 0
    assert os.listdir(workdir) == []


def test_spectrum_command(tmp_path):
    out = tmp_path / "spec"
    text = SMALL_COMPARE.format(out=out).replace("command = compare", "command = spectrum")
    text += "method = oracle\n"
    cfg = parse_config(text)
    assert run(cfg) == 0
    data = np.loadtxt(out / "results.csv", delimiter=",", skiprows=1)
    # t column holds angular frequency; peak near omega = 1
    peak = data[np.argmax(data[:, 1]), 0]
    assert abs(peak - 1.0) <= 2.0 * (data[1, 0] - data[0, 0])


def test_convergence_command(tmp_path):
    out = tmp_path / "conv"
    text = SMALL_COMPARE.format(out=out).replace("command = compare", "command = convergence")
    text = text.replace("n_samples = 256", "n_samples = 20000")
    text += "n_values = 4,8\n"
    cfg = parse_config(text)
    assert run(cfg) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["stats"]["exact"] == pytest.approx(1.08198, abs=1e-4)
    assert len(meta["stats"]["errors"]) == 2


def test_cubic_only_well_exits_2_before_sampling(tmp_path, monkeypatch, capsys):
    # c3 != 0 with c4 = 0 is unbounded below: the model is rejected before
    # any sampler runs, not by the centroid quadrature after sampling
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        raise AssertionError("sampler called")

    for target in ("pimd_kubo.runner.sample_ring_positions",
                   "pimd_kubo.runner.sample_static_average"):
        monkeypatch.setattr(target, counted)
    out = tmp_path / "cubic"
    text = SMALL_COMPARE.format(out=out).replace("command = compare", "command = convergence")
    text = text.replace("kind = harmonic", "kind = mildly_anharmonic\nc3 = 0.1")
    text += "n_values = 4,8\n"
    path = tmp_path / "cubic.ini"
    path.write_text(text)
    assert main([str(path), "--quiet"]) == 2
    assert "unbounded below" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_ensemble_dump(tmp_path):
    out = tmp_path / "ens"
    text = MINIMAL_STATIC.format(out=out) + "dump_ensemble = true\n"
    cfg = parse_config(text)
    assert run(cfg) == 0
    header = (out / "ensemble.csv").read_text().splitlines()[0]
    assert header == ",".join(f"x_{k}" for k in range(1, 9))


def test_trajectory_dump(tmp_path):
    out = tmp_path / "traj"
    text = SMALL_COMPARE.format(out=out).replace("command = compare", "command = rpmd")
    text += "dump_trajectory = true\n"
    cfg = parse_config(text)
    assert run(cfg) == 0
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("t,x0,p0")


def test_trajectory_dump_samples_once(tmp_path, monkeypatch):
    # the dumped trajectory is the correlator's first one: one sampler call
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return sample_ring_positions(*args, **kwargs)

    for module in ("pimd_kubo.estimators", "pimd_kubo.runner"):
        monkeypatch.setattr(f"{module}.sample_ring_positions", counted)
    out = tmp_path / "traj1"
    text = SMALL_COMPARE.format(out=out).replace("command = compare", "command = rpmd")
    text += "dump_trajectory = true\n"
    cfg = parse_config(text)
    assert run(cfg) == 0
    assert len(calls) == 1
    traj = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    x0 = sample_ring_positions(cfg.model(), cfg.thermo(), cfg.sampler())[0]
    assert traj[0, 1] == x0.mean()


NONFINITE_RPMD = """\
[model]
kind = quartic
a4 = 1.0

[thermo]
beta = 1.0
n_beads = 8

[sampler]
n_samples = 256
burn_in = 64
decorrelation_stride = 2

[integrator]
dt = 2.0
n_steps = 50

[run]
command = rpmd
seed = 3
output_dir = {out}
"""


def test_nonfinite_rpmd_exits_3(tmp_path, capsys):
    # dt = 2 blows the quartic trajectories up; the run must not exit 0
    out = tmp_path / "nan"
    cfg = parse_config(NONFINITE_RPMD.format(out=out))
    assert run(cfg) == 3
    assert "NonFiniteResult" in capsys.readouterr().err
    assert not out.exists()


def test_failing_rpmd_run_leaves_no_worker_process(tmp_path, monkeypatch, capsys):
    # 256 beads make two chunks of 128 rings, propagated in two worker
    # processes; the run exits 3, and every worker has been reaped
    monkeypatch.setenv("PIMD_KUBO_THREADS", "2")
    text = NONFINITE_RPMD.replace("n_beads = 8", "n_beads = 256")
    assert run(parse_config(text.format(out=tmp_path / "nan"))) == 3
    assert "NonFiniteResult" in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("command, edit, extra", [
    ("spectrum", {}, "method = rpmd\nwindow = hamming\n"),
    ("rpmd", {}, "momentum_convention = midpoint\n"),
    ("cmd", {}, "a = q2\n"),
    ("compare", {}, "method = classical\n"),
    ("cmd", {"n_samples = 768": "n_samples = 16"}, ""),
    ("static", {"n_samples = 768": "n_samples = 64"}, "blocks = 64\n"),
    ("static", {}, "blocks = 0\n"),
    ("static", {}, "blocks = 1\n"),
    ("static", {}, "blocks = -3\n"),
    ("cmd", {}, "table_nodes = 1\n"),
    ("cmd", {}, "table_min = 2.0\ntable_max = 2.0\n"),
    ("compare", {"n_retained = 32": "n_retained = 0"}, ""),
    ("compare", {"n_retained = 32": "n_retained = 641"}, ""),
    ("convergence", {}, "n_values = 8, 0\n"),
    ("convergence", {}, "n_values =\n"),
    ("rpmd", {}, "a = poly:1,x\n"),
    ("compare", {}, "a = poly:nan\n"),
    ("rpmd", {}, "a = poly:1,inf\n"),
    ("cmd", {"seed = 12": "seed = -1"}, ""),
    ("convergence", {"seed = 12": "seed = 18446744073709551616"}, ""),
    ("convergence", {}, "a = bogus\n"),
    ("convergence", {"b = q\n": "b = poly:nan\n"}, ""),
    ("rpmd", {"kind = harmonic\nmass = 1.0\nomega = 1.0": "kind = quartic\na4 = 1.0",
              "dt = 0.05": "dt = inf"}, ""),
], ids=["unknown_key_window", "unknown_key_momentum_convention", "cmd_nonlinear_a", "method",
        "cmd_n_samples", "static_n_samples_below_blocks", "blocks_0", "blocks_1", "blocks_negative",
        "table_nodes_1", "table_min_not_below_max", "n_retained_0", "n_retained_above_n_points",
        "n_values_zero", "n_values_empty", "poly_bad_coefficient", "poly_nan_coefficient",
        "poly_inf_coefficient", "cmd_seed_negative",
        "convergence_seed_2_64", "convergence_bad_a", "convergence_nan_b", "quartic_dt_inf"])
def test_bad_run_value_exits_2_before_sampling(tmp_path, monkeypatch, capsys, command, edit,
                                               extra):
    # a value the run cannot use is a config fault, found before any sampler
    # or oracle runs
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        raise AssertionError("sampler or oracle called")

    for target in ("pimd_kubo.estimators.sample_ring_positions",
                   "pimd_kubo.runner.sample_ring_positions",
                   "pimd_kubo.runner.sample_static_average",
                   "pimd_kubo.dynamics.sample_ring_positions_constrained",
                   "pimd_kubo.runner.diagonalize"):
        monkeypatch.setattr(target, counted)
    out = tmp_path / "bad"
    text = SMALL_COMPARE.format(out=out).replace("command = compare", f"command = {command}")
    text = text.replace("a = q\n", "") + extra
    for old, new in edit.items():
        text = text.replace(old, new)
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main([str(path), "--quiet"]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("edit", [{"n_points = 640": "n_points = 32"},
                                  {"q_min = -12.0": "q_min = 12.0"},
                                  {"q_max = 12.0": "q_max = inf"}],
                         ids=["n_points_32", "q_min_not_below_q_max", "q_max_inf"])
def test_bad_oracle_grid_exits_2_before_sampling(tmp_path, monkeypatch, capsys, edit):
    # the [oracle] grid is built at parse time, so compare fails before the
    # method run that precedes the oracle
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        raise AssertionError("initial conditions drawn")

    monkeypatch.setattr("pimd_kubo.runner.rpmd_initial_conditions", counted)
    out = tmp_path / "grid"
    text = SMALL_COMPARE.format(out=out)
    for old, new in edit.items():
        text = text.replace(old, new)
    path = tmp_path / "grid.ini"
    path.write_text(text)
    assert main([str(path), "--quiet"]) == 2
    assert "invalid oracle grid" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("method", ["rpmd", "cmd"])
@pytest.mark.parametrize("edit, message", [
    ({"q_min = -12.0": "q_min = -3.0", "q_max = 12.0": "q_max = 3.0", "n_points = 640":
      "n_points = 128"}, "at the grid edge"),
    ({"n_retained = 32": "n_retained = 4"}, "retain more states"),
    ({"n_points = 640": "n_points = 64", "n_retained = 32": "n_retained = 4"}, "de Broglie"),
], ids=["leaking_grid", "too_few_states", "unresolved_grid"])
def test_oracle_fault_exits_2_before_sampling(tmp_path, monkeypatch, capsys, edit, message,
                                              method):
    # compare runs the oracle first, so a grid that the built GridSpec accepts
    # but that cannot hold the thermal states exits 2 before any draw
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        raise AssertionError("initial conditions drawn")

    for target in ("pimd_kubo.runner.rpmd_initial_conditions",
                   "pimd_kubo.runner.build_centroid_force_table"):
        monkeypatch.setattr(target, counted)
    out = tmp_path / "fault"
    text = SMALL_COMPARE.format(out=out) + f"method = {method}\n"
    for old, new in edit.items():
        text = text.replace(old, new)
    path = tmp_path / "fault.ini"
    path.write_text(text)
    assert main([str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    assert calls == []
    assert not out.exists()


def test_underflowing_well_exits_2(tmp_path, capsys):
    # every coefficient of V rounds to 0: a fault of [model], found at parse
    out = tmp_path / "flat"
    path = tmp_path / "flat.ini"
    path.write_text(MINIMAL_STATIC.format(out=out).replace("kind = harmonic",
                                                           "kind = harmonic\nomega = 1e-200"))
    assert main([str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "omega = 1e-200" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["rpmd", "cmd"])
def test_too_coarse_dt_exits_2_before_sampling(tmp_path, monkeypatch, capsys, command):
    # dt * omega = 0.6 breaks the integrator's accuracy bound: a fault of the
    # config, found before any sampler runs (for cmd, the force table's)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        raise AssertionError("sampler called")

    for target in ("pimd_kubo.estimators.sample_ring_positions",
                   "pimd_kubo.runner.sample_ring_positions",
                   "pimd_kubo.dynamics.sample_ring_positions_constrained"):
        monkeypatch.setattr(target, counted)
    out = tmp_path / "coarse"
    text = SMALL_COMPARE.format(out=out).replace("command = compare", f"command = {command}")
    text = text.replace("n_beads = 8", "n_beads = 4").replace("dt = 0.05", "dt = 0.6")
    assert run(parse_config(text)) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "dt * omega" in err
    assert calls == []
    assert not out.exists()


def test_poly_label_matches_builtin(tmp_path):
    # poly:c0,c1,... is sum_k c_k q^k; numpy's polyval forms 0 + (0 + 1 q) q,
    # which is q q bit for bit, so the run equals a = q2 byte for byte
    results = []
    for a in ("q2", "poly:0,0,1"):
        out = tmp_path / a.replace(":", "_").replace(",", "_")
        text = SMALL_COMPARE.format(out=out).replace("command = compare", "command = rpmd")
        assert run(parse_config(text.replace("a = q\n", f"a = {a}\n"))) == 0
        results.append((out / "results.csv").read_bytes())
    assert results[0] == results[1]


def test_output_dir_flag_overrides_config(tmp_path):
    # --output-dir replaces the config's output_dir everywhere it is read:
    # the artifacts land in the flag's directory, and meta.json echoes it
    path = tmp_path / "static.ini"
    path.write_text(MINIMAL_STATIC.format(out=tmp_path / "from_config"))
    flag = tmp_path / "from_flag"
    assert main([str(path), "--output-dir", str(flag), "--quiet"]) == 0
    assert (flag / "results.csv").exists()
    assert json.loads((flag / "meta.json").read_text())["config"]["run"]["output_dir"] == str(flag)
    assert not (tmp_path / "from_config").exists()


def test_output_dir_under_a_file_exits_3(tmp_path, capsys):
    blocker = tmp_path / "plain_file"
    blocker.write_text("not a directory\n")
    cfg = parse_config(MINIMAL_STATIC.format(out=blocker / "out"))
    assert run(cfg) == 3
    assert "runtime error: NotADirectoryError" in capsys.readouterr().err


def test_static_momentum_is_centroid_momentum(tmp_path):
    # <p> vanishes in any well; with c3 != 0 the position centroid does not,
    # so averaging the position ensemble as "p" shows up at once
    out = tmp_path / "p"
    text = MINIMAL_STATIC.format(out=out).replace(
        "kind = harmonic", "kind = mildly_anharmonic\nc3 = 0.3\nc4 = 0.1").replace(
        "a = q2", "a = p")
    cfg = parse_config(text)
    assert run(cfg) == 0
    meta = json.loads((out / "meta.json").read_text())
    mean, se = meta["stats"]["mean"], meta["stats"]["std_error"]
    assert se > 0 and abs(mean) <= 3.0 * se


def test_static_momentum_skips_position_sampler(tmp_path, monkeypatch):
    # <p> comes from the exact momentum draw; positions are sampled only for
    # the ensemble dump, and results.csv is the same either way
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return sample_ring_positions(*args, **kwargs)

    monkeypatch.setattr("pimd_kubo.runner.sample_ring_positions", counted)
    text = MINIMAL_STATIC.replace("a = q2", "a = p")
    assert run(parse_config(text.format(out=tmp_path / "p"))) == 0
    assert calls == []
    dumped = tmp_path / "p_dump"
    assert run(parse_config(text.format(out=dumped) + "dump_ensemble = true\n")) == 0
    assert calls == [1]
    assert (tmp_path / "p" / "results.csv").read_bytes() == (dumped / "results.csv").read_bytes()
    assert (dumped / "ensemble.csv").exists()


@pytest.mark.parametrize("a", ["q2", "q3"])
def test_static_dump_keeps_results(tmp_path, a):
    # with the dump the estimator runs on the held rings, without it on the
    # rows as they are drawn: the same values, so the same results.csv
    text = MINIMAL_STATIC.replace("a = q2", f"a = {a}").replace(
        "kind = harmonic", "kind = mildly_anharmonic\nc3 = 0.3\nc4 = 0.1")
    assert run(parse_config(text.format(out=tmp_path / "plain"))) == 0
    assert run(parse_config(text.format(out=tmp_path / "dump") + "dump_ensemble = true\n")) == 0
    assert ((tmp_path / "plain" / "results.csv").read_bytes()
            == (tmp_path / "dump" / "results.csv").read_bytes())
    assert (tmp_path / "dump" / "ensemble.csv").exists()


@pytest.mark.parametrize("kind", ["harmonic", "mildly_anharmonic\nc3 = 0.3\nc4 = 0.1"],
                         ids=["harmonic", "c3"])
@pytest.mark.parametrize("a", ["q2", "q", "q3", "poly:0.5,-1,0,2", "p"])
def test_static_run_writes_its_estimator(tmp_path, kind, a):
    # every position label integrates the centroid out of the seed's rings,
    # as convergence does for q2; p is the bead mean of the momentum draw
    out = tmp_path / "out"
    config = parse_config(MINIMAL_STATIC.format(out=out).replace(
        "kind = harmonic", f"kind = {kind}").replace("a = q2", f"a = {a}\nblocks = 8"))
    assert run(config) == 0
    model, thermo, scfg = config.model(), config.thermo(), config.sampler()
    rows = draw_momenta(model, thermo, scfg) if a == "p" else sample_ring_positions(
        model, thermo, scfg)
    want = static_average(observable_from_label(a), rows, model, thermo, 8)
    stats = json.loads((out / "meta.json").read_text())["stats"]
    assert np.array([stats["mean"], stats["std_error"]]).tobytes() == np.array(want).tobytes()
    assert (out / "results.csv").read_text().splitlines()[1] == f"0.0,{want[0]!r},{want[1]!r}"


def test_meta_counts_each_warning_once(tmp_path, monkeypatch):
    # each distinct message once, with its count, in first-seen order; the
    # warnings draw nothing and change no byte of results.csv
    assert run(parse_config(MINIMAL_STATIC.format(out=tmp_path / "quiet"))) == 0
    sections, static = _COMMANDS["static"]

    def warning_static(config, stats):
        for message in ("first", "second", "first"):
            warnings.warn(message)
        return static(config, stats)

    monkeypatch.setitem(_COMMANDS, "static", (sections, warning_static))
    out = tmp_path / "warned"
    assert run(parse_config(MINIMAL_STATIC.format(out=out))) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["warnings"] == [{"message": "first", "count": 2},
                                {"message": "second", "count": 1}]
    assert (out / "results.csv").read_bytes() == (tmp_path / "quiet" / "results.csv").read_bytes()


def test_failing_writer_adds_no_file(tmp_path, monkeypatch, capsys):
    # results.csv is written before ensemble.csv fails; neither may reach
    # output_dir, whether it holds an earlier run's files or is new
    old = tmp_path / "old"
    assert run(parse_config(MINIMAL_STATIC.format(out=old) + "dump_ensemble = true\n")) == 0
    before = {p.name: p.read_bytes() for p in old.iterdir()}

    def failing(path, ensemble):
        with open(path, "w") as fh:
            fh.write("x_1\n")
        raise OSError("disk full")

    monkeypatch.setattr("pimd_kubo.io.write_ensemble_csv", failing)
    for out in (old, tmp_path / "new"):
        text = MINIMAL_STATIC.format(out=out).replace("seed = 7", "seed = 8")
        assert run(parse_config(text + "dump_ensemble = true\n")) == 3
        assert "runtime error: OSError: disk full" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in old.iterdir()} == before
    assert os.listdir(tmp_path / "new") == []
    assert sorted(os.listdir(tmp_path)) == ["new", "old"]  # no staging directory left


def test_meta_records_peak_rss(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("PIMD_KUBO_THREADS", "3")
    assert run(parse_config(MINIMAL_STATIC.format(out=out))) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["peak_rss_mb"] > 0
    assert "peak_rss_mb" not in meta["stats"]
    assert meta["threads"] == 3


@pytest.mark.parametrize("self_kib, children_kib", [(40960, 61440), (61440, 40960)])
def test_meta_peak_rss_is_the_larger_of_the_process_and_its_workers(tmp_path, monkeypatch,
                                                                      self_kib, children_kib):
    # RPMD chunks propagate in worker processes, whose peaks only
    # RUSAGE_CHILDREN reports; meta takes the larger peak (ru_maxrss in KiB)
    peaks = {resource.RUSAGE_SELF: self_kib, resource.RUSAGE_CHILDREN: children_kib}
    monkeypatch.setattr(resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=peaks[who]))
    out = tmp_path / "out"
    assert run(parse_config(MINIMAL_STATIC.format(out=out))) == 0
    assert json.loads((out / "meta.json").read_text())["peak_rss_mb"] == 60.0


@pytest.mark.parametrize("case", ["q2", "p", "convergence"])
def test_static_runs_hold_no_ensemble(tmp_path, monkeypatch, traced_peak, case):
    # 32768 rings of 64 beads (16 MB) at one thread: each batch of sampled
    # rows, or of drawn momenta, becomes its values at once, so the traced
    # peak stays within the per-row values, the job's buffers (bounded by
    # eight (walkers, N) arrays: x, x_new, the normals, y, v and the
    # spectrum), one batch of CHUNK_ELEMENTS bead values and two chunk
    # temporaries of the estimator (u and its power product); convergence's
    # oracle grid is cut to 256 points so that it does not set the peak
    text = MINIMAL_STATIC.replace("n_beads = 8", "n_beads = 64").replace(
        "n_samples = 640", "n_samples = 32768")
    if case == "convergence":
        text = text.replace("command = static", "command = convergence").replace(
            "[run]", "[oracle]\nn_points = 256\n\n[run]") + "n_values = 64\n"
    else:
        text = text.replace("a = q2", f"a = {case}")
    monkeypatch.setenv("PIMD_KUBO_THREADS", "1")
    values, job = 32768 * 8, 8 * 128 * 64 * 8
    peak = traced_peak(run, parse_config(text.format(out=tmp_path / "out")))
    assert (tmp_path / "out" / "results.csv").exists()
    assert peak < values + job + 8 * CHUNK_ELEMENTS + 2 * 8 * CHUNK_ELEMENTS


@pytest.mark.parametrize("value", ["abc", "2.5", "0", "-1"])
def test_bad_thread_count_exits_2_before_sampling(tmp_path, monkeypatch, capsys, value):
    calls = []
    for target in ("pimd_kubo.runner.sample_ring_positions",
                   "pimd_kubo.runner.sample_static_average"):
        monkeypatch.setattr(target, lambda *args: calls.append(args))
    monkeypatch.setenv("PIMD_KUBO_THREADS", value)
    out = tmp_path / "out"
    assert run(parse_config(MINIMAL_STATIC.format(out=out))) == 2
    assert (f"configuration error: PIMD_KUBO_THREADS must be a positive integer, got {value!r}"
            in capsys.readouterr().err)
    assert calls == []
    assert not out.exists()
