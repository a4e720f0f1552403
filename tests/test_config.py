"""Property tests of the run-configuration grammar (runner.parse_config).

Valid configurations are generated from the schema itself: every command
with its sections, any subset of optional keys, sections and keys in any
order and letter case, with comments, blank lines and stray whitespace.
Each value is one that the section's dataclass accepts.
"""

import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pimd_kubo import io
from pimd_kubo.errors import ConfigError
from pimd_kubo.model import KIND_PARAMETERS, MILDLY_ANHARMONIC, QUARTIC
from pimd_kubo.runner import (_BLOCKED, _COMMANDS, _METHODS, _REQUIRED, _SCHEMA, _to_bool,
                              _to_int_list, parse_config)

SETTINGS = settings(max_examples=150, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _free_text(extra_blacklist=""):
    """Text a single config line may hold: no line breaks of any kind."""
    return st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"),
                                 blacklist_characters=extra_blacklist), max_size=12)


def _render(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ", ".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _value(draw, section, key, command, method):
    conv = _SCHEMA[section][key][0]
    used = _USED_RANGES.get((section, key))
    if used is not None and used[0](command, method):
        return draw(used[1])
    if (section, key) in _ACCEPTED:
        return draw(_ACCEPTED[section, key])
    if section == "run":
        if key == "command":
            return command
        if key == "method":
            return method
        if key in ("a", "b"):
            labels = ("q", "p") if method == "cmd" and key == "a" else ("q", "p", "q2", "q3")
            return draw(st.sampled_from(labels))
        if key == "output_dir":
            return draw(_free_text().map(str.strip))
    if conv is float:
        return draw(st.floats(allow_nan=False, allow_infinity=False))
    if conv is int:
        return draw(st.integers(-10**9, 10**9))
    if conv is _to_int_list:
        return draw(st.lists(st.integers(1, 4096), max_size=4))
    assert conv is _to_bool
    return draw(st.booleans())


# keys that parse_config checks where the command uses them: (uses(command,
# method), values inside the accepted range).  Each range keeps clear of the
# others' bounds: blocks <= 512 <= n_samples / 2, n_retained <= 64 <= n_points,
# table_min <= 0 < table_max, q_min <= 0 < q_max, whichever of each pair is
# left at its default.
_USED_RANGES = {
    ("sampler", "n_samples"): (lambda c, m: "sampler" in _COMMANDS[c][0],
                               st.integers(1024, 10**9)),
    ("run", "blocks"): (lambda c, m: c in _BLOCKED, st.integers(2, 512)),
    ("oracle", "n_points"): (lambda c, m: "oracle" in _COMMANDS[c][0], st.integers(64, 10**9)),
    ("oracle", "n_retained"): (lambda c, m: "oracle" in _COMMANDS[c][0], st.integers(1, 64)),
    ("oracle", "q_min"): (lambda c, m: "oracle" in _COMMANDS[c][0],
                          st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)),
    ("oracle", "q_max"): (lambda c, m: "oracle" in _COMMANDS[c][0],
                          st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
    ("run", "table_nodes"): (lambda c, m: m == "cmd", st.integers(2, 10**9)),
    ("run", "table_min"): (lambda c, m: m == "cmd",
                           st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)),
    ("run", "table_max"): (lambda c, m: m == "cmd",
                           st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
    ("run", "n_values"): (lambda c, m: c == "convergence",
                          st.lists(st.integers(1, 4096), min_size=1, max_size=4)),
}


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# mass, omega and a4 within 1e+-100, so no coefficient of V (0.5 m omega^2,
# a4 / 4) under- or overflows, which the model refuses
_SCALE = st.floats(min_value=1e-100, max_value=1e100)
_COUNT = st.integers(1, 10**9)
# the values the config dataclasses accept, drawn where _USED_RANGES does not
# apply; c4 > 0 admits any c3, and valid_configs sets c4 wherever it sets c3
_ACCEPTED = {
    ("model", "mass"): _SCALE,
    ("model", "omega"): _SCALE,
    ("model", "c4"): _POSITIVE,
    ("model", "a4"): _SCALE,
    ("thermo", "beta"): _POSITIVE,
    ("thermo", "n_beads"): _COUNT,
    ("thermo", "hbar"): _POSITIVE,
    ("sampler", "n_samples"): _COUNT,
    ("sampler", "burn_in"): st.integers(0, 10**9),
    ("sampler", "decorrelation_stride"): _COUNT,
    ("sampler", "n_walkers"): _COUNT,
    ("integrator", "dt"): _POSITIVE,
    ("integrator", "n_steps"): _COUNT,
    ("run", "seed"): st.integers(0, 2**64 - 1),
}


@st.composite
def valid_configs(draw):
    """(lines, given) where given maps section -> key -> the value written."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    method = draw(st.sampled_from(_METHODS[command])) if command in _METHODS else command
    needed = set(_COMMANDS[command][0])
    optional = sorted(set(_SCHEMA) - needed)
    extra = draw(st.sets(st.sampled_from(optional))) if optional else set()
    names = draw(st.permutations(sorted(needed | extra)))
    given = {}
    for name in names:
        if name == "model":
            kind = draw(st.sampled_from(sorted(KIND_PARAMETERS)))
            keys = {"kind"} | draw(st.sets(st.sampled_from(KIND_PARAMETERS[kind])))
            if kind == QUARTIC:
                keys.add("a4")  # the default a4 = 0 is no quartic well
            if kind == MILDLY_ANHARMONIC and "c3" in keys:
                keys.add("c4")  # c3 != 0 needs c4 > 0
        else:
            required = {k for k, (_, d) in _SCHEMA[name].items() if d is _REQUIRED}
            if name == "run" and command in _METHODS:
                required.add("method")
            # only the commands in _BLOCKED take [run] blocks
            allowed = [k for k in sorted(_SCHEMA[name])
                       if (name, k) != ("run", "blocks") or command in _BLOCKED]
            keys = required | draw(st.sets(st.sampled_from(allowed)))
        given[name] = {}
        for key in draw(st.permutations(sorted(keys))):
            given[name][key] = (kind if name == "model" and key == "kind"
                                else _value(draw, name, key, command, method))
    lines = []
    for name, keys in given.items():
        lines += draw(st.lists(st.sampled_from(["", "   ", "# note", "; note = 1"]), max_size=2))
        lines.append(draw(st.sampled_from(["[{}]", " [ {} ] ", "[{}]  "])).format(
            draw(st.sampled_from([name, name.upper(), name.title()]))))
        for key, value in keys.items():
            key_text = draw(st.sampled_from([key, key.upper()]))
            lines.append(draw(st.sampled_from(["{} = {}", "{}={}", "  {}   =  {}  "])).format(
                key_text, _render(value)))
    return lines, given


def _meta_config(config):
    """The config block as run() writes it into meta.json, read back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "meta.json")
        io.write_meta_json(path, {"config": config.sections})
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["config"]


def _canonical_text(sections):
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {_render(value)}" for key, value in keys.items() if value is not None]
    return "\n".join(lines) + "\n"


@SETTINGS
@given(valid_configs())
def test_valid_config_round_trips_through_meta_json(case):
    lines, given = case
    config = parse_config("\n".join(lines))
    for name, keys in given.items():
        for key, value in keys.items():
            assert config.sections[name][key] == value
    echoed = _meta_config(config)
    assert echoed == config.sections
    assert parse_config(_canonical_text(echoed)).sections == config.sections


def _is_key_line(text):
    s = text.strip()
    return bool(s) and not s.startswith(("#", ";")) and not (s.startswith("[") and s.endswith("]"))


def _section_at(lines, index):
    """The section a line inserted before lines[index] would fall in."""
    current = None
    for line in lines[:index]:
        s = line.strip()
        if s.startswith("[") and s.endswith("]"):
            current = s[1:-1].strip().lower()
    return current


@SETTINGS
@given(valid_configs(), st.data())
def test_malformed_line_reports_its_line_number(case, data):
    lines, _ = case
    draw = data.draw
    kind = draw(st.sampled_from(["no_equals", "unknown_section", "duplicate_section",
                                 "unknown_key", "duplicate_key", "bad_value", "outside"]))
    headers = [i for i, line in enumerate(lines) if line.strip().startswith("[")]
    key_lines = [i for i, line in enumerate(lines)
                 if "=" in line and not line.startswith(("#", ";"))]
    if kind == "no_equals":
        at = draw(st.integers(0, len(lines)))
        bad = draw(_free_text("=").filter(_is_key_line))
    elif kind == "unknown_section":
        at = draw(st.integers(0, len(lines)))
        name = draw(_free_text().filter(lambda t: t.strip().lower() not in _SCHEMA))
        bad = f"[{name}]"
    elif kind == "duplicate_section":
        first = draw(st.sampled_from(headers))
        at = draw(st.integers(first + 1, len(lines)))
        bad = lines[first]
    elif kind == "duplicate_key":
        first = draw(st.sampled_from(key_lines))
        at = first + 1
        bad = lines[first]
    elif kind == "outside":
        at = 0
        bad = draw(st.sampled_from(["seed = 1", "kind = harmonic", "x=y"]))
    else:
        at = draw(st.integers(headers[0] + 1, len(lines)))
        section = _section_at(lines, at)
        if kind == "unknown_key":
            key = draw(_free_text("=").map(lambda t: "x" + t).filter(
                lambda t: t.strip().lower() not in _SCHEMA[section]))
            bad = f"{key} = 1"
        else:
            key = draw(st.sampled_from(
                [k for k, (conv, _) in _SCHEMA[section].items() if conv is not str]))
            # no converter accepts these; an empty value is a valid empty n_values list
            bad = f"{key} = {draw(st.sampled_from(['abc', '1.5.2', 'nan?', 'tru', '1, two']))}"
    text = "\n".join(lines[:at] + [bad] + lines[at:])
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == at + 1, (kind, bad, str(err.value))
    assert str(err.value).startswith(f"line {at + 1}: ")


_MINIMAL_SECTIONS = {
    "model": "kind = harmonic",
    "thermo": "beta = 1.0\nn_beads = 4",
    "sampler": "n_samples = 64",
    "integrator": "dt = 0.05\nn_steps = 10",
    "oracle": "",
}


def _minimal_text(command, run_lines=()):
    text = [f"[{name}]\n{_MINIMAL_SECTIONS[name]}" for name in _COMMANDS[command][0]
            if name != "run"]
    text.append("\n".join(["[run]", f"command = {command}", "seed = 1", "output_dir = out",
                            *run_lines]))
    return "\n".join(text) + "\n"


@pytest.mark.parametrize("command", ["rpmd", "cmd", "oracle", "compare", "spectrum"])
def test_blocks_rejected_where_ignored(command):
    assert command not in _BLOCKED
    with pytest.raises(ConfigError) as err:
        parse_config(_minimal_text(command, ["blocks = 4"]))
    assert err.value.key == "blocks"
    # left unset, the key is echoed as unused
    assert parse_config(_minimal_text(command)).sections["run"]["blocks"] is None


@pytest.mark.parametrize("command", _BLOCKED)
def test_blocks_accepted_where_used(command):
    assert parse_config(_minimal_text(command, ["blocks = 4"])).sections["run"]["blocks"] == 4


@pytest.mark.parametrize("command", [c for c in sorted(_COMMANDS) if "sampler" in _COMMANDS[c][0]])
@pytest.mark.parametrize("old, new", [
    ("n_samples = 64", "n_samples = 64\nburn_in = -1"),
    ("n_samples = 64", "n_samples = 64\ndecorrelation_stride = 0"),
    ("n_samples = 64", "n_samples = 64\nn_walkers = 0"),
    ("seed = 1", "seed = -1"),
], ids=["burn_in_negative", "decorrelation_stride_0", "n_walkers_0", "seed_negative"])
def test_bad_sampler_value_rejected_at_parse(command, old, new):
    # SamplerConfig is built at parse time, like the [oracle] grid
    text = _minimal_text(command)
    assert old in text
    with pytest.raises(ConfigError, match="invalid sampler"):
        parse_config(text.replace(old, new))
