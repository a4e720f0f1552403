"""Tests for the benchmark's own helpers: python3 -m pytest perfbench -q"""

import math

import numpy as np
import pytest

from chainstats import chain_tau
from run import check_artifacts
from spans import Tracer, layer_totals, self_times


def _ar1_chains(phi, n_chains, length, seed=0):
    """Walker-major AR(1) rows, each chain started in its stationary law."""
    rng = np.random.default_rng(seed)
    x = np.empty((n_chains, length))
    x[:, 0] = rng.standard_normal(n_chains)
    noise = math.sqrt(1.0 - phi * phi) * rng.standard_normal((n_chains, length))
    for t in range(1, length):
        x[:, t] = phi * x[:, t - 1] + noise[:, t]
    return x.ravel()


@pytest.mark.parametrize("phi", [0.0, 0.6, 0.9])
def test_chain_tau_recovers_ar1_autocorrelation_time(phi):
    length = 400
    values = _ar1_chains(phi, 3000, length)
    exact = (1.0 + phi) / (1.0 - phi)
    # batch means with batch length L underestimates tau by about
    # 2 phi / ((1 - phi)^2 L); the spread over 3000 chains is about 3 %
    expected = exact - 2.0 * phi / ((1.0 - phi) ** 2 * length)
    assert chain_tau(values, length) == pytest.approx(expected, rel=0.08)


def test_chain_tau_sees_between_walker_offsets():
    # chains that never leave their start value: every row of a chain is the same
    starts = np.random.default_rng(1).standard_normal(500)
    values = np.repeat(starts, 16)
    # tau = L, up to the (n-1) vs (chains-1) normalisation of the two variances
    assert chain_tau(values, 16) == pytest.approx(16.0 * 7999 / 8000 * 500 / 499)


def test_chain_tau_needs_two_chains():
    with pytest.raises(ValueError):
        chain_tau(np.arange(10.0), 10)


def _span(i, name, parent, start, end, cpu=None):
    cpu = (end - start) if cpu is None else cpu
    return {"id": i, "name": name, "parent": parent, "start": start, "end": end,
            "cpu_start": 0.0, "cpu_end": cpu}


def test_self_time_of_nested_spans():
    spans = [
        _span(0, "process", None, 0.0, 10.0, cpu=15.0),
        _span(1, "runner", 0, 1.0, 9.5, cpu=14.0),
        _span(2, "sampler.free", 1, 2.0, 6.0, cpu=8.0),
        _span(3, "io.write", 1, 7.0, 7.5),
        _span(4, "io.write", 3, 7.1, 7.2),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx((1.5, 1.0))
    assert selfs[1] == pytest.approx((8.5 - 4.0 - 0.5, 14.0 - 8.0 - 0.5))
    assert selfs[2] == pytest.approx((4.0, 8.0))
    assert selfs[3] == pytest.approx((0.4, 0.4))
    totals = layer_totals(spans)
    assert totals["io.write"]["calls"] == 2
    assert totals["io.write"]["busy_s"] == pytest.approx(0.5)
    # self times partition the root span
    assert sum(t["busy_s"] for t in totals.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, "root", None, 0.0, 10.0),
             _span(1, "a", 0, 1.0, 5.0), _span(2, "b", 0, 4.0, 6.0),
             _span(3, "c", 0, 9.0, 12.0)]
    assert self_times(spans)[0][0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_nests_spans_and_runs_hook_outside_the_span():
    tracer = Tracer()
    seen = []

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("inner", inner,
                               lambda span, arguments, result: seen.append((arguments, result)))
    outer = tracer.wrap("outer", lambda x: traced_inner(x) * 2)
    assert outer(3) == 8
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] is None
    assert seen == [({"x": 3}, 4)]
    assert by_name["outer"]["start"] <= by_name["inner"]["start"] <= by_name["inner"]["end"]


def test_tracer_closes_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap("boom", boom)()
    assert "end" in tracer.spans[0]
    assert tracer.wrap("after", lambda: None)() is None
    assert tracer.spans[1]["parent"] is None


SPEC = {"artifacts": ("results.csv",), "headline": "results.csv"}


def _write(tmp_path, csv, meta='{"stats": {"mean": 0.5}}'):
    (tmp_path / "results.csv").write_text(csv)
    (tmp_path / "meta.json").write_text(meta)


def test_check_artifacts_reads_headline(tmp_path):
    _write(tmp_path, "t,value,std_error\n0.0,0.5,0.01\n0.1,0.4,0.01\n")
    problem, headline, digest = check_artifacts(SPEC, tmp_path)
    assert problem is None
    assert headline == (0.5, 0.01)
    assert len(digest) == 64


@pytest.mark.parametrize("csv,meta,word", [
    ("t,value,std_error\n0.0,nan,0.01\n", '{"stats": {}}', "non-finite"),
    ("t,value,std_error\n0.0,0.5,0.01\n", '{"stats": {"errors": [1.0, Infinity]}}',
     "non-finite"),
    ("t,value,std_error\n", '{"stats": {}}', "no rows"),
])
def test_check_artifacts_rejects_bad_output(tmp_path, csv, meta, word):
    _write(tmp_path, csv, meta)
    problem, _, _ = check_artifacts(SPEC, tmp_path)
    assert word in problem


def test_check_artifacts_reports_missing_file(tmp_path):
    (tmp_path / "meta.json").write_text("{}")
    problem, _, _ = check_artifacts(SPEC, tmp_path)
    assert problem == "missing results.csv"
