"""Self-tests of the benchmark, on grids small enough to run in seconds.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import meter  # noqa: E402
import queries  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from grothtab import Grid, check_ids, run_all  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = {"max_size": 3, "max_vars": 3, "workers": 2, "instances": 0}


@pytest.fixture
def tiny_verify(monkeypatch):
    """verify-parallel shrunk to a (3, 3) grid, with its golden report."""
    report = run_all(Grid(max_size=3, max_vars=3), workers=1).to_json()
    monkeypatch.setitem(run.VERIFY, "verify-parallel",
                        {**TINY, "instances": report["passed"]})
    return run.strip_seconds(report)


def tiny_stream():
    """One verify --id query per check on a (2, 2) grid: together they reach
    every traced layer."""
    out = []
    for check_id in check_ids():
        argv = ["verify", "--id", check_id, "--max-size", "2", "--max-vars", "2",
                "--format", "json"]
        out.append(queries.entry(argv, "verify", queries.verify_instances(check_id, 2, 2)))
    return out


def assert_metrics(metrics, kind):
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert set(metrics) == set(expected)
    for name, (value, unit) in metrics.items():
        assert unit == expected[name], name
        assert isinstance(value, (int, float)), name


@pytest.mark.parametrize("trace", [False, True])
def test_verify_emits_every_metric_with_its_unit(tiny_verify, trace):
    out = run.run_verify("verify-parallel", 5, 0, trace, golden=tiny_verify)
    assert out["failed"] == 0
    assert_metrics(out["metrics"], "per_layer" if trace else "end_to_end")


@pytest.mark.parametrize("trace", [False, True])
def test_cli_emits_every_metric_with_its_unit(trace):
    out = run.run_cli(5, 0, trace, stream=tiny_stream())
    assert out["failed"] == 0
    assert_metrics(out["metrics"], "per_layer" if trace else "end_to_end")


def test_gate_counts_a_wrong_cli_answer():
    stream = tiny_stream()
    stream[3] = {**stream[3], "expected": stream[3]["expected"] + 1}
    out = run.run_cli(5, 0, False, stream=stream)
    assert out["failed"] == 1
    assert "metrics" not in out


def test_gate_counts_a_report_that_differs_from_the_golden_copy(tiny_verify):
    tampered = json.loads(json.dumps(tiny_verify))
    tampered["checks"][0]["instances"] += 1
    out = run.run_verify("verify-parallel", 5, 0, False, golden=tampered)
    assert out["failed"] >= 1
    assert "metrics" not in out


def test_wrong_answers_are_recognised():
    text = {"kind": "text", "expected": "27\n"}
    assert not queries.wrong(text, 0, "27\n")
    assert queries.wrong(text, 0, "28\n")
    assert queries.wrong(text, 1, "27\n")
    lines = {"kind": "lines", "expected": 2}
    assert not queries.wrong(lines, 0, "1 1\n1 2\n")
    assert queries.wrong(lines, 0, "1 1\n1 1\n")


def test_traced_counts_repeat_exactly(tiny_verify):
    counted = [m["name"] for m in SPEC["per_layer"]
               if m["unit"] == "count" or m["name"].endswith("distinct_ratio")]
    first, second = (run.run_verify("verify-parallel", 5, 0, True, golden=tiny_verify)["metrics"]
                     for _ in range(2))
    assert counted
    for name in counted:
        assert first[name] == second[name], name
    assert first["tableaux.enumerate_svt.calls"][0] > 0


def test_generator_span_counts_items_and_excludes_the_consumer():
    tracer = spans.Tracer()
    traced = tracer._wrap("tableaux.enumerate_svt", lambda shape, n: (i for i in range(n)), True)
    consumer = tracer._wrap("grothendieck.grothendieck_tableau_sum",
                            lambda: [x for x in traced((2, 1), 4) for _ in range(20000)], False)
    consumer()
    stats = spans.aggregate([tracer.dump()])
    enum = stats["tableaux.enumerate_svt"]
    total = stats["grothendieck.grothendieck_tableau_sum"]
    assert (enum["calls"], enum["items"], enum["keys"]) == (1, 4, {"2,1|4"})
    assert total["fills"] == 1
    assert enum["self"] < total["self"]
    assert total["busy"] == pytest.approx(total["self"] + enum["busy"])


def test_scaled_time_excludes_pauses_and_weighs_by_speed():
    # Runs on [1, 3] between samples of speed 1 and 0.5, and on [4, 6]
    # between two of speed 0.5; the samples themselves are pauses.
    samples = [(0.0, 1.0, 1.0), (3.0, 4.0, 0.5), (6.0, 7.0, 0.5)]
    assert meter.scaled(samples, 0.0, 10.0) == pytest.approx(2 * 0.75 + 2 * 0.5)
    assert meter.scaled(samples, 2.0, 5.0) == pytest.approx(0.75 + 0.5)
    assert meter.scaled(samples, 3.2, 3.8) == 0


def test_smoothing_averages_the_samples_within_the_window():
    samples = [(0.0, 0.1, 1.0), (1.0, 1.1, 0.5), (10.0, 10.1, 0.8)]
    assert [speed for _, _, speed in meter.smooth(samples, window=2.5)] == [0.75, 0.75, 0.8]


def test_meter_samples_around_a_command():
    with meter.Meter(meter.work_cpus(1), period=0.02, window=0.1) as m:
        cmd = run.spawn("probe", {}, m)
    assert cmd["result"] and m.group is None
    assert len(m.samples) >= 2
    assert all(speed > 0 for _, _, speed in m.samples)
    assert 0 < m.scaled(cmd["start"], cmd["end"])
