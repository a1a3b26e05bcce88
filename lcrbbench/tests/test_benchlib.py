"""Self-tests of the benchmark: percentiles, output checks, the metric list.

Run from the repository root with ``python3 -m pytest lcrbbench/tests``.
The last test runs the benchmark twice and takes about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from benchlib import MIN_TAIL, Checks, percentile, result_line  # noqa: E402
from serve_wl import Record, check_records  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def test_percentile_is_nearest_rank_with_count():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == (50.0, 100)
    assert percentile(values, 90) == (90.0, 100)
    assert percentile(list(reversed(values)), 90).value == 90.0


def test_median_is_always_reported():
    assert percentile([3.0], 50) == (3.0, 1)
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == (2.0, 4)
    assert percentile([], 50) is None


def test_tail_percentile_needs_ten_samples_beyond_its_rank():
    assert percentile([1.0] * 99, 90) is None  # rank 90, 9 beyond
    assert percentile([1.0] * 100, 90) is not None  # rank 90, 10 beyond
    assert percentile([1.0] * 999, 99) is None
    assert percentile([1.0] * 1000, 99) is not None
    assert MIN_TAIL == 10
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def _query(request_id, seeds, blockers, sigma=1.0, ends=5, timed=True, **extra):
    request = {"op": "query", "id": request_id, "seeds": seeds, "budget": 2}
    response = {
        "id": request_id, "ok": True, "blockers": blockers,
        "blocker_labels": blockers, "sigma": sigma, "worlds": 64,
        "bridge_ends": ends, "graph_version": 0, "cold": False, **extra,
    }
    return Record(request, response, 0.0, 0.001, timed)


def test_answer_checks_count_against_ok_frac():
    checks = Checks()
    records = [
        _query(1, [1, 2], [3, 4]),
        _query(2, [1, 2], [3, 4, 5]),  # over budget
        _query(3, [5, 6], [5]),  # blocker is a seed
        _query(4, [7, 8], [99]),  # outside a 10-node graph
        _query(5, [9, 0], [3], sigma=6.0),  # sigma above |B|
    ]
    check_records(records, 10, checks)
    assert (checks.attempted, checks.failed) == (5, 4)
    assert checks.ok_frac == pytest.approx(0.2)
    assert not checks.correct


def test_warm_answer_may_change_only_after_an_update():
    checks = Checks()
    update = Record({"op": "update", "id": 3}, {"ok": True, "touched": [1]}, 0.0, 0.001, True)
    records = [
        _query(1, [1, 2], [3]),
        _query(2, [1, 2], [4]),  # changed without an update
        update,
        _query(4, [1, 2], [5]),  # changed after one: fine
        _query(5, [1, 2], [5]),
    ]
    check_records(records, 10, checks)
    assert (checks.attempted, checks.failed) == (5, 1)
    assert "without an update" in checks.problems[0]


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_runner_tables():
    doc = _benchmark_json()
    assert {w["name"]: w["why"] for w in doc["workloads"]} == WORKLOADS
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    } == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == PER_LAYER
    assert doc["command"] == ["python3", "lcrbbench/run.py"]
    assert doc["paths"] == ["lcrbbench"]


def test_result_line_emits_every_metric_with_its_unit():
    units = {name: unit for name, (unit, _b, _d) in END_TO_END.items()}
    checks = Checks()
    checks.op([], "op")
    line = json.loads(result_line(checks, {name: 1.5 for name in units}, units))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == units
    with pytest.raises(KeyError):
        result_line(checks, {}, units)


def _run(seconds):
    completed = subprocess.run(
        [sys.executable, os.path.join("lcrbbench", "run.py"), "--workload",
         "select_simulate", "--seed", "3", "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_runs_of_different_lengths_agree_on_quality():
    short, longer = _run(1), _run(25)
    assert short["attempted"] < longer["attempted"]
    assert short["metrics"]["protected_frac"] == longer["metrics"]["protected_frac"]
    emitted = {name: m["unit"] for name, m in longer["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
