"""Tests of the benchmark's inputs, checks and metric names.

    python3 -m pytest -q bench/selftest.py

The file is not named ``test_*.py``, so the package's own test run does not
collect it: running every generated job takes about a minute.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.WHY)
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.serialize(workloads.build(workload, 5))
    assert first == workloads.serialize(workloads.build(workload, 5))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_gives_other_inputs_of_the_same_shape(workload):
    a, b = workloads.build(workload, 5), workloads.build(workload, 6)
    assert workloads.serialize(a) != workloads.serialize(b)
    assert [j.name for j in a] == [j.name for j in b]
    assert [len(j.argv) for j in a] == [len(j.argv) for j in b]
    assert [j.expect for j in a] == [j.expect for j in b]
    assert len(a) % 2 == 1  # makes job_p50_s one job's mean wall


def test_closed_curve_repeats_its_first_matrix_exactly():
    for seed in range(5):
        curve = workloads.spd_curve(random.Random(seed), 3, 40, closed=True)
        samples = curve["samples"]
        assert samples[0]["matrix"] == samples[-1]["matrix"]
        ts = [s["t"] for s in samples]
        assert all(a < b for a, b in zip(ts, ts[1:]))


def _eval_poly(terms, point):
    total = Fraction(0)
    for coef, exps in terms:
        value = Fraction(coef)
        for x, e in zip(point, exps):
            value *= x**e
        total += value
    return total


def test_dense_chart_is_diagonally_dominant_on_the_grid():
    axis = [Fraction(k, 2) - 1 for k in range(5)]  # the default grid of [-1, 1]
    raxis = [Fraction(1, 2) + Fraction(3, 8) * k for k in range(5)]  # of [1/2, 2]
    for seed in range(2):
        doc = workloads.dense_chart(random.Random(seed), 4)
        n = doc["n"]
        assert doc["domain"] == [[-1, 1]] * n and doc["interval"] == [0.5, 2]
        entries = {(e["i"], e["j"]): e for e in doc["entries"]}
        assert len(entries) == n * (n + 1) // 2
        for x0 in axis:
            for x1 in axis:
                for x2 in axis:
                    for x3 in axis:
                        for r in raxis:
                            point = (x0, x1, x2, x3, r)
                            a = {
                                key: _eval_poly(e["num"], point) / _eval_poly(e["den"], point)
                                for key, e in entries.items()
                            }
                            for i in range(n):
                                off = sum(abs(a[min(i, j), max(i, j)]) for j in range(n) if j != i)
                                assert a[i, i] > off


def test_check_report_flags_every_kind_of_mismatch():
    doc = {"verdict": "2-rigid", "samples": [{"level2": {"kernel_dim": 0}}], "empty": []}
    assert workloads.check_report(doc, {"verdict": "2-rigid", "samples.*.level2.kernel_dim": 0}) == []
    assert workloads.check_report(doc, {"samples.*.level2.kernel_dim": 1})
    assert workloads.check_report(doc, {"verdict": "non-rigid"})
    assert workloads.check_report(doc, {"missing.field": 0})
    assert workloads.check_report(doc, {"empty.*.kernel_dim": 0})


def _workdir(tmp_path: Path, jobs) -> Path:
    for job in jobs:
        for name, data in job.files.items():
            (tmp_path / name).write_bytes(data)
    (tmp_path / "jobs.json").write_text(json.dumps([job.argv for job in jobs]))
    return tmp_path


@pytest.mark.parametrize("workload", ["chart-grid", "prolong-curves"])
def test_every_generated_job_exits_0_with_the_expected_verdicts(workload, tmp_path):
    jobs = workloads.build(workload, 3)
    result = run.run_pass(_workdir(tmp_path, jobs), jobs, "t", trace=False)
    assert result["codes"] == [0] * len(jobs)
    assert result["problems"] == [[] for _ in jobs]


def test_traced_run_reports_every_per_layer_metric_and_same_bytes(tmp_path):
    jobs = workloads.build("kernel-solve", 3)
    metrics, passes, _ = run.traced_run(_workdir(tmp_path, jobs), jobs)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert [p["problems"] for p in passes] == [[[] for _ in jobs]] * 2
    assert metrics["braid.solve_calls"][0] == len(jobs) + 1  # product_nonrigid solves twice
    assert metrics["gcs.grid_points"][0] == 2 * 5**4  # one chart, one genericity pass


def test_timed_run_reports_every_end_to_end_metric(tmp_path):
    jobs = workloads.build("kernel-solve", 4)
    metrics, passes, _ = run.timed_run(_workdir(tmp_path, jobs), jobs, seconds=1)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values())
    assert all(p["problems"] == [[] for _ in jobs] for p in passes)
