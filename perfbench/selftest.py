"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/selftest.py -q

The file is not named ``test_*.py``, so the library's own test run does not
collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "v21_dichotomy": workloads.V21Dichotomy(
        grid_fields={"lambda_count": 24, "phase_count": 24, "t_count": 96}, trace_ops=1
    ),
    "general_v63": workloads.GeneralV63(sample_count=32, trace_ops=1),
    "verify_round": workloads.VerifyRound(
        closed_form_trials=10,
        mirror_samples=1,
        antidiagonal_samples=2,
        strong_samples=2,
        uniqueness_trials=10,
        bracket_max_n=4,
        trace_ops=1,
    ),
}


def _assert_metrics(metrics: dict, specs: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in specs}
    for spec in specs:
        value, unit = metrics[spec["name"]]
        assert unit == spec["unit"], spec["name"]
        assert np.isfinite(value), spec["name"]


def test_workload_names_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_reports_every_metric(name):
    workload = TINY[name]
    metrics, results, _ = run.measure(workload, seed=3, seconds=0.0, setup_count=1)
    _assert_metrics(metrics, SPEC["end_to_end"])
    assert [r.problems for r in results] == [[] for _ in results]
    assert metrics["op_p50_s"][0] > 0 and metrics["setup_s"][0] > 0

    metrics, results, _ = run.measure_traced(
        workload, seed=3, seconds=0.0, importtime_count=1, save=False
    )
    _assert_metrics(metrics, SPEC["per_layer"])
    assert [r.problems for r in results] == [[] for _ in results]


def test_wrong_reference_counts_as_failed(monkeypatch):
    true_length = workloads.cut_length
    monkeypatch.setattr(workloads, "cut_length", lambda c: true_length(c) * (1 + 1e-4))
    _, results, _ = run.measure(TINY["v21_dichotomy"], seed=3, seconds=0.0, setup_count=1)
    failed = [r for r in results if r.problems]
    assert failed and len(failed) == len(results)
    assert "analytic" in failed[0].problems[0]


def test_mirror_check_catches_a_wrong_twin():
    records = workloads.mirror_arrivals(3, 1, samples=2, seed=7, mode="complex")
    assert workloads.mirror_problems(records, "m") == []
    rec = records[0]
    twin, cols, length = rec["twins"][1]
    rec["twins"][1] = (twin, cols + 1e-6, length)
    assert any("twin 1 endpoint gap" in p for p in workloads.mirror_problems(records, "m"))
    rec["twins"][1] = (twin, cols, length)
    rec["twins"][0] = (rec["velocity"], rec["cols"], rec["length"])
    assert any("mirrored twin within" in p for p in workloads.mirror_problems(records, "m"))


def test_changed_report_counts_as_failed():
    workload = TINY["v21_dichotomy"]
    first = run.run_op(workload, 3, 0, keep_report=True)
    first.report = first.report.replace("clusters", "clusterz")
    again = run.repeat_first(workload, 3, first)
    assert again.problems == ["report JSON differs from the first run of this op"]


def test_tracer_restores_every_name_and_self_times_are_non_negative():
    import numpy
    import stiefel_sr.cutlocus as cutlocus
    import stiefel_sr.geodesic as geodesic
    import stiefel_sr.homspace as homspace

    before = {
        "eigh": numpy.linalg.eigh,
        "einsum": numpy.einsum,
        "search": cutlocus.search_minimizers,
        "batch_in_cutlocus": cutlocus.batch_geodesic_columns,
        "batch": geodesic.batch_geodesic_columns,
        "post_init": homspace.BlockVelocity.__dict__["__post_init__"],
    }
    tracer = Tracer().install()
    try:
        patched = list(tracer._patched)
        assert len(patched) > 50
        assert cutlocus.batch_geodesic_columns is geodesic.batch_geodesic_columns
        assert cutlocus.batch_geodesic_columns is not before["batch"]
        assert numpy.linalg.eigh is not before["eigh"]
        result = run.run_op(TINY["general_v63"], 5, 0, tracer)
    finally:
        tracer.restore()
    assert result.problems == []
    for owner, attr, original in patched:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner!r}.{attr} not restored"
    assert numpy.linalg.eigh is before["eigh"] and numpy.einsum is before["einsum"]
    assert cutlocus.search_minimizers is before["search"]
    assert cutlocus.batch_geodesic_columns is before["batch_in_cutlocus"] is before["batch"]
    assert homspace.BlockVelocity.__dict__["__post_init__"] is before["post_init"]

    rec = result.record
    assert rec.counters["searches"] == 1 and rec.counters["candidates"] > 0
    for name, (calls, incl, self_s) in rec.calls.items():
        assert calls > 0 and self_s >= -1e-9 and incl >= self_s - 1e-9, name
    total_self = sum(self_s for _, _, self_s in rec.calls.values())
    assert total_self == pytest.approx(rec.wall, rel=1e-9)

    start = np.frombuffer(tracer.span_start)
    end = np.frombuffer(tracer.span_end)
    parent = np.frombuffer(tracer.span_parent, dtype=np.int32)
    child = parent >= 0
    assert np.all(end >= start)
    assert np.all(start[child] >= start[parent[child]])
    assert np.all(end[child] <= end[parent[child]])


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "v21_dichotomy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
