"""Tests of the benchmark itself, at a tiny smoke size of each workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import dyadicpara  # noqa: E402
from calibrate import SAMPLES_PER_CALL  # noqa: E402
from record import call_counts  # noqa: E402
from tracer import Tracer, _namespaces  # noqa: E402
from worker import Run  # noqa: E402
from workloads import WORKLOADS, mismatches  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_passes_agree_traced_and_untraced(name):
    run = Run(WORKLOADS[name], seed=3, smoke=True)
    run.one_pass(traced=False)
    _, tracer, _ = run.one_pass(traced=True)
    samples = []
    run.one_pass(traced=False, calibration=samples)
    assert run.problems == []
    assert (run.attempted, run.failed) == (3, 0)
    assert tracer.spans and tracer.stack == []
    assert len(samples) == SAMPLES_PER_CALL * (len(WORKLOADS[name].smoke) + 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_spans_see_every_call_cprofile_sees(name):
    workload = WORKLOADS[name]
    tracer = Tracer()
    run = Run(workload, seed=0, smoke=True)
    with tracer:
        run.one_pass(traced=False)
    expected = call_counts(workload, 0, smoke=True)
    assert tracer.call_counts() == expected
    assert expected["transforms.coefficients"] > 0


def test_tracer_restores_every_binding():
    before = [dict(ns) for ns in _namespaces()]
    of = dyadicpara.RectangleCollection.__dict__["of"]
    original = dyadicpara.coefficients
    with Tracer():
        assert dyadicpara.coefficients is not original
        assert dyadicpara.transforms.coefficients is not original
    assert [dict(ns) for ns in _namespaces()] == before
    assert dyadicpara.RectangleCollection.__dict__["of"] is of
    assert dyadicpara.harness.SUITES["identities"] is dyadicpara.harness.suite_identities


def test_reference_comparison():
    want = {"checks": [{"id": "a", "ok": True, "x": 1.0}], "kappas": [4.0]}
    same = json.loads(json.dumps(want))
    assert mismatches(same, want) == []
    near = {"checks": [{"id": "a", "ok": True, "x": 1.0 + 1e-14}], "kappas": [4.0]}
    assert mismatches(near, want) == []
    far = {"checks": [{"id": "a", "ok": True, "x": 1.0 + 1e-9}], "kappas": [4.0]}
    assert mismatches(far, want) == ["/checks/0/x"]
    flipped = {"checks": [{"id": "a", "ok": False, "x": 1.0}], "kappas": [4.0]}
    assert mismatches(flipped, want) == ["/checks/0/ok"]
    assert mismatches({"checks": [], "kappas": [4.0]}, want) == ["/checks"]


@pytest.mark.parametrize("trace", [0, 1])
def test_worker_smoke_prints_result(trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "rw-d1-L12", "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(HERE.parent / "src"), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if trace:
        assert set(result["layers"]) == {m["name"] for m in spec["per_layer"]}
    else:
        assert result["warm"] and result["cold_s"] > 0 and result["digest"]
        assert result["elapsed_s"] >= result["cold_s"] + sum(result["warm"])
        assert len(result["speed"]) == 1 + len(result["warm"]) and min(result["speed"]) > 0


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "rw-d1-L12", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_prediction_table_names_benchmark_metrics_and_workloads():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    table = json.loads((HERE / "predictions.json").read_text())["table"]
    layers = {m["name"] for m in spec["per_layer"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    assert workloads == set(WORKLOADS)
    for row in table:
        assert set(row["layer_metrics"]) <= layers
        assert set(row["moves"]) <= e2e
        for where in row["on"] + row["unchanged_on"]:
            assert where.split(" ")[0] in workloads
