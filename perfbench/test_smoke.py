"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import cra.analytic  # noqa: E402
import cra.sim  # noqa: E402
import checks as ck  # noqa: E402
from tracing import PER_LAYER, SpanStats, Tracer, layer_metrics  # noqa: E402
from workloads import TINY, WORKLOADS, Fig3Sweep, _capped_moments  # noqa: E402
from workloads import FIG3_FIXED_LEN, FIG3_M, FIG3_N  # noqa: E402

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_passes_its_checks(name, tmp_path):
    workload = WORKLOADS[name](7, tmp_path, **TINY[name])
    checks = ck.Checks()
    unit = workload.run_unit(0)
    workload.check(unit, checks)
    assert checks.attempted > 0
    assert checks.failed == 0, checks.failures
    assert unit.wall > 0 and unit.primary > 0 and unit.secondary > 0


def _sweep_rows(tmp_path):
    workload = Fig3Sweep(3, tmp_path, n_sessions=300, warmup=50)
    workload.run_unit(0)
    return workload, ck.read_csv(workload.paths[1])[1]


def _check_rows(workload, rows):
    checks = ck.Checks()
    ck.check_sweep_rows(checks, rows, workload.n_sessions, FIG3_FIXED_LEN,
                        FIG3_N + FIG3_M, _capped_moments)
    return checks


def test_cra1_estimate_shifted_by_10_se_is_caught(tmp_path):
    workload, rows = _sweep_rows(tmp_path)
    assert _check_rows(workload, rows).failed == 0
    for r in rows:
        if r["metric"] == "eta1" and r["source"] == "sim":
            r["estimate"] += 10 * r["std_error"]
    checks = _check_rows(workload, rows)
    assert checks.failed > 0
    assert checks.failed / checks.attempted > 0


def test_traced_unit_reports_every_per_layer_metric(tmp_path):
    original = cra.sim.stage1_outcome
    workload = Fig3Sweep(5, tmp_path, **TINY["fig3_sweep"])
    untraced = [workload.run_unit(0)]
    tracer = Tracer()
    with tracer.active():
        assert cra.sim.stage1_outcome is not original
        traced = [workload.run_unit(1)]
    assert cra.sim.stage1_outcome is original
    metrics = layer_metrics(SpanStats(tracer), tracer.pool_busy, traced,
                            untraced)
    assert list(metrics) == [name for name, _, _ in PER_LAYER]
    sessions = 20 * 3 * (TINY["fig3_sweep"]["n_sessions"]
                         + TINY["fig3_sweep"]["warmup"])
    assert metrics["sim.stage1_outcome.calls"] == sessions
    assert metrics["specfun.lambert_w0.calls_per_point"] == 3
    assert metrics["cli.emit_results.bytes"] > 0
    assert metrics["cli.pool_overhead_s"] != 0
    assert 0 < metrics["sim.stage1_outcome.share"] < 1
    assert 0 < metrics["analytic.share_of_fig3"] < 1


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(WORKLOADS) == set(run.WORKLOAD_NAMES)


def test_command_prints_result_as_last_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "closed_form_grid",
         "--seed", "1", "--seconds", "0.2", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig3_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_wrong_threshold_is_caught(tmp_path):
    workload = WORKLOADS["closed_form_grid"](7, tmp_path,
                                             **TINY["closed_form_grid"])
    params = workload.threshold_points[0]
    drift = lambda k: cra.analytic.backlog_drift(k, params)
    k0 = cra.analytic.instability_threshold(params)
    checks = ck.Checks()
    for wrong in (k0 - 1, k0 + 1, k0 // 2, None):
        ck.check_threshold(checks, params, wrong, drift)
    assert checks.failed == checks.attempted == 4
    right = ck.Checks()
    ck.check_threshold(right, params, k0, drift)
    assert right.failed == 0
