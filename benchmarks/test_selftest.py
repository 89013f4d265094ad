"""Fast self-test of the sweep benchmark: one tiny round per workload.

    python -m pytest benchmarks/test_selftest.py
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys

import pytest

import run
from layers import LayerMissing, Tracer, installed

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def tiny(workload: str, trace: bool, **kwargs) -> run.Result:
    return run.measure(run.WORKLOADS[workload], seed=3, seconds=0,
                       trace=trace, trials=1, setup_reps=1, **kwargs)


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_and_check(workload, trace):
    result = tiny(workload, trace)
    assert result.correct, result.checks
    expected = units("per_layer" if trace else "end_to_end")
    assert {k: unit for k, (_, unit) in result.metrics.items()} == expected
    assert all(v >= 0 for v, _ in result.metrics.values())
    checks = {"golden", "rounds", "deterministic"}
    if trace:
        checks.add("traced_equals_untraced")
    assert set(result.checks) == checks
    assert (result.attempted, result.failed) == (2 if trace else 1, 0)
    assert result.env["threads"] == 1


def test_layer_predictions_hold_as_counts():
    fig5, conv = tiny("fig5-direct", True), tiny("convergence-trace", True)
    assert fig5.metrics["optimizer.altmin.calls"][0] == 0
    assert fig5.metrics["optimizer.direct.calls"][0] > 0
    assert conv.metrics["evaluation.rate.calls"][0] == 0
    assert conv.metrics["architecture.compose_wrf.calls"][0] == 0
    for result in (fig5, conv):
        assert result.metrics["channel.draw_paths.calls"][0] == 1


def test_golden_mismatch_fails(tmp_path):
    name = "convergence-trace"
    data = (run.GOLDEN_DIR / f"{name}.csv").read_text()
    rows = list(csv.DictReader(data.splitlines()))
    rows[5]["mean_se_bps_hz"] = f"{float(rows[5]['mean_se_bps_hz']) * (1 + 1e-7):.12e}"
    with open(tmp_path / f"{name}.csv", "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=run.HEADER, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    result = tiny(name, False, golden_dir=tmp_path)
    assert not result.correct
    assert len(result.checks["golden"]) == 1
    assert "row 5" in result.checks["golden"][0]


def test_renamed_layer_fails_loudly(monkeypatch):
    run.load_cli()
    import rydcomb.evaluation
    original = rydcomb.evaluation.draw_paths
    monkeypatch.delattr(rydcomb.evaluation, "channel_matrix")
    with pytest.raises(LayerMissing, match="evaluation.channel_matrix"):
        with installed(Tracer()):
            pass
    assert rydcomb.evaluation.draw_paths is original


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "fig5-direct",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "no rydcomb package" in proc.stderr
