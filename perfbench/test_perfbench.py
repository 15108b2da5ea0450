"""Smoke test of the benchmark: every workload once at tiny shapes, traced and untraced.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import pathlib
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def invoke(workload: str, trace: int, cwd: pathlib.Path = ROOT) -> tuple[int, list[str]]:
    out = io.StringIO()
    old = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(
                ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)],
                shapes=workloads.TINY,
            )
    finally:
        os.chdir(old)
    return code, out.getvalue().splitlines()


@pytest.fixture(scope="module")
def results():
    return {(name, trace): invoke(name, trace) for name in NAMES for trace in (0, 1)}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_printed_with_its_unit(results, workload, trace):
    code, lines = results[workload, trace]
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    provenance = json.loads(lines[-2])["provenance"]
    for key in ("python", "numpy", "blas", "blas_threads", "nproc", "cpu", "seed", "digest"):
        assert provenance[key] not in (None, "")


def test_every_layer_metric_is_measured_on_some_workload(results):
    # Edge F1 is a score, legitimately 0 at tiny shapes; the others are work done.
    measured = {"grcsl.edge_f1"}
    for name in NAMES:
        metrics = json.loads(results[name, 1][1][-1])["metrics"]
        measured |= {k for k, v in metrics.items() if v["value"] != 0}
    assert measured == {m["name"] for m in SPEC["per_layer"]}
    provenance = json.loads(results["structure-train", 1][1][-2])["provenance"]
    assert "grcsl.edge_f1" in provenance["quality"]


def test_bypassed_layers_do_no_work(results):
    forecast = json.loads(results["forecast-train", 1][1][-1])["metrics"]
    structure = json.loads(results["structure-train", 1][1][-1])["metrics"]
    assert forecast["grcsl.train.gru_step_calls"]["value"] == 0
    assert forecast["constraint.notears_h_calls"]["value"] == 0
    assert structure["dgcpm.dgcpm_forward_batch_calls"]["value"] == 0
    assert structure["cli.train_structure_s"]["value"] == 0


def test_broken_forecast_is_counted_as_failed(monkeypatch):
    real = workloads.dgcpm.predict

    def broken(*args, **kwargs):
        return real(*args, **kwargs) * np.nan

    monkeypatch.setattr(workloads.dgcpm, "predict", broken)
    code, lines = invoke("forecast-train", 0)
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] > 0


def test_broken_stage_is_counted_as_failed(monkeypatch):
    monkeypatch.setattr(workloads, "CLI_STAGES", workloads.CLI_STAGES + ("no-such-stage",))
    code, lines = invoke("cli-pipeline", 0)
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] == 1


def test_cycle_check():
    chain = np.zeros((3, 3), dtype=bool)
    chain[1, 0] = chain[2, 1] = True  # 0 -> 1 -> 2
    assert not workloads.has_cycle(chain)
    chain[0, 2] = True  # 2 -> 0 closes the loop
    assert workloads.has_cycle(chain)


def test_workload_that_would_not_fit_is_skipped(monkeypatch):
    monkeypatch.setattr(run, "mem_available_mb", lambda: 1.0)
    code, lines = invoke("structure-train", 0)
    assert code == 3
    assert "skipped structure-train" in lines[0]


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    code, lines = invoke("structure-train", 0, cwd=tmp_path)
    assert code == 2 and lines == []
