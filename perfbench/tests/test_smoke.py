"""Short runs of the benchmark command on every workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_traced_run_prints_every_layer_metric(workload):
    metrics = _result(_run(ROOT, workload, 1))["metrics"]
    assert set(metrics) == {m["name"] for m in BENCH["per_layer"]}
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert all(v["unit"] == units[k] for k, v in metrics.items())
    models = metrics["training.models"]["value"]
    assert models == (1.0 if workload == "detect-retrain" else 0.0)


def test_untraced_run_prints_every_end_to_end_metric():
    proc = _run(ROOT, "detect-model", 0)
    metrics = _result(proc)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]
    }
    assert all(v["value"] > 0 for v in metrics.values())
    host = next(json.loads(x[5:]) for x in proc.stdout.splitlines() if x.startswith("host "))
    assert {"nproc", "steal_ticks", "commit", "python", "numpy"} <= set(host)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "detect-model", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
