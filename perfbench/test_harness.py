"""Smoke test of the benchmark harness itself, at minimal size.

    python3 -m pytest perfbench/test_harness.py

Each run is as short as the harness allows (whole cycles of the CLI
workloads, a fraction of a second of oracle-sweep), so these check the
plumbing, not the numbers: every metric named in BENCHMARK.json is
emitted with its unit, and a planted wrong expected value is counted as
a failed op.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def expected_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", ["cli-mix", "oracle-sweep"])
def test_planted_wrong_value_counts_as_failure(workload):
    done = bench("--workload", workload, "--trace", "0", "--plant-error")
    out = result(done)
    assert units(out["metrics"]) == expected_units("end_to_end")
    assert not out["correct"]
    assert 1 <= out["failed"] <= out["attempted"]
    assert f"error_rate {out['failed'] / out['attempted']:.4f}" in done.stdout


def test_search_cold_end_to_end():
    out = result(bench("--workload", "search-cold", "--trace", "0"))
    assert out["correct"] and out["failed"] == 0
    assert units(out["metrics"]) == expected_units("end_to_end")
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_run_emits_every_layer_metric():
    done = bench("--workload", "oracle-sweep", "--trace", "1")
    out = result(done)
    assert out["correct"]
    assert units(out["metrics"]) == expected_units("per_layer")
    assert out["metrics"]["oracle.verify_claims.calls"]["value"] == 1.0
    assert "tracing overhead" in done.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "cli-mix", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
