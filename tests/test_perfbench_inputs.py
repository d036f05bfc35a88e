"""The benchmark's input builder and oracle-sweep worker run against the
package, so a name that `perfbench/ops.py` imports and the package moves or
renames, or a checker change that fails the sweep op, fails here, not only
when the benchmark runs."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

OPS = Path(__file__).resolve().parent.parent / "perfbench" / "ops.py"


def _ops(*args):
    done = subprocess.run(
        [sys.executable, str(OPS), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=120,
        # leave no bytecode beside the benchmark's sources
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("workload", ["cli-mix", "search-cold", "oracle-sweep"])
def test_benchmark_inputs_build(workload, tmp_path):
    out = tmp_path / "inputs.json"
    _ops("inputs", workload, 1, out)
    inputs = json.loads(out.read_text())
    assert isinstance(inputs, dict) and inputs["ops"]


def test_oracle_sweep_sample_is_pinned(tmp_path):
    """The oracle-sweep sample at seed 41: indices into `sweep_configs()`
    drawn by order count, so the digest moves if the family's configs,
    their order or their layouts' order totals do."""
    out = tmp_path / "inputs.json"
    _ops("inputs", "oracle-sweep", 41, out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "29332a83ff28bddd8de647cd0d878b09983667da3186bc6a0a7d1bbef9652577"
    )


@pytest.mark.parametrize("plant, failures", [(0, 0), (1, 1)])
def test_oracle_sweep_op_fails_only_where_planted(plant, failures, tmp_path):
    """One whole cycle of the oracle-sweep op (the worker runs whole
    cycles until its time is up): every sampled config passes all nine
    claims and the max-flow check, and a planted wrong expected value on
    the first op is the one failure."""
    inputs, out = tmp_path / "inputs.json", tmp_path / "sweep.json"
    _ops("inputs", "oracle-sweep", 1, inputs)
    _ops("sweep", inputs, out, 0.1, plant)
    result = json.loads(out.read_text())
    cycle = len(json.loads(inputs.read_text())["ops"])
    assert result["latencies"] and len(result["latencies"]) % cycle == 0
    assert len(result["failures"]) == failures, result["failures"][:3]
