"""The benchmark's input builder runs against the package, so a name that
`perfbench/ops.py` imports and the package moves or renames fails here,
not only when the benchmark runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

OPS = Path(__file__).resolve().parent.parent / "perfbench" / "ops.py"


@pytest.mark.parametrize("workload", ["cli-mix", "search-cold", "oracle-sweep"])
def test_benchmark_inputs_build(workload, tmp_path):
    out = tmp_path / "inputs.json"
    done = subprocess.run(
        [sys.executable, str(OPS), "inputs", workload, "1", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
        # leave no bytecode beside the benchmark's sources
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert done.returncode == 0, done.stderr
    inputs = json.loads(out.read_text())
    assert isinstance(inputs, dict) and inputs["ops"]
