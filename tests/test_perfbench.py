"""The traced benchmark worker still runs against the package.

`perfbench/tracing.py` replaces package functions by name; a refactor
that renames or stops calling one of them breaks `--trace`.  Each case
runs one worker in a fresh interpreter, about a second each.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


@pytest.mark.parametrize("workload", ["ref10_inproc", "ref10_socket"])
def test_traced_worker_reports_round_time(workload, tmp_path):
    done = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload,
         "--out", str(tmp_path), "--trace"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["layers"]["coordinator.round_ms"] > 0
