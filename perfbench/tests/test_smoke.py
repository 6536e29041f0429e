"""Tiny-size smoke test of the benchmark.

Every metric that BENCHMARK.json declares is printed by name with its unit,
both in the table and in the final JSON line, and no output check fails.
Run from the root of the checkout: python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    table = {line.split()[0]: line.split()[1:] for line in lines[:-1] if line.strip()}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        value, unit = table[m["name"]][:2]
        assert unit == m["unit"]
        assert float(value) == pytest.approx(result["metrics"][m["name"]]["value"], rel=1e-5)
    if not trace:
        assert table["fail_ratio"][:2] == ["0", "ratio"]
        for name in ("mc_det_gap", "design_gap"):
            assert table[name][1] == "ratio"


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "workloads.py", "tracing.py", "hostspeed.py"):
        (tmp_path / "perfbench" / name).write_text((ROOT / "perfbench" / name).read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
