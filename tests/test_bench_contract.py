"""The benchmark's calls into pilotseq keep working.

``perfbench/workloads.py`` drives pilotseq through its public API, and its
own smoke test sits outside this suite's test paths. This test builds each
workload at its tiny size, runs one pass, derives the per-layer metrics and
requires every output check to pass, so a change that breaks a call the
benchmark makes fails here too.
"""

import collections
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402
from tracing import NULL_TRACER  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks(name, tmp_path):
    wl = workloads.WORKLOADS[name](1, True, tmp_path / name)
    result = wl.traced_pass(NULL_TRACER)
    wl.layers(collections.defaultdict(float))
    failed = [(check, detail) for check, ok, detail in wl.checks(result) if not ok]
    assert not failed
