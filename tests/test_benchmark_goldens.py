"""Replay a sample of the benchmark's pinned ops.

perfbench/golden.json holds the output digests and FAIL sets of every op in
the benchmark's pools (perfbench/workloads.py).  These tests run a sample of
those ops through the benchmark's own runner and check, so a moved output
byte fails here and not only in a benchmark run.  Both files are only read.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from crrelay.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Every alloc_scan unit (4,800 ops), every 50th mc_fresh unit and every 20th
# paper session.
STRIDES = {"alloc_scan": 1, "mc_fresh": 50, "paper": 20}


def _load_workloads():
    spec = importlib.util.spec_from_file_location("workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
GOLDEN = json.loads((BENCH / "golden.json").read_text())


@pytest.mark.parametrize("workload", sorted(STRIDES))
def test_benchmark_ops_match_their_goldens(workload, tmp_path):
    units = workloads.pool(workload)
    golden = GOLDEN[workload]
    assert workloads.inputs_digest(units) == golden["inputs"], (
        f"the {workload} pool of perfbench/workloads.py no longer matches "
        "perfbench/golden.json; regenerate it with python3 perfbench/golden.py")
    problems = []
    for i in range(0, len(units), STRIDES[workload]):
        for (kind, argv), want in zip(units[i], golden["units"][i],
                                      strict=True):
            record = workloads.run_op(main, kind, argv, tmp_path)
            problems += [f"unit {i} {' '.join(argv)}: {problem}"
                         for problem in workloads.check_op(record, want)]
    assert problems == []
