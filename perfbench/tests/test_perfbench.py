"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

They run the real package from src/, so the slower ones (the smoke runs and
the repeated traced runs) take about a minute in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

MAIN = run.import_cli_main()

import crrelay.harness  # noqa: E402
from crrelay.system import SystemParams  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("montecarlo.trials", "montecarlo.unique_trials",
          "allocation.bound_evals", "quadrature.calls", "harness.csv_bytes")


@pytest.fixture(scope="module")
def traced_twice():
    """Two traced runs per workload at one seed, one traced window each."""
    runs = {}
    for workload in workloads.WORKLOADS:
        units = 1 + run.TRACE_WINDOW[workload]
        runs[workload] = [run.measure(workload, 11, 0.01, 1, max_units=units)
                          for _ in range(2)]
    return runs


def _sets(argv):
    return [argv[i + 1] for i, a in enumerate(argv) if a == "--set"]


def test_generators_are_deterministic_in_their_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.pool(workload) == workloads.pool(workload)
        first = workloads.order(workload, 3)
        assert first == workloads.order(workload, 3)
        assert first != workloads.order(workload, 4)
        assert sorted(first) == list(range(workloads.POOL_SIZES[workload]))


def test_units_never_share_a_seed():
    paper = workloads.pool("paper")
    for reproduce, verify in paper:
        assert reproduce[1][:2] == verify[1][:2]     # one seed per session
    assert len({unit[0][1][1] for unit in paper}) == len(paper)
    sims = workloads.pool("mc_fresh")
    assert len({unit[0][1][1] for unit in sims}) == len(sims)
    assert {unit[0][1][-1] for unit in sims} == set(workloads.SCHEMES)


def test_every_generated_scenario_passes_validation():
    for workload in ("mc_fresh", "alloc_scan"):
        for unit in workloads.pool(workload):
            for _, argv in unit:
                params = crrelay.harness.load_config(None, _sets(argv))
                assert isinstance(params, SystemParams)


def test_alloc_scan_reaches_the_early_exit_paths(tmp_path):
    outputs = {"allocate": "", "analytic": ""}
    for unit in workloads.pool("alloc_scan")[:80]:
        for kind, argv in unit:
            record = workloads.run_op(MAIN, kind, argv, tmp_path)
            assert record["exit"] == 0
            outputs[kind] += record["stdout"]
    assert "infeasible" in outputs["allocate"]
    assert "secondary snr: 0 " in outputs["analytic"]


def _fake_reproduce(csv_bytes, fail_lines):
    def main(argv):
        out = Path(argv[argv.index("--out-dir") + 1])
        for name in workloads.REPRODUCE_CSVS:
            (out / name).write_bytes(csv_bytes.get(name, b"a,b\r\n1,2\r\n"))
        for line in fail_lines:
            print(line)
        return 2
    return main


def test_check_flags_a_one_byte_csv_change_and_a_changed_fail_set(tmp_path):
    fails = ["FAIL u_s_prime(eps=0.04): produced=0.0027 reference=0.021",
             "PASS alpha_eps(eps=0.04): produced=0.496 reference=0.488"]
    record = workloads.run_op(_fake_reproduce({}, fails), "reproduce", [], tmp_path)
    golden = workloads.golden_entry(record)
    assert record["fails"] == ["u_s_prime(eps=0.04)"]
    assert workloads.check_op(record, golden) == []

    changed = {"fig3.csv": b"a,b\r\n1,3\r\n"}
    record = workloads.run_op(_fake_reproduce(changed, fails), "reproduce", [], tmp_path)
    problems = workloads.check_op(record, golden)
    assert len(problems) == 1 and problems[0].startswith("fig3.csv")

    more = fails + ["FAIL alpha_eps(eps=0.05): produced=0.6 reference=0.489"]
    record = workloads.run_op(_fake_reproduce({}, more), "reproduce", [], tmp_path)
    problems = workloads.check_op(record, golden)
    assert len(problems) == 1 and problems[0].startswith("FAIL set")

    record["exit"] = 1
    assert len(workloads.check_op(record, golden)) == 2


def test_check_flags_a_changed_stdout(tmp_path):
    record = workloads.run_op(lambda argv: print("x") or 0, "simulate", [], tmp_path)
    golden = workloads.golden_entry(record)
    other = workloads.run_op(lambda argv: print("y") or 0, "simulate", [], tmp_path)
    assert workloads.check_op(record, golden) == []
    assert workloads.check_op(other, golden)[0].startswith("stdout digest")


def test_golden_fail_sets_are_the_by_design_ones():
    golden = json.loads((BENCH / "golden.json").read_text())
    for unit in golden["paper"]["units"]:
        assert unit[0][1] == sorted(workloads.BY_DESIGN_FAILS["reproduce"])
        assert unit[1][1] == list(workloads.BY_DESIGN_FAILS["verify"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_smoke_run_reports_every_end_to_end_metric(workload):
    result = run.measure(workload, 5, 0.01, 0, max_units=3)
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: unit for name, (_, unit) in result["metrics"].items()}
    assert got == want
    assert all(value > 0 for value, _ in result["metrics"].values())


def test_traced_runs_report_every_per_layer_metric(traced_twice):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload, (result, _) in traced_twice.items():
        assert result["correct"], workload
        got = {name: unit for name, (_, unit) in result["metrics"].items()}
        assert got == want
        assert result["metrics"]["trace.missing_spans"][0] == 0


def test_counts_repeat_exactly_at_one_seed(traced_twice):
    for workload, (a, b) in traced_twice.items():
        for name in COUNTS:
            assert a["metrics"][name] == b["metrics"][name], (workload, name)


def test_unique_trial_ratios(traced_twice):
    paper = traced_twice["paper"][0]["metrics"]
    # fig3: 26 points x 3 schemes x 1e5 trials; verify: 2 x 1e6; one seed
    assert paper["montecarlo.trials"][0] == 9_800_000
    assert paper["montecarlo.unique_trials"][0] == 1_000_000
    assert paper["montecarlo.unique_trial_ratio"][0] == pytest.approx(0.102, abs=5e-4)
    assert traced_twice["mc_fresh"][0]["metrics"]["montecarlo.unique_trial_ratio"][0] == 1.0


def test_default_allocate_evaluates_30564_bounds(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        record = workloads.run_op(MAIN, "allocate", ["allocate"], tmp_path)
    finally:
        tracer.uninstall()
    assert record["exit"] == 0
    assert tracer.calls_of("upper_bound_d1", "allocation") == 30_564


def test_a_removed_wrap_target_is_reported_not_fatal(monkeypatch, tmp_path):
    original = crrelay.harness.total_secondary_outage
    monkeypatch.delattr(crrelay.harness, "estimate")
    tracer = Tracer()
    tracer.install()
    try:
        assert "crrelay.harness.estimate" in tracer.missing()
        assert crrelay.harness.total_secondary_outage is not original
    finally:
        tracer.uninstall()
    assert crrelay.harness.total_secondary_outage is original


def test_command_prints_the_result_line_last():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "alloc_scan",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_fresh",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
