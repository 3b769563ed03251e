"""Replay a sample of the benchmark's pinned ops.

perfbench/golden.json holds the output digests and FAIL sets of every op in
the benchmark's pools (perfbench/workloads.py).  These tests run a sample of
those ops through the benchmark's own runner and check, so a moved output
byte fails here and not only in a benchmark run.  Two more checks read the
benchmark's files: its tracer's layers (perfbench/tracing.py) must be the
package's modules, and four pinned primary outages are known to be off in
their sixth digit.  Every file is only read.
"""

import importlib.util
import json
import pkgutil
import re
from pathlib import Path

import pytest

import crrelay
from crrelay import derive
from crrelay.analytic import _user_gains
from crrelay.cli import _build_parser, _plain_args, main
from crrelay.harness import load_config

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Every alloc_scan unit (4,800 ops), every 50th mc_fresh unit and every 20th
# paper session.
STRIDES = {"alloc_scan": 1, "mc_fresh": 50, "paper": 20}


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_bench("workloads")
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


def test_benchmark_argv_are_all_plain(tmp_path):
    # every argv the benchmark runs is read by the CLI's plain-argv reader,
    # with the namespace argparse would build; an argv that fell back to
    # argparse would lose the reader's gain without failing anything else
    parser = _build_parser()
    fallbacks, mismatches, count = [], [], 0
    for workload in workloads.WORKLOADS:
        for unit in workloads.pool(workload):
            for _, argv in unit:
                full = ["--out-dir", str(tmp_path), *argv]
                count += 1
                fast = _plain_args(parser, full)
                if fast is None:
                    fallbacks.append(full)
                elif fast != parser.parse_args(full):
                    mismatches.append(full)
    assert count == 5280
    assert (fallbacks, mismatches) == ([], [])


def test_tracer_layers_are_the_package_modules():
    # a module the tracer does not list is never traced, and a listed one
    # that is gone leaves its layer at zero, so traced runs would misreport
    # either silently
    modules = {m.name for m in pkgutil.iter_modules(crrelay.__path__)}
    layers = _load_bench("tracing").LAYERS
    assert sorted(layers) == sorted(modules)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 6: the full-power form's sixth digit is off on these "
    "alloc_scan units; item 6's exact rule re-pins their goldens and must "
    "drop this mark"))
def test_alloc_scan_pins_full_power_to_six_digits(capsys):
    # the primary's full-power outage of `analytic --alpha 1` printed by four
    # pinned alloc_scan units, against the %.6g rounding of 40-digit mpmath
    # of the integral of e^-E * R(lambda - g_rp*E) over E in [0, lambda/g_rp],
    # R the ratio outage of the direct link under primary interference
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    units = workloads.pool("alloc_scan")
    printed, exact = {}, {}
    for i in (260, 581, 1843, 2263):
        _, argv = units[i][1]   # the unit's `analytic --alpha 1` op
        main(argv)
        printed[i] = re.search(r"pri_d1=(\S+)", capsys.readouterr().out)[1]
        sets = [argv[k + 1] for k, arg in enumerate(argv) if arg == "--set"]
        g_sig, g_cross, g_relay, lam, _ = map(
            mp.mpf, _user_gains(derive(load_config(None, sets)), "primary"))

        def ratio_outage(t):
            return 1 - g_sig * mp.exp(-t / g_sig) / (g_sig + t * g_cross)

        value = mp.quad(lambda e: mp.exp(-e) * ratio_outage(lam - g_relay * e),
                        [0, lam / g_relay])
        exact[i] = f"{float(value):.6g}"
    assert printed == exact
