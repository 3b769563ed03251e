#!/usr/bin/env python3
"""crrelay benchmark.

    python3 perfbench/run.py --workload {paper,mc_fresh,alloc_scan,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Runs one workload in this process, calling ``crrelay.cli.main(argv)`` with
the argv a user would type, checks every op's output against golden.json,
and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` measures the
end-to-end metrics with nothing wrapped; ``--trace 1`` wraps the package's
cross-module calls (tracing.py) and reports the per-layer metrics, with the
tracing overhead against an untraced replay of the same units.  Each run
also writes every op's digests, the environment and (traced) the spans to
perfbench/out/.  See perfbench/README.md for the metrics.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

SETUP_REPS = 9
WORKER_PROBE_REPS = 2
# Units per traced window: counts come from the first window, so they repeat
# exactly at one seed whatever the machine's speed.
TRACE_WINDOW = {"paper": 2, "mc_fresh": 9, "alloc_scan": 40}
UNIT_NAMES = {
    "paper": "session: reproduce --target all + verify",
    "mc_fresh": "one 1e6-trial simulate",
    "alloc_scan": "allocate + analytic --alpha 1",
}
UNIFORM_BYTES_PER_TRIAL = 64   # 8 float64 uniforms per trial (stream contract)


def import_cli_main():
    """crrelay.cli.main from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import crrelay.cli

    where = Path(crrelay.__file__).resolve().parent.parent
    if where != SRC.resolve():
        raise ImportError(f"crrelay imported from {where}, not from {SRC}")
    return crrelay.cli.main


def load_golden(workload: str, units: list) -> list:
    golden = json.loads((HERE / "golden.json").read_text())[workload]
    if golden["inputs"] != workloads.inputs_digest(units):
        raise ValueError(f"golden.json is stale for {workload}; regenerate "
                         "it with python3 perfbench/golden.py")
    return golden["units"]


def run_unit(main, unit, golden_unit, workdir, tracer=None, unit_id=None):
    """Run one unit's ops and check each against its golden entry."""
    if tracer is not None:
        tracer.begin_unit(unit_id)
        traced_main = main

        def main(argv):
            return tracer.call("cli", "main", traced_main, argv)
    records = []
    for (kind, argv), want in zip(unit, golden_unit):
        record = workloads.run_op(main, kind, argv, workdir)
        record["problems"] = workloads.check_op(record, want)
        if not record["problems"]:
            del record["stdout"]
        records.append(record)
    if tracer is not None:
        tracer.end_unit()
    return records


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def fresh_import_seconds() -> float:
    """Wall time for a fresh interpreter to import crrelay (numpy included),
    which every CLI invocation pays."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import crrelay"
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return perf_counter() - start


def git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable ({exc.__class__.__name__})"
    return done.stdout.strip() if done.returncode == 0 else "unavailable (not a git checkout)"


def environment(main, seed, workdir) -> dict:
    """Versions, cores and the 1- vs 2-worker simulate ratio (reported only:
    on a shared machine with about one core of compute it sits near 1x)."""
    import numpy

    walls = {1: [], 2: []}
    for _ in range(WORKER_PROBE_REPS):
        for workers in (1, 2):
            argv = ["--trials", str(workloads.SIM_TRIALS), "--workers",
                    str(workers), "simulate"]
            walls[workers].append(
                workloads.run_op(main, "simulate", argv, workdir)["wall_s"])
    one, two = statistics.median(walls[1]), statistics.median(walls[2])
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_describe": git_describe(),
        "workload_seed": seed,
        "simulate_1_worker_s": one,
        "simulate_2_workers_s": two,
        "simulate_2_worker_speedup": one / two,
    }


def _balanced(samples, stat):
    """stat of the (cpu, value) samples taken on each CPU, averaged over the
    CPUs, so each CPU weighs the same however many samples it got."""
    by_cpu = {}
    for cpu, value in samples:
        by_cpu.setdefault(cpu, []).append(value)
    return statistics.fmean(stat(values) for values in by_cpu.values())


def _measure_untraced(main, workload, seq, units, golden, workdir, seconds, log):
    # Units alternate between two of the CPUs this process may use.  On a
    # shared VM one vCPU can run 40% slower than the other for minutes, so a
    # run left on whichever CPU the scheduler picked measures that lottery.
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)[:2]
    start = perf_counter()
    deadline = start + seconds
    unit_walls, kind_walls, setup_all = [], {}, []
    try:
        for k, index in enumerate(seq):
            cpu = cpus[k % len(cpus)]
            os.sched_setaffinity(0, {cpu})
            # Set-up samples are spread over the run, between units, so that
            # one slow stretch cannot move all of them at once.
            if perf_counter() >= start + len(setup_all) * seconds / SETUP_REPS:
                setup_all.append((cpu, fresh_import_seconds()))
            records = run_unit(main, units[index], golden[index], workdir)
            log.record("measured", index, records)
            unit_walls.append((cpu, sum(r["wall_s"] for r in records)))
            for r in records:
                kind_walls.setdefault(r["kind"], []).append((cpu, r["wall_s"]))
            if perf_counter() >= deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        k = len(unit_walls)
        while len(setup_all) < SETUP_REPS or len({c for c, _ in setup_all}) < len(cpus):
            cpu = cpus[k % len(cpus)]
            os.sched_setaffinity(0, {cpu})
            setup_all.append((cpu, fresh_import_seconds()))
            k += 1
    finally:
        os.sched_setaffinity(0, allowed)
    median = statistics.median
    metrics = {
        "setup_s": (_balanced(setup_all, median), "s"),
        "op_ms_p50": (_balanced(unit_walls, median) * 1e3, "ms"),
        "op_ms_p90": (_balanced(unit_walls, _p90) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    n = len(unit_walls)
    on = f"on CPUs {cpus}, averaged over the CPUs"
    notes = {
        "setup_s": f"median of {len(setup_all)} fresh interpreters {on}",
        "op_ms_p50": f"median of {n} units ({UNIT_NAMES[workload]}) {on}",
        "op_ms_p90": f"p90 of {n} units {on}",
        "peak_rss_mb": "peak resident set of this process",
    }
    details = {}
    if workload == "paper":
        details["reproduce_all_s"] = (_balanced(kind_walls["reproduce"], median), "s")
        details["verify_s"] = (_balanced(kind_walls["verify"], median), "s")
    elif workload == "mc_fresh":
        sims = [wall for _, wall in kind_walls["simulate"]]
        details["sim_trials_per_s"] = (workloads.SIM_TRIALS * len(sims) / sum(sims), "1/s")
        details["simulate_s_p50"] = (_balanced(kind_walls["simulate"], median), "s")
    else:
        details["design_ms_p50"] = (metrics["op_ms_p50"][0], "ms")
        details["design_ms_p90"] = (metrics["op_ms_p90"][0], "ms")
    return metrics, notes, details


def _measure_traced(main, workload, seq, units, golden, workdir, seconds, log):
    tracer = Tracer()
    size = TRACE_WINDOW[workload]
    windows = [seq[k:k + size] for k in range(0, len(seq), size)]
    deadline = perf_counter() + seconds
    wall = {True: 0.0, False: 0.0}
    traced_units = 0
    first = None
    for r, window in enumerate(windows):
        for traced in ((True, False) if r % 2 == 0 else (False, True)):
            if traced:
                tracer.install()
                missing = tracer.missing()
            csv_bytes = 0
            try:
                for index in window:
                    records = run_unit(main, units[index], golden[index], workdir,
                                       tracer if traced else None, f"{r}:{index}")
                    log.record("traced" if traced else "untraced", index, records)
                    wall[traced] += sum(rec["wall_s"] for rec in records)
                    csv_bytes += sum(rec["csv_bytes"] for rec in records)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                traced_units += len(window)
            if first is None and traced:
                first = {
                    "units": len(window), "calls": dict(tracer.calls),
                    "trials": tracer.trials, "unique": tracer.unique_trials,
                    "bound_evals": tracer.calls_of("upper_bound_d1", "allocation"),
                    "allocates": tracer.calls_of("allocate"),
                    "derives": tracer.calls_of("derive"), "csv_bytes": csv_bytes,
                }
        if perf_counter() >= deadline:
            break
    n0 = first["units"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (first["calls"][layer] / n0, "count")
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer] / traced_units, "s")
    mc_self = tracer.self_s["montecarlo"]
    metrics.update({
        "montecarlo.trials": (first["trials"] / n0, "count"),
        "montecarlo.unique_trials": (first["unique"] / n0, "count"),
        "montecarlo.unique_trial_ratio": (
            first["unique"] / first["trials"] if first["trials"] else 0.0, "ratio"),
        "montecarlo.trials_per_self_s": (
            tracer.trials / mc_self if mc_self > 0.0 else 0.0, "1/s"),
        "montecarlo.uniform_bytes_computed": (
            UNIFORM_BYTES_PER_TRIAL * first["trials"] / n0, "B"),
        "allocation.bound_evals": (
            first["bound_evals"] / first["allocates"] if first["allocates"] else 0.0,
            "count"),
        "system.derive.calls": (first["derives"] / n0, "count"),
        "harness.csv_bytes": (first["csv_bytes"] / n0, "B"),
        "trace.overhead_ratio": (wall[True] / wall[False] - 1.0, "ratio"),
        "trace.missing_spans": (len(missing), "count"),
    })
    notes = {
        "counts": f"per unit over the first traced window of {n0} units",
        "self_s": f"per unit over {traced_units} traced units",
        "trace.overhead_ratio": "traced wall over untraced replay of the same units, minus 1",
        "missing_spans": missing,
    }
    return metrics, notes, tracer.spans


class OpLog:
    """Every op's record, streamed to a JSON-lines file as it completes, so
    the benchmark's own memory does not grow with the number of ops (that
    would show in peak_rss_mb when the program gets faster)."""

    def __init__(self, path: Path):
        self.path = path
        self.attempted = 0
        self.failures = []

    def __enter__(self):
        self._file = self.path.open("w")
        return self

    def __exit__(self, *exc):
        self._file.close()

    def record(self, phase: str, index: int, records: list):
        for op in records:
            self.attempted += 1
            if op["problems"]:
                self.failures.append(op)
            self._file.write(json.dumps({"phase": phase, "pool": index, **op}) + "\n")


def measure(workload: str, seed: int, seconds: float, trace: int,
            max_units: int | None = None) -> dict:
    """One benchmark run; returns the full results record."""
    main = import_cli_main()
    units = workloads.pool(workload)
    golden = load_golden(workload, units)
    seq = workloads.order(workload, seed)
    if max_units is not None:
        seq = seq[:max_units]
    stem = f"{workload}-seed{seed}-trace{trace}"
    workdir = OUT / "work" / stem
    OUT.mkdir(parents=True, exist_ok=True)
    with OpLog(OUT / f"{stem}.ops.jsonl") as log:
        # The first unit is a warm-up (checked, not timed): lazy imports and
        # first-call costs that an in-process loop would charge to it alone.
        log.record("warmup", seq[0],
                   run_unit(main, units[seq[0]], golden[seq[0]], workdir))
        if trace:
            metrics, notes, spans = _measure_traced(
                main, workload, seq[1:], units, golden, workdir, seconds, log)
            details = {}
        else:
            metrics, notes, details = _measure_untraced(
                main, workload, seq[1:], units, golden, workdir, seconds, log)
            spans = None
    failed = len(log.failures)
    details["ops_failed_ratio"] = (failed / log.attempted, "ratio")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": failed == 0, "attempted": log.attempted, "failed": failed,
        "metrics": metrics, "details": details, "notes": notes,
        "environment": environment(main, seed, workdir),
        "ops_log": str(log.path.relative_to(ROOT)), "failures": log.failures,
        "spans": spans,
    }


def _summary(result: dict) -> dict:
    return {
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()},
    }


def report(result: dict, results_path: Path) -> list:
    lines = [f"crrelay benchmark: workload={result['workload']} "
             f"seed={result['seed']} seconds={result['seconds']} "
             f"trace={result['trace']}"]
    for name, (value, unit) in {**result["metrics"], **result["details"]}.items():
        note = result["notes"].get(name, "")
        lines.append(f"  {name:34s} {value:16.6g} {unit:6s} {note}")
    for op in result["failures"]:
        lines.append(f"  FAILED {op['kind']} {' '.join(op['argv'])}: "
                     + "; ".join(op["problems"]))
    env = result["environment"]
    lines.append("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if result["trace"]:
        missing = result["notes"]["missing_spans"]
        lines.append("  missing spans: " + (", ".join(missing) or "none"))
    lines.append(f"  results: {results_path.relative_to(ROOT)}, ops: {result['ops_log']}")
    return lines


def run_all(args) -> int:
    """Every workload, each in a fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {done.returncode}",
                  file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for name, metric in part["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
        path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1))
    except (ImportError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report(result, path)))
    print(json.dumps(_summary(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
