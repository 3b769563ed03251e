#!/usr/bin/env python3
"""Regenerate perfbench/golden.json: run every pool entry of the named
workloads once (all of them by default) and keep each op's output digests
and FAIL set.

    python3 perfbench/golden.py [paper] [mc_fresh] [alloc_scan]

Only regenerate when crrelay's output bytes are meant to change; the
benchmark counts any op whose output differs from golden.json as failed.
"""

import json
import sys

import run
import workloads


def generate(workload: str, main) -> tuple:
    units = workloads.pool(workload)
    workdir = run.OUT / "work" / "golden"
    entries, notes = [], {}
    for unit in units:
        entry = []
        for kind, argv in unit:
            record = workloads.run_op(main, kind, argv, workdir)
            if record["exit"] not in workloads.OK_EXIT_CODES:
                raise RuntimeError(f"{' '.join(argv)}: exit {record['exit']}\n"
                                   f"{record['error']}")
            expected = sorted(workloads.BY_DESIGN_FAILS.get(kind, ()))
            if record["fails"] != expected:
                notes.setdefault("fail sets other than by design", []).append(
                    [argv, record["fails"]])
            entry.append(workloads.golden_entry(record))
        entries.append(entry)
    return {"inputs": workloads.inputs_digest(units), "units": entries}, notes


def main(names) -> int:
    cli_main = run.import_cli_main()
    path = run.HERE / "golden.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    golden["pool_seed"] = workloads.POOL_SEED
    for workload in names or workloads.WORKLOADS:
        golden[workload], notes = generate(workload, cli_main)
        print(f"{workload}: {len(golden[workload]['units'])} units", notes or "")
    path.write_text(json.dumps(golden, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
