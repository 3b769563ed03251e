"""Benchmark workloads: the argv each op passes to ``crrelay.cli.main``, the
fixed input pools the ops are drawn from, and the checks on each op's output.

Every workload is a list of *units*, the thing a user waits for:

* ``paper``: one session, ``reproduce --target all`` then ``verify`` at 1e6
  trials, both under the session's seed;
* ``mc_fresh``: one 1e6-trial ``simulate`` on a random scenario;
* ``alloc_scan``: ``allocate`` then ``analytic --alpha 1`` on one random
  scenario.

Units come from a fixed pool per workload, built from ``POOL_SEED``; the
workload seed only picks the order in which a run visits the pool.  A run
never visits one pool entry twice, so no unit repeats another's inputs inside
one process, and every op has a golden output digest (``golden.json``).
"""

import hashlib
import io
import math
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

WORKLOADS = ("paper", "mc_fresh", "alloc_scan")

POOL_SEED = 1109_2843
POOL_SIZES = {"paper": 40, "mc_fresh": 400, "alloc_scan": 2400}

SIM_TRIALS = 1_000_000
VERIFY_TRIALS = 1_000_000
SCHEMES = ("proposed", "noncooperative", "relay_assisted_secondary")
REPRODUCE_CSVS = tuple(f"{t}.csv" for t in
                       ("table1", "fig2", "fig3", "fig4", "fig5", "fig6"))

# Checks that fail by design at the seed commit: C1b's allocation-table
# outage rows and C3b's activation row (see the package README).
BY_DESIGN_FAILS = {
    "reproduce": tuple(f"u_s_prime(eps={e})"
                       for e in (0.04, 0.05, 0.06, 0.07, 0.08, 0.09)),
    "verify": ("relay activation frequency",),
}

# Exit code 2 is how reproduce and verify report a FAIL row; the FAIL set
# check, not the exit code, decides whether such an op is correct.
OK_EXIT_CODES = (0, 2)


def _scenario(rng: random.Random, kind: str) -> list:
    """Random valid scenario as ``--set`` arguments.

    kind "normal" sits 1-15 dB above the secondary-admission cutoff,
    "below_cutoff" 0.5-5 dB below it (no secondary access: the allocator's
    early exit), and "weak_relay" gives the relay-to-primary link so little
    variance that the primary bound is usually out of reach (infeasible).
    """
    rate_p = round(rng.uniform(0.2, 0.5), 3)
    rate_s = round(rng.uniform(0.1, 0.4), 3)
    epsilon = round(rng.uniform(0.01, 0.1), 4)
    link = {
        "pp": rng.uniform(0.5, 2.0), "sp": rng.uniform(0.05, 0.5),
        "ps": rng.uniform(0.05, 0.5), "ss": rng.uniform(0.5, 2.0),
        "pr": rng.uniform(0.1, 2.0), "sr": rng.uniform(0.1, 2.0),
        "rp": rng.uniform(0.1, 2.0), "rs": rng.uniform(0.1, 2.0),
    }
    link = {k: round(v, 3) for k, v in link.items()}
    if kind == "weak_relay":
        link["rp"] = round(rng.uniform(1e-4, 1e-3), 6)
    theta_p = 2.0 ** rate_p - 1.0
    cutoff_db = 10.0 * math.log10(theta_p / (-link["pp"] * math.log1p(-epsilon)))
    if kind == "below_cutoff":
        snr_p_db = cutoff_db - rng.uniform(0.5, 5.0)
    else:
        snr_p_db = cutoff_db + rng.uniform(1.0, 15.0)
    values = {
        "rate_p": rate_p, "rate_s": rate_s,
        "snr_p_db": round(snr_p_db, 2),
        "snr_r_db": round(rng.uniform(0.0, 25.0), 2),
        "epsilon": epsilon,
        **{f"link_vars.{k}": v for k, v in link.items()},
    }
    sets = []
    for key, val in values.items():
        sets += ["--set", f"{key}={val!r}"]
    return sets


def _alpha(rng: random.Random) -> str:
    """An extreme split (exact forms) or an interior one (bounds)."""
    pick = rng.randrange(3)
    if pick == 0:
        return "0"
    if pick == 1:
        return "1"
    return repr(round(rng.uniform(0.05, 0.95), 3))


def pool(workload: str) -> list:
    """The workload's fixed pool: a list of units, each a list of
    ``(kind, argv)`` ops.  argv excludes ``--out-dir``, which the runner
    adds."""
    if workload not in WORKLOADS:
        raise ValueError(f"workload must be one of {WORKLOADS}")
    rng = random.Random(f"{POOL_SEED}:{workload}")
    n = POOL_SIZES[workload]
    seeds = rng.sample(range(1, 2 ** 31), n)
    units = []
    for i, seed in enumerate(seeds):
        if workload == "paper":
            units.append([
                ("reproduce", ["--seed", str(seed), "reproduce", "--target", "all"]),
                ("verify", ["--seed", str(seed), "--trials", str(VERIFY_TRIALS),
                            "verify", "--alpha", "0.5"]),
            ])
        elif workload == "mc_fresh":
            sets = _scenario(rng, "normal")
            units.append([
                ("simulate", ["--seed", str(seed), "--trials", str(SIM_TRIALS),
                              *sets, "simulate", "--alpha", _alpha(rng),
                              "--scheme", SCHEMES[i % len(SCHEMES)]]),
            ])
        else:
            kind = rng.choices(("normal", "below_cutoff", "weak_relay"),
                               weights=(8, 1, 1))[0]
            sets = _scenario(rng, kind)
            units.append([
                ("allocate", [*sets, "allocate"]),
                ("analytic", [*sets, "analytic", "--alpha", "1"]),
            ])
    return units


def order(workload: str, seed: int) -> list:
    """Pool indices in the order a run with this workload seed visits them."""
    n = POOL_SIZES[workload]
    return random.Random(seed).sample(range(n), n)


def inputs_digest(units: list) -> str:
    """Digest of every argv in a pool; golden.json is stale when it moves."""
    text = "\n".join(" ".join(argv) for unit in units for _, argv in unit)
    return digest(text.encode())


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def fail_set(stdout: str) -> list:
    """Names of the FAIL rows in a report, sorted."""
    names = []
    for line in stdout.splitlines():
        if line.startswith("FAIL "):
            names.append(line[5:].rpartition(": ")[0] or line[5:])
    return sorted(names)


def run_op(main, kind: str, argv: list, workdir: Path) -> dict:
    """Run one op in-process and return its timing and output record.

    Files the op writes land in workdir, which is emptied first (outside the
    timed region) so that a file the op failed to write cannot pass.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    for stale in workdir.iterdir():
        stale.unlink()
    full = ["--out-dir", str(workdir), *argv]
    out, err = io.StringIO(), io.StringIO()
    error = ""
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(full)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the benchmark keeps going and reports the op as failed
        code = None
        error = traceback.format_exc()
    wall = perf_counter() - start
    stdout = out.getvalue()
    if kind == "reproduce":
        csvs = {}
        for name in REPRODUCE_CSVS:
            path = workdir / name
            csvs[name] = path.read_bytes() if path.exists() else b""
        produced = {name: digest(data) for name, data in csvs.items()}
        csv_bytes = sum(len(data) for data in csvs.values())
    else:
        produced = digest(stdout.encode())
        csv_bytes = 0
    return {
        "kind": kind, "argv": full, "exit": code, "wall_s": wall, "stdout": stdout,
        "out": produced, "fails": fail_set(stdout), "csv_bytes": csv_bytes,
        "error": error or err.getvalue()[-2000:],
    }


def golden_entry(record: dict) -> list:
    """What golden.json keeps of one op: its output digest(s) and FAIL set."""
    return [record["out"], record["fails"]]


def check_op(record: dict, golden: list) -> list:
    """Problems with one op's output against its golden entry (empty = ok)."""
    problems = []
    if record["exit"] not in OK_EXIT_CODES:
        problems.append(f"exit code {record['exit']}")
    want_out, want_fails = golden
    if isinstance(want_out, dict):
        for name, want in want_out.items():
            got = record["out"].get(name)
            if got != want:
                problems.append(f"{name} digest {got} != golden {want}")
    elif record["out"] != want_out:
        problems.append(f"stdout digest {record['out']} != golden {want_out}")
    if record["fails"] != list(want_fails):
        problems.append(f"FAIL set {record['fails']} != golden {list(want_fails)}")
    return problems
