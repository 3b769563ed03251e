#!/usr/bin/env python3
"""Replay every public closed form and the allocator over seeded scenarios.

    python3 tests/replay.py [--out FILE] [--against FILE]

Evaluates, on every scenario of three named, seeded families, every public
closed form that takes the derived scenario first (for both users and at
splits 0, 0.5 and 1 where it takes them), every field of each scheme's
closed-form record (harness._closed_forms), alpha_for_primary_bound,
min_snr_r_for_epsilon and allocate.  Each call is one line, its key and
then the float.hex of its value or its exception's type and message, so a
change that should move no byte can be checked by running this on both
trees: `--out FILE` writes the record, and `--against FILE` prints each call
whose line moved (or appeared or went) and exits 1 if any did.  With
neither option the record goes to stdout.  The crrelay it replays is the one
in this checkout's src/.

Families:
* ``pool``: the scenarios of the benchmark's alloc_scan pool
  (perfbench/workloads.py);
* ``realistic``: SNRs in -20..120 dB, each link variance 1 or 10^(+-12);
* ``wide``: wide_scenarios(), the admitted scenarios of the simulator's
  oracle test.
"""

import argparse
import functools
import importlib.util
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from crrelay import (  # noqa: E402
    LinkTable,
    SystemParams,
    allocate,
    cond_outage_d0,
    cond_outage_d1_exact,
    db_to_linear,
    derive,
    noncoop_outage,
    prob_decode_order,
    prob_relay_active,
    prob_relay_active_exact,
    upper_bound_d1,
)
from crrelay.allocation import (  # noqa: E402
    alpha_for_primary_bound,
    min_snr_r_for_epsilon,
)
from crrelay.harness import _closed_forms, load_config  # noqa: E402
from crrelay.montecarlo import SCHEMES  # noqa: E402
from crrelay.system import LINKS  # noqa: E402

SPLITS = (0.0, 0.5, 1.0)
FAMILY_SIZES = {"pool": 2400, "realistic": 2000, "wide": 2000}


def wide_scenarios(rng, count):
    """Admitted scenarios with link variances log-uniform in 10^(+-1), snr_p
    in 5-35 dB, snr_r in -10-30 dB, epsilon in 0.01-0.1, rates in 0.1-0.5."""
    scenarios = []
    while len(scenarios) < count:
        params = SystemParams(
            rate_p=rng.uniform(0.1, 0.5), rate_s=rng.uniform(0.1, 0.5),
            snr_p=db_to_linear(rng.uniform(5.0, 35.0)),
            snr_r=db_to_linear(rng.uniform(-10.0, 30.0)),
            epsilon=rng.uniform(0.01, 0.1),
            link_vars=LinkTable(
                **{name: 10.0 ** rng.uniform(-1.0, 1.0) for name in LINKS}))
        if derive(params).snr_s > 0.0:
            scenarios.append(params)
    return scenarios


def realistic_scenario(rng):
    """SNRs in -20..120 dB, rates in 0.05..1, epsilon in 1e-4..0.5, each link
    variance 1 or 10^(+-12); the ValueError when SystemParams refuses it."""
    try:
        return SystemParams(
            rate_p=rng.uniform(0.05, 1.0), rate_s=rng.uniform(0.05, 1.0),
            snr_p=db_to_linear(rng.uniform(-20.0, 120.0)),
            snr_r=db_to_linear(rng.uniform(-20.0, 120.0)),
            epsilon=10.0 ** rng.uniform(-4.0, math.log10(0.5)),
            link_vars=LinkTable(**{
                name: 10.0 ** rng.choice((0.0, rng.uniform(-12.0, 12.0)))
                for name in LINKS}))
    except ValueError as exc:
        return exc


def pool_scenarios():
    """The alloc_scan pool's scenarios, read from its units' --set options."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for unit in workloads.pool("alloc_scan"):
        argv = unit[0][1]
        yield load_config(None, [argv[k + 1] for k, arg in enumerate(argv)
                                 if arg == "--set"])


def families(limit=None):
    """(family, index, scenario or its ValueError), at most `limit` each."""
    sizes = {name: min(size, limit or size)
             for name, size in FAMILY_SIZES.items()}
    for i, params in zip(range(sizes["pool"]), pool_scenarios()):
        yield "pool", i, params
    rng = random.Random("replay:realistic")
    for i in range(sizes["realistic"]):
        yield "realistic", i, realistic_scenario(rng)
    for i, params in enumerate(wide_scenarios(random.Random("replay:wide"),
                                              sizes["wide"])):
        yield "wide", i, params


def _text(value) -> str:
    """float.hex of a float, repr of anything else."""
    return value.hex() if isinstance(value, float) else repr(value)


def _calls(params):
    """(label, thunk) of every call replayed on one scenario."""
    forms = {"prob_relay_active": prob_relay_active,
             "prob_relay_active_exact": prob_relay_active_exact,
             "prob_decode_order": prob_decode_order}
    for user in ("primary", "secondary"):
        forms[f"cond_outage_d0 {user}"] = functools.partial(
            cond_outage_d0, user=user)
        forms[f"noncoop_outage {user}"] = functools.partial(
            noncoop_outage, user=user)
        for alpha in SPLITS:
            for form in (upper_bound_d1, cond_outage_d1_exact):
                forms[f"{form.__name__} {user} {alpha}"] = functools.partial(
                    form, user=user, alpha=alpha)
    forms["alpha_for_primary_bound"] = alpha_for_primary_bound
    for alpha in SPLITS:
        forms[f"min_snr_r_for_epsilon {alpha}"] = functools.partial(
            min_snr_r_for_epsilon, alpha=alpha)
        for scheme in SCHEMES:
            forms[f"_closed_forms {scheme} {alpha}"] = functools.partial(
                _closed_forms, alpha=alpha, scheme=scheme)
    for label, form in forms.items():
        yield label, lambda form=form: form(derive(params))
    yield "allocate", lambda: allocate(params)


def _outcome(thunk) -> str:
    try:
        value = thunk()
    except (ValueError, ArithmeticError) as exc:   # a refusal is recorded
        return f"{type(exc).__name__}: {exc}"
    if isinstance(value, tuple):   # a record: one field at a time
        return " ".join(f"{name}={_text(v)}"
                        for name, v in zip(value._fields, value))
    return _text(value)


def lines(limit=None):
    """The record, one line per call: "family index label: outcome"."""
    for family, i, params in families(limit):
        if isinstance(params, Exception):
            yield f"{family} {i} SystemParams: {type(params).__name__}: {params}"
            continue
        for label, thunk in _calls(params):
            yield f"{family} {i} {label}: {_outcome(thunk)}"


def moved(record, baseline) -> list:
    """Lines of `record` that are not in `baseline` at their key, and keys
    of `baseline` that `record` lacks."""
    def keyed(lines_):
        return dict(line.split(": ", 1) for line in lines_)
    new, old = keyed(record), keyed(baseline)
    return ([f"{key}: {old.get(key, '(absent)')} -> {value}"
             for key, value in new.items() if old.get(key) != value]
            + [f"{key}: {old[key]} -> (absent)"
               for key in sorted(old.keys() - new.keys())])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, help="write the record here")
    parser.add_argument("--against", type=Path,
                        help="print the calls that moved from this record")
    args = parser.parse_args(argv)
    record = list(lines())
    if args.out:
        args.out.write_text("".join(f"{line}\n" for line in record))
    elif not args.against:
        sys.stdout.writelines(f"{line}\n" for line in record)
    if args.against:
        changes = moved(record, args.against.read_text().splitlines())
        sys.stdout.writelines(f"{line}\n" for line in changes)
        print(f"{len(changes)} of {len(record)} calls moved")
        return 1 if changes else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
