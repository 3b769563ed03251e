"""Command-line front end.

Exit codes: 0 on success, 1 on a usage, validation or arithmetic error, 2 when
a verification or reproduction check fails.
"""

import argparse
import functools
import sys
from pathlib import Path

from .allocation import allocate, common_alpha_band
from .analytic import total_secondary_outage
from .harness import (
    DEFAULT_SWEEP_TRIALS,
    DEFAULT_TRIALS,
    MODES,
    REPRODUCE_TARGETS,
    SWEEP_AXES,
    axis_values,
    compare_analytic_mc,
    load_config,
    reproduce,
    resolve_out_dir,
    run_sweep,
    sweep_csv,
)
from .montecarlo import SCHEMES, check_run, estimate
from .system import db_to_linear, derive, linear_to_db, secondary_cutoff_db


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like any other invalid input; 2 is kept for failed
    checks.  Subcommand parsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# The actions _plain_args reads itself, and the failures a type conversion
# reports to argparse.
_PLAIN_ACTIONS = (argparse._StoreAction, argparse._AppendAction)
_TYPE_ERRORS = (argparse.ArgumentTypeError, TypeError, ValueError)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and reused for the rest of
    the process.  Parsing leaves it unchanged: every call gets a fresh
    namespace, and ``append`` copies its default list."""
    top = _Parser(
        prog="crrelay",
        description="Outage analysis, simulation and power allocation for a "
                    "relay-aided underlay cognitive-radio link.")
    top.add_argument("--config", help="scenario config file (flat key=value)")
    top.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                     help="override a config key (repeatable), e.g. "
                          "link_vars.sp=0.1 or epsilon=0.05")
    top.add_argument("--seed", type=int, default=0)
    top.add_argument("--trials", type=int, default=None,
                     help="Monte Carlo trials, at least 1 (default 1e6; "
                          "sweeps and reproduction targets default to 1e5 "
                          "per sweep point)")
    top.add_argument("--workers", type=int, default=1)
    top.add_argument("--out-dir", default=None,
                     help="output directory (default ./out)")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form outage summary")
    p.add_argument("--alpha", type=float, default=0.5)

    p = sub.add_parser("simulate", help="Monte Carlo outage estimate")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--scheme", choices=SCHEMES, default="proposed")

    p = sub.add_parser("allocate", help="pick relay power split and SNR")
    p.add_argument("--snr-r-db", type=float, default=None,
                   help="fix the relay SNR instead of searching the grid")

    sub.add_parser("region", help="split feasibility band for the scenario's "
                                  "rate pair")

    p = sub.add_parser("sweep", help="sweep one scenario axis")
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--schemes", default="proposed",
                   help="comma-separated subset of " + ",".join(SCHEMES))
    p.add_argument("--mode", choices=MODES, default="both")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--snr-r-policy", choices=("fixed", "min_for_epsilon"),
                   default="fixed")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")

    p = sub.add_parser("reproduce", help="emit a reference target CSV + report")
    p.add_argument("--target", required=True,
                   choices=REPRODUCE_TARGETS + ("all",))

    p = sub.add_parser("verify", help="analytic vs simulation cross-check")
    p.add_argument("--alpha", type=float, default=0.5)

    return top


def _plain_args(parser, argv):
    """``parser.parse_args(argv)`` read straight from the parser's own
    tables when argv is plain, else None: argparse then parses argv itself
    and stays the one writer of help, usage and error text.

    Plain argv is the subcommand name and exact option strings of store or
    append actions, each followed by one value that does not start with '-'
    and passes the action's type and choices, with every required option.
    A parser with set_defaults, mutually exclusive groups or a string
    default with a type is left to argparse, which alone handles them.
    """
    tokens = list(sys.argv[1:] if argv is None else argv)
    merged, i = {}, 0
    while parser is not None:
        level, parser, values, seen, sub = parser, None, {}, set(), None
        if level._defaults or level._mutually_exclusive_groups:
            return None
        for action in level._actions:
            if isinstance(action.default, str) and action.type is not None:
                return None
            if (action.dest is not argparse.SUPPRESS
                    and action.default is not argparse.SUPPRESS):
                values.setdefault(action.dest, action.default)
            if isinstance(action, argparse._SubParsersAction):
                sub = action
        while i < len(tokens) and tokens[i] in level._option_string_actions:
            action = level._option_string_actions[tokens[i]]
            if (type(action) not in _PLAIN_ACTIONS or action.nargs is not None
                    or i + 1 == len(tokens) or tokens[i + 1].startswith("-")):
                return None
            text = tokens[i + 1]
            try:
                value = action.type(text) if action.type else text
            except _TYPE_ERRORS:
                return None
            if action.choices is not None and value not in action.choices:
                return None
            if type(action) is argparse._AppendAction:
                # argparse copies the list, so the default stays empty
                value = [*(values.get(action.dest) or ()), value]
            values[action.dest] = value
            seen.add(action)
            i += 2
        if i < len(tokens):
            if sub is None or tokens[i] not in sub.choices:
                return None
            values[sub.dest], parser = tokens[i], sub.choices[tokens[i]]
            seen.add(sub)
            i += 1
        if any(a.required and a not in seen for a in level._actions):
            return None
        # a subcommand's values, defaults included, overwrite the top level's
        merged.update(values)
    return argparse.Namespace(**merged)


def _cmd_analytic(params, args):
    derived = derive(params)
    cutoff_db = secondary_cutoff_db(params)
    summary = total_secondary_outage(derived, args.alpha)
    print(f"secondary snr: {derived.snr_s:.6g} "
          f"(admission cutoff {cutoff_db:.4g} dB)")
    kind = "bound" if summary.bound else "exact"
    print(f"relay activation: {summary.p_d1:.6g}")
    print(f"total secondary outage ({kind}): {summary.sec:.6g}")
    print(f"total primary outage ({kind}):   {summary.pri:.6g}")
    if summary.pri_d0 is not None:
        print(f"conditionals: pri_d0={summary.pri_d0:.6g} "
              f"sec_d0={summary.sec_d0:.6g} pri_d1={summary.pri_d1:.6g} "
              f"sec_d1={summary.sec_d1:.6g} "
              f"(d1 {'bounds' if summary.bound else 'exact'})")
    return 0


def _cmd_simulate(params, args):
    trials = DEFAULT_TRIALS if args.trials is None else args.trials
    est = estimate(params, args.alpha, trials, args.seed, args.scheme,
                   args.workers)
    print(f"scheme={args.scheme} alpha={args.alpha} trials={trials} "
          f"seed={args.seed}")
    print(f"secondary outage: {est.sec.p_hat:.6g} +- {est.sec.std_err:.3g}")
    print(f"primary outage:   {est.pri.p_hat:.6g} +- {est.pri.std_err:.3g}")
    if est.p_d1 is not None:
        print(f"relay active:     {est.p_d1.p_hat:.6g}")
    return 0


def _cmd_allocate(params, args):
    grid = None if args.snr_r_db is None else (db_to_linear(args.snr_r_db),)
    res = allocate(params, snr_r_grid=grid)
    if not res.feasible:
        print("infeasible: no grid point meets the primary bound "
              "(secondary outage 1)")
        return 0
    print(f"alpha={res.alpha:.6g} snr_r={res.snr_r:.6g} "
          f"({linear_to_db(res.snr_r):.4g} dB)")
    print(f"primary bound:          {res.u_p:.6g}")
    print(f"secondary outage bound: {res.u_s_total:.6g}")
    return 0


def _cmd_region(params, args):
    rate_p, rate_s = params.rate_p, params.rate_s
    band = common_alpha_band(params)
    if band is None:
        print(f"rates ({rate_p}, {rate_s}): no common split band")
    else:
        print(f"rates ({rate_p}, {rate_s}): common split band "
              f"[{band[0]:.4f}, {band[1]:.4f}]")
    print(f"common region nonempty: {band is not None}")
    return 0


def _cmd_sweep(params, args):
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    values = axis_values(args.start, args.stop, args.step)
    data = sweep_csv(run_sweep(
        params, args.axis, values, schemes=schemes, mode=args.mode,
        trials=DEFAULT_SWEEP_TRIALS if args.trials is None else args.trials,
        seed=args.seed, alpha=args.alpha, snr_r_policy=args.snr_r_policy,
        workers=args.workers))
    if args.out is None:
        sys.stdout.write(data.decode("utf-8"))
    else:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        print(f"wrote {path}")
    return 0


def _cmd_reproduce(args):
    if args.config is not None or args.set:
        option = "--config" if args.config is not None else "--set"
        raise ValueError(f"reproduce takes no {option}: its targets fix "
                         "their own scenarios")
    targets = REPRODUCE_TARGETS if args.target == "all" else (args.target,)
    ok = True
    for target in targets:
        report = reproduce(target, out_dir=args.out_dir, trials=args.trials,
                           seed=args.seed, workers=args.workers)
        print(report.render())
        ok = ok and report.ok
    return 0 if ok else 2


def _cmd_verify(params, args):
    trials = DEFAULT_TRIALS if args.trials is None else args.trials
    report = compare_analytic_mc(params, args.alpha, trials, args.seed,
                                 args.workers)
    print(report.render())
    out = resolve_out_dir(args.out_dir)
    (out / "verify_report.txt").write_text(report.render())
    return 0 if report.ok else 2


_COMMANDS = {
    "analytic": _cmd_analytic,
    "simulate": _cmd_simulate,
    "allocate": _cmd_allocate,
    "region": _cmd_region,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    """Run the CLI on argv (default ``sys.argv[1:]``); return the exit code.

    Plain argv is read straight from the parser's option tables; argparse
    parses everything else (help, abbreviations, ``--opt=value``, negative
    numbers, any error) and writes all help, usage and error text.  Only
    in-process callers gain, and the only ones measured are the benchmark
    harness and the test suite: a shell ``crrelay`` spends far longer
    starting the interpreter than parsing.
    """
    parser = _build_parser()
    args = _plain_args(parser, argv) or parser.parse_args(argv)
    try:
        # every subcommand takes these, so every one rejects bad values
        check_run(args.trials, args.seed, args.workers)
        if args.command == "reproduce":
            return _cmd_reproduce(args)
        params = load_config(args.config, args.set)
        return _COMMANDS[args.command](params, args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
