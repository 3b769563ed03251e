"""Experiment harness: scenario configs, the sweep runner, reproduction
targets with their deviation reports, and analytic-vs-simulation verification.

Scenario config format: flat text, one dotted key per line, e.g.

    rate_p = 0.4
    rate_s = 0.2
    snr_p_db = 20
    snr_r_db = 10
    epsilon = 0.03
    link_vars.pp = 1.0
    ... one line per directed link ...

Lines starting with '#' and blank lines are ignored; later keys win; CLI
overrides use the same key syntax.
"""

import csv
import functools
import io
import math
import operator
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .allocation import (
    allocate,
    common_alpha_band,
    min_snr_r_for_epsilon,
    rate_p_at_split_floor,
    rate_s_at_split_ceiling,
)
from .analytic import (
    noncoop_primary_outage,
    noncoop_secondary_outage,
    primary_split_floor,
    prob_decode_order,
    total_secondary_outage,
)
from .montecarlo import (SCHEMES, OutageEstimate, check_request, check_run,
                         estimate, estimate_many)
from .system import (
    LINKS,
    LinkTable,
    SystemParams,
    db_to_linear,
    derive,
    linear_to_db,
    secondary_cutoff_snr,
)

OUT_DIR_ENV = "CRRELAY_OUT_DIR"

_SCALAR_KEYS = ("rate_p", "rate_s", "snr_p_db", "snr_r_db", "epsilon")

# The links each channel-variance axis sets: the relay's link pair toward the
# primary (mu1) or the secondary (mu2), or one link.
_LINK_AXES = {"mu1": ("pr", "rp"), "mu2": ("sr", "rs"),
              **{f"var_{l}": (l,) for l in LINKS}}

SWEEP_AXES = ("snr_p_db", "snr_r_db", "epsilon", "alpha", "rate_p",
              "rate_s") + tuple(_LINK_AXES)

MODES = ("analytic", "montecarlo", "both")

# Longest axis SweepSpec.from_range builds; a finer step is refused before
# any value is allocated.
MAX_SWEEP_POINTS = 10_000

# Default Monte Carlo trials: one simulate or verify run, and each point of a
# sweep or simulated reproduction target.
DEFAULT_TRIALS = 1_000_000
DEFAULT_SWEEP_TRIALS = 100_000

# Published reference values the reproduction targets compare against.
_TABLE1_EPS = (0.04, 0.05, 0.06, 0.07, 0.08, 0.09)
_TABLE1_ALPHA_REF = (0.488, 0.489, 0.489, 0.488, 0.488, 0.487)
_TABLE1_ALPHA_TOL = 0.015
_TABLE1_USP_REF = (0.021, 0.016, 0.012, 0.010, 0.009, 0.007)
_TABLE1_USP_TOL = 0.005
_FIG2_BAND_COMPUTED = (0.4256508225014825, 0.7578582832551991)
_FIG2_BAND_REF = (0.43, 0.75)
_CUTOFF_REF_DB = 10.2
_CUTOFF_PUBLISHED_DB = 12.0


def default_params() -> SystemParams:
    """Baseline scenario of the comparison figures: 20 dB primary, 10 dB
    relay, unit variances except weak cross links, 3% primary threshold."""
    return SystemParams.from_db(
        rate_p=0.4, rate_s=0.2, snr_p_db=20.0, snr_r_db=10.0, epsilon=0.03,
        link_vars=LinkTable.uniform(1.0, ps=0.1, sp=0.1),
    )


def table1_params(epsilon: float) -> SystemParams:
    """The allocation-table scenario at a given admission threshold."""
    return default_params().with_epsilon(epsilon)


# ---------------------------------------------------------------------------
# config files


def parse_config_text(text: str) -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def _params_from_dict(values: dict) -> SystemParams:
    known = set(_SCALAR_KEYS) | {f"link_vars.{l}" for l in LINKS}
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = known - set(values)
    if missing:
        raise ValueError(f"missing config keys: {sorted(missing)}")
    scal = {k: float(values[k]) for k in _SCALAR_KEYS}
    link_vars = LinkTable.from_dict(
        {l: float(values[f"link_vars.{l}"]) for l in LINKS}
    )
    return SystemParams.from_db(link_vars=link_vars, **scal)


def load_config(path=None, overrides=()) -> SystemParams:
    """Load a scenario, starting from the baseline when no file is given.

    overrides are 'key=value' strings in the config key syntax and win over
    file values.
    """
    values = config_dict(default_params()) if path is None else \
        parse_config_text(Path(path).read_text())
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r}: expected 'key=value'")
        key, _, val = item.partition("=")
        values[key.strip()] = val.strip()
    return _params_from_dict(values)


def config_dict(params: SystemParams) -> dict:
    values = {
        "rate_p": repr(params.rate_p),
        "rate_s": repr(params.rate_s),
        "snr_p_db": repr(linear_to_db(params.snr_p)),
        "snr_r_db": repr(linear_to_db(params.snr_r)) if params.snr_r > 0 else "-inf",
        "epsilon": repr(params.epsilon),
    }
    for l in LINKS:
        values[f"link_vars.{l}"] = repr(getattr(params.link_vars, l))
    return values


def config_text(params: SystemParams) -> str:
    return "".join(f"{k} = {v}\n" for k, v in config_dict(params).items())


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: an axis of scenario values, schemes to run and how.

    snr_r_policy "fixed" uses the scenario relay SNR as is;
    "min_for_epsilon" replaces it per point by the smallest relay SNR keeping
    the primary bound within epsilon at the row's split (the power actually
    consumed by the relay).  Splits at or below the split floor cannot meet
    the bound that way and the row reports outage 1.
    """

    scenario: SystemParams
    axis: str
    values: tuple
    schemes: tuple = ("proposed",)
    mode: str = "both"
    trials: int = DEFAULT_SWEEP_TRIALS
    seed: int = 0
    alpha: float = 0.5
    snr_r_policy: str = "fixed"

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}")
        if len(self.values) == 0:
            raise ValueError("axis range must be nonempty")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        bad = set(self.schemes) - set(SCHEMES)
        if bad or not self.schemes:
            raise ValueError(f"schemes must be a nonempty subset of {SCHEMES}")
        if self.mode != "analytic" and self.trials < 1:
            raise ValueError("trials must be at least 1 when simulating")
        if self.snr_r_policy not in ("fixed", "min_for_epsilon"):
            raise ValueError("snr_r_policy must be 'fixed' or 'min_for_epsilon'")
        if self.axis == "snr_r_db" and self.snr_r_policy == "min_for_epsilon":
            raise ValueError("axis snr_r_db cannot be swept under snr_r_policy "
                             "min_for_epsilon, which sets the relay SNR itself")

    @classmethod
    def from_range(cls, scenario, axis, start, stop, step, **kw):
        if not all(math.isfinite(x) for x in (start, stop, step)):
            raise ValueError("range start, stop and step must be finite")
        if step <= 0 or stop < start:
            raise ValueError("need step > 0 and stop >= start")
        span = (stop - start) / step + 1e-9
        if not span < MAX_SWEEP_POINTS:
            raise ValueError(f"axis range exceeds {MAX_SWEEP_POINTS} points")
        values = tuple(start + k * step for k in range(math.floor(span) + 1))
        return cls(scenario=scenario, axis=axis, values=values, **kw)


@dataclass
class ResultRow:
    axis: str
    value: float
    scheme: str
    analytic_sec: float | None = None
    analytic_is_bound: bool | None = None
    mc_sec: float | None = None
    mc_sec_std_err: float | None = None
    p_d1: float | None = None
    snr_s: float | None = None
    snr_r: float | None = None
    alpha: float | None = None
    error: str = ""


_CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))
_csv_row = operator.attrgetter(*_CSV_COLUMNS)   # a row's cells, in column order


def _csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.9g" % x
    return str(x)


def _csv_bytes(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(x) for x in row])
    return buf.getvalue().encode("utf-8")


def sweep_csv(rows) -> bytes:
    """CSV bytes of run_sweep's rows: one column per ResultRow field."""
    return _csv_bytes(_CSV_COLUMNS, map(_csv_row, rows))


def _with_links(scenario: SystemParams, **axes) -> SystemParams:
    """Scenario with each channel-variance axis in axes set to its value."""
    lv = scenario.link_vars
    for axis, value in axes.items():
        lv = replace(lv, **dict.fromkeys(_LINK_AXES[axis], value))
    return replace(scenario, link_vars=lv)


def _apply_axis(scenario: SystemParams, axis: str, value: float, alpha: float):
    """Scenario and split for one axis point."""
    if axis == "snr_p_db":
        return replace(scenario, snr_p=db_to_linear(value)), alpha
    if axis == "snr_r_db":
        return scenario.with_snr_r(db_to_linear(value)), alpha
    if axis == "epsilon":
        return scenario.with_epsilon(value), alpha
    if axis == "alpha":
        return scenario, float(value)
    if axis in ("rate_p", "rate_s"):
        return replace(scenario, **{axis: float(value)}), alpha
    return _with_links(scenario, **{axis: value}), alpha


def run_sweep(spec: SweepSpec, workers: int = 1) -> tuple[ResultRow, ...]:
    """One row per axis value and requested scheme, in that order.

    Row errors are captured in the error column instead of aborting the
    sweep; rows without secondary access report secondary outage 1.  Every
    simulated row reads the same trials of the seed's stream, so they are
    estimated together in one estimate_many() call, which counts only the
    secondary events a row reports.
    """
    rows = []
    mc_rows, requests = [], []
    for value in spec.values:
        try:
            params, alpha = _apply_axis(spec.scenario, spec.axis, value,
                                        spec.alpha)
            derived = derive(params)
            snr_r = params.snr_r
            if spec.snr_r_policy == "min_for_epsilon":
                snr_r = 0.0 if derived.snr_s == 0.0 else min_snr_r_for_epsilon(
                    derived, alpha, params.epsilon)
                if snr_r is not None and snr_r != params.snr_r:
                    params = params.with_snr_r(snr_r)
                    derived = derive(params)
        except ValueError as exc:
            rows += (ResultRow(axis=spec.axis, value=value, scheme=scheme,
                               error=str(exc)) for scheme in spec.schemes)
            continue
        for scheme in spec.schemes:
            row = ResultRow(axis=spec.axis, value=value, scheme=scheme,
                            snr_s=derived.snr_s)
            rows.append(row)
            if scheme != "noncooperative":
                row.alpha = alpha
                row.snr_r = snr_r
                if snr_r is None:
                    # epsilon unreachable at this split for any relay power
                    row.analytic_sec = 1.0
                    row.analytic_is_bound = False
                    row.error = ("infeasible: split at or below the "
                                 "primary-bound floor")
                    continue
            try:
                if spec.mode in ("analytic", "both"):
                    if scheme == "proposed":
                        summary = total_secondary_outage(derived, alpha)
                        row.analytic_sec = summary.total_sec
                        row.analytic_is_bound = summary.bound
                        row.p_d1 = summary.p_d1
                    elif derived.snr_s == 0.0 or scheme == "noncooperative":
                        # no closed form for the relay-assisted baseline
                        row.analytic_sec = (
                            1.0 if derived.snr_s == 0.0
                            else noncoop_secondary_outage(derived))
                        row.analytic_is_bound = False
                if spec.mode in ("montecarlo", "both"):
                    check_request(alpha, scheme)
                    mc_rows.append(row)
                    requests.append((params, alpha, scheme))
            except (ValueError, ArithmeticError) as exc:
                row.error = str(exc)
    if requests:
        try:
            ests = estimate_many(spec.seed, spec.trials, requests, workers,
                                 primary=False)
        except ValueError as exc:
            for row in mc_rows:
                row.error = str(exc)
        else:
            for row, est in zip(mc_rows, ests):
                row.mc_sec = est.sec.p_hat
                row.mc_sec_std_err = est.sec.std_err
                if est.p_d1 is not None:
                    row.p_d1 = est.p_d1.p_hat
    return tuple(rows)


# ---------------------------------------------------------------------------
# deviation reports


@dataclass(frozen=True)
class Check:
    name: str
    verdict: str   # PASS | FAIL | NOTE
    detail: str

    def render(self) -> str:
        return f"{self.verdict:4s} {self.name}: {self.detail}"


@dataclass(frozen=True)
class Report:
    title: str
    checks: tuple
    files: tuple = ()

    @property
    def ok(self) -> bool:
        return all(c.verdict != "FAIL" for c in self.checks)

    def render(self) -> str:
        lines = [self.title, "=" * len(self.title)]
        lines += [c.render() for c in self.checks]
        if self.files:
            lines.append("files: " + ", ".join(str(f) for f in self.files))
        lines.append("result: " + ("OK" if self.ok else "VERIFICATION FAILED"))
        return "\n".join(lines) + "\n"


def _check(name, ok, detail) -> Check:
    """The one verdict rule: a check passes exactly when ok holds."""
    return Check(name, "PASS" if ok else "FAIL", detail)


def _value_check(name, produced, reference, tol) -> Check:
    return _check(name, abs(produced - reference) <= tol,
                  f"produced={produced:.9g} reference={reference:.9g} "
                  f"tol={tol:.9g} |diff|={abs(produced - reference):.3g}")


def _less_check(name, smaller, larger, margin=0.0, strict=True) -> Check:
    ok = smaller < larger - margin if strict else smaller <= larger + 1e-12
    rel = "<" if strict else "<="
    return _check(name, ok, f"{smaller:.9g} {rel} {larger:.9g}"
                  + (f" (margin {margin:.3g})" if margin else ""))


def _z_check(name, est: OutageEstimate, analytic: float, note="") -> Check:
    if est.std_err == 0.0:
        z = 0.0 if est.p_hat == analytic else math.inf
    else:
        z = (est.p_hat - analytic) / est.std_err
    ok = abs(z) <= 3.0
    detail = (f"mc={est.p_hat:.6g} analytic={analytic:.6g} "
              f"std_err={est.std_err:.3g} z={z:+.2f}")
    if est.p_hat < 10.0 / est.trials:
        # rare event: the normal approximation is shaky, show Wilson too
        lo, hi = est.wilson()
        detail += f" wilson3=[{lo:.3g}, {hi:.3g}]"
        ok = ok or lo <= analytic <= hi
    if note:
        detail += f" [{note}]"
    return _check(name, ok, detail)


def _bound_check(name, est: OutageEstimate, bound: float, note="") -> Check:
    detail = (f"mc={est.p_hat:.6g} bound={bound:.6g} "
              f"slack={bound + 3.0 * est.std_err - est.p_hat:+.3g}")
    if note:
        detail += f" [{note}]"
    return _check(name, est.p_hat <= bound + 3.0 * est.std_err, detail)


def _note(name, text) -> Check:
    return Check(name, "NOTE", text)


def resolve_out_dir(out_dir=None) -> Path:
    if out_dir is None:
        out_dir = os.environ.get(OUT_DIR_ENV, "out")
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# reproduction targets
#
# Each builder returns (title, csv header, csv rows, checks); reproduce()
# writes <target>.csv and <target>_report.txt from them.


def _db_or_none(snr):
    return linear_to_db(snr) if snr else None


def _table1():
    rows, checks = [], []
    for eps, a_ref, u_ref in zip(_TABLE1_EPS, _TABLE1_ALPHA_REF,
                                 _TABLE1_USP_REF):
        params = table1_params(eps)
        res = allocate(params, snr_r_grid=(params.snr_r,))
        rows.append((eps, res.alpha, res.u_p, res.u_s_total,
                     derive(params).snr_s, linear_to_db(res.snr_r)))
        checks.append(_value_check(f"alpha_eps(eps={eps})", res.alpha, a_ref,
                                   _TABLE1_ALPHA_TOL))
        checks.append(_value_check(f"u_s_prime(eps={eps})", res.u_s_total,
                                   u_ref, _TABLE1_USP_TOL))
    checks.append(_note(
        "alpha offset",
        "exact inversion of the primary bound sits ~+0.008 above the "
        "reference row (0.496 vs 0.488 at eps=0.04); the printed extraction "
        "formula does not round-trip and was replaced by the exact inverse",
    ))
    checks.append(_note(
        "u_s_prime level",
        "the closed-form chain reproduces the reference trend but sits ~7x "
        "below the reference magnitudes; no printed-formula variant closes "
        "the gap (see the verification report for simulation agreement)",
    ))
    return ("table1: allocation versus admission threshold",
            ("epsilon", "alpha_eps", "u_p", "u_s_prime", "snr_s", "snr_r_db"),
            rows, checks)


def _fig2():
    rows = [(a, rate_p_at_split_floor(a), rate_s_at_split_ceiling(a))
            for a in (0.01 * k for k in range(1, 100))]
    band = common_alpha_band(0.4, 0.2)
    checks = [
        _value_check("band(0.4,0.2) lower", band[0], _FIG2_BAND_COMPUTED[0], 5e-5),
        _value_check("band(0.4,0.2) upper", band[1], _FIG2_BAND_COMPUTED[1], 5e-5),
        _value_check("band lower vs reference", band[0], _FIG2_BAND_REF[0], 0.01),
        _value_check("band upper vs reference", band[1], _FIG2_BAND_REF[1], 0.01),
        _value_check("rate_s implied by (rate_p=1, alpha=0.76)",
                     rate_s_at_split_ceiling(0.76), 0.20, 0.005),
        _note("band upper rounding", "computed 0.7579 rounds to 0.76, one "
              "unit above the reference 0.75 in the 2nd decimal"),
    ]
    return ("fig2: rate/split feasibility boundaries",
            ("alpha", "rate_p_at_primary_floor", "rate_s_at_secondary_ceiling"),
            rows, checks)


def _fig3(trials, seed, workers):
    params = default_params()
    spec = SweepSpec.from_range(
        params, "snr_p_db", 5.0, 30.0, 1.0,
        schemes=SCHEMES, mode="both", trials=trials, seed=seed,
        alpha=0.5, snr_r_policy="min_for_epsilon",
    )
    rows = run_sweep(spec, workers=workers)
    cutoff_db = linear_to_db(
        secondary_cutoff_snr(params.rate_p, params.epsilon, params.link_vars.pp)
    )
    checks = [
        _value_check("secondary-admission cutoff (dB)", cutoff_db,
                     _CUTOFF_REF_DB, 0.1),
        _note("cutoff vs reference", f"computed {cutoff_db:.4f} dB; the "
              f"published read-off is {_CUTOFF_PUBLISHED_DB} dB (documented, "
              "not asserted)"),
    ]
    below = [r for r in rows if r.value < cutoff_db and not r.error]
    ok_below = all(
        (r.analytic_sec is None or r.analytic_sec == 1.0)
        and (r.mc_sec is None or r.mc_sec == 1.0)
        and r.snr_s == 0.0
        for r in below
    )
    checks.append(_check(
        "below cutoff: no secondary access, outage 1 in every scheme",
        ok_below and below, f"{len(below)} rows below {cutoff_db:.2f} dB"))
    at20 = {r.scheme: r for r in rows if r.value == 20.0}
    prop, relay, nc = (at20["proposed"], at20["relay_assisted_secondary"],
                       at20["noncooperative"])

    def comb(a, b):
        return math.hypot(a.mc_sec_std_err, b.mc_sec_std_err)

    checks.append(_less_check(
        "ordering at 20 dB: proposed < relay-assisted",
        prop.mc_sec, relay.mc_sec, margin=3.0 * comb(prop, relay)))
    checks.append(_less_check(
        "ordering at 20 dB: relay-assisted < non-cooperative",
        relay.mc_sec, nc.mc_sec, margin=3.0 * comb(relay, nc)))
    dominated = [
        r for r in rows
        if r.scheme == "proposed" and not r.error and r.snr_s > 0.0
        and r.mc_sec is not None and r.analytic_sec is not None
        and r.mc_sec > r.analytic_sec + 3.0 * r.mc_sec_std_err
    ]
    checks.append(_check(
        "proposed rows: simulation within bound + 3 std_err", not dominated,
        f"{len(dominated)} violations over {len(rows)} rows"))
    return ("fig3: secondary outage versus primary SNR", _CSV_COLUMNS,
            list(map(_csv_row, rows)), checks)


_MU_FAMILIES = ((1.0, 1.0), (0.5, 1.0), (0.1, 1.0), (1.0, 0.5), (1.0, 0.1))


@functools.cache
def _min_relay_curve(mu1, mu2, alpha, start, stop) -> tuple:
    """Analytic proposed-scheme rows along snr_p_db on the baseline with
    channel-condition family (mu1, mu2), relay SNR minimized per point,
    keeping only the points above the admission cutoff.

    Computed once per process: fig4 and fig5 read the same five family
    curves, and fig6's alpha 0.5 curve is the (1, 1) family.  Pass every
    argument positionally, so equal curves share one cache key.
    """
    scenario = _with_links(default_params(), mu1=mu1, mu2=mu2)
    spec = SweepSpec.from_range(scenario, "snr_p_db", start, stop, 1.0,
                                mode="analytic", alpha=alpha,
                                snr_r_policy="min_for_epsilon")
    return tuple(r for r in run_sweep(spec) if r.snr_s != 0.0)


def _at_20db(curve):
    return next(r for r in curve if r.value == 20.0)


def _fig4():
    curves = {mu: _min_relay_curve(*mu, 0.5, 12.0, 30.0) for mu in _MU_FAMILIES}
    u = {mu: _at_20db(curve).analytic_sec for mu, curve in curves.items()}
    checks = [
        _less_check("20 dB: u_s_prime(mu1=0.5) < u_s_prime(mu1=1)",
                    u[(0.5, 1.0)], u[(1.0, 1.0)]),
        _less_check("20 dB: u_s_prime(mu1=0.1) < u_s_prime(mu1=0.5)",
                    u[(0.1, 1.0)], u[(0.5, 1.0)]),
        _less_check("20 dB: u_s_prime(mu2=1) < u_s_prime(mu2=0.5)",
                    u[(1.0, 1.0)], u[(1.0, 0.5)]),
        _less_check("20 dB: u_s_prime(mu2=0.5) < u_s_prime(mu2=0.1)",
                    u[(1.0, 0.5)], u[(1.0, 0.1)]),
        _note("trend-only", "the mu value set {1, 0.5, 0.1} is a harness "
              "default; curves are trend comparisons, not value "
              "reproductions"),
        _note("low-SNR reversal", "with the relay power re-minimized per "
              "point the mu1 trend reverses within ~3 dB of the cutoff, "
              "where the relay-silent branch dominates the mixture"),
    ]
    rows = [(r.value, mu1, mu2, r.analytic_sec, r.p_d1, r.snr_s)
            for (mu1, mu2), curve in curves.items() for r in curve]
    return ("fig4: secondary outage bound under channel conditions",
            ("snr_p_db", "mu1", "mu2", "u_s_prime", "p_d1", "snr_s"),
            rows, checks)


def _fig5():
    curves = {mu: _min_relay_curve(*mu, 0.5, 12.0, 30.0) for mu in _MU_FAMILIES}
    snr_r = {mu: _at_20db(curve).snr_r for mu, curve in curves.items()}
    checks = [
        _less_check("20 dB: snr_r_min(mu1=1) < snr_r_min(mu1=0.5)",
                    snr_r[(1.0, 1.0)], snr_r[(0.5, 1.0)]),
        _less_check("20 dB: snr_r_min(mu1=0.5) < snr_r_min(mu1=0.1)",
                    snr_r[(0.5, 1.0)], snr_r[(0.1, 1.0)]),
        _note("mu2 invariance", "the minimum relay power depends on the "
              "relay-to-primary link only, so it is flat in mu2"),
    ]
    rows = [(r.value, mu1, mu2, r.snr_r, _db_or_none(r.snr_r))
            for (mu1, mu2), curve in curves.items() for r in curve]
    return ("fig5: relay power consumed for constant split",
            ("snr_p_db", "mu1", "mu2", "snr_r_min", "snr_r_min_db"),
            rows, checks)


def _fig6():
    derived = derive(default_params())
    floor = primary_split_floor(derived.lambda_p)
    curves = {a: _min_relay_curve(1.0, 1.0, a, 12.0, 30.0)
              for a in (0.43, 0.5, 0.76, 1.0)}
    u = {a: _at_20db(curve).analytic_sec for a, curve in curves.items()}
    # a split below the floor cannot protect the primary: outage 1 by policy
    below_floor_alpha = 0.42
    (below,) = _min_relay_curve(1.0, 1.0, below_floor_alpha, 20.0, 20.0)
    checks = [
        _less_check("20 dB: u_s_prime(0.43) < u_s_prime(0.5)",
                    u[0.43], u[0.5]),
        _less_check("20 dB: u_s_prime(0.5) < u_s_prime(0.76)",
                    u[0.5], u[0.76]),
        _less_check("20 dB: u_s_prime(0.76) <= u_s_prime(1.0)",
                    u[0.76], u[1.0], strict=False),
        _check("split below the floor reports outage 1",
               below_floor_alpha < floor and below.analytic_sec == 1.0,
               f"alpha={below_floor_alpha} < floor={floor:.6f}"),
        _note("flat region", "the secondary bound is split-independent above "
              f"{1.0 / (1.0 + derived.lambda_s):.4f}, so 0.76 and 1.0 "
              "coincide analytically"),
    ]
    rows = [(r.value, r.alpha, _db_or_none(r.snr_r), r.analytic_sec,
             r.analytic_is_bound)
            for curve in (*curves.values(), [below]) for r in curve]
    return ("fig6: secondary outage bound versus split",
            ("snr_p_db", "alpha", "snr_r_min_db", "u_s_prime", "is_bound"),
            rows, checks)


_TARGET_BUILDERS = {
    "table1": _table1,
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
}

REPRODUCE_TARGETS = tuple(_TARGET_BUILDERS)


def reproduce(target: str, out_dir=None, trials=None, seed: int = 0,
              workers: int = 1) -> Report:
    """Run one reproduction target: emit its CSV and a deviation report.

    trials (default 100,000 per sweep point), seed and workers drive fig3,
    the one simulated target.  Every reference comparison prints produced
    value, reference value, tolerance and verdict; nothing passes silently.
    The report text is also written next to the CSV.
    """
    if target not in _TARGET_BUILDERS:
        raise ValueError(f"target must be one of {REPRODUCE_TARGETS}")
    check_run(trials, seed, workers)
    out = resolve_out_dir(out_dir)
    build = _TARGET_BUILDERS[target]
    if target == "fig3":
        trials = DEFAULT_SWEEP_TRIALS if trials is None else trials
        title, header, rows, checks = build(trials, seed, workers)
    else:
        title, header, rows, checks = build()
    csv_path = out / f"{target}.csv"
    csv_path.write_bytes(_csv_bytes(header, rows))
    report = Report(title, tuple(checks), (csv_path,))
    report_path = out / f"{target}_report.txt"
    report_path.write_text(report.render())
    return replace(report, files=(csv_path, report_path))


# ---------------------------------------------------------------------------
# analytic vs simulation


def compare_analytic_mc(params: SystemParams, alpha: float,
                        trials: int = DEFAULT_TRIALS, seed: int = 0,
                        workers: int = 1) -> Report:
    """Cross-check every closed form against the event-level simulator.

    Match rows compare at |z| <= 3; at interior splits the relay-active
    conditionals and the totals are upper bounds and are checked one-sided.
    """
    derived = derive(params)
    title = (f"verification: alpha={alpha}, trials={trials}, seed={seed}")
    if derived.snr_s == 0.0:
        est = estimate(params, alpha, trials, seed, "proposed", workers)
        checks = (
            _note("no secondary access", "scenario sits below the admission "
                  "cutoff; secondary outage is 1 by definition"),
            _check("simulated secondary outage is 1", est.sec.p_hat == 1.0,
                   f"mc={est.sec.p_hat}"),
        )
        return Report(title, checks)

    est, nc = estimate_many(seed, trials, [(params, alpha, "proposed"),
                                           (params, alpha, "noncooperative")],
                            workers)
    summary = total_secondary_outage(derived, alpha)
    cond = summary.cond
    checks = [
        _z_check("relay activation frequency", est.p_d1, summary.p_d1,
                 note="closed form factorizes correlated order/threshold "
                      "events; a persistent ~0.1-1% gap is expected"),
        _z_check("SIC order: primary decoded first", est.order_p,
                 prob_decode_order(derived, "p")),
    ]
    active, active_check = (("relay active (exact)", _z_check)
                            if cond.d1_exact else
                            ("relay active within bound", _bound_check))
    total, note = (("bound", "") if summary.bound else
                   ("exact-conditional mixture",
                    "mixture weight inherits the activation closed form"))
    if est.sec_d0 is not None:
        checks += [_z_check(f"{user} outage | relay silent", mc, ref)
                   for user, mc, ref in (("secondary", est.sec_d0, cond.sec_d0),
                                         ("primary", est.pri_d0, cond.pri_d0))]
    if est.sec_d1 is not None:
        checks += [active_check(f"{user} outage | {active}", mc, ref)
                   for user, mc, ref in (("primary", est.pri_d1, cond.pri_d1),
                                         ("secondary", est.sec_d1, cond.sec_d1))]
    checks += [_bound_check(f"total {user} outage within {total}", mc, ref,
                            note=note)
               for user, mc, ref in (("secondary", est.sec, summary.total_sec),
                                     ("primary", est.pri, summary.total_pri))]
    checks.append(_z_check("non-cooperative secondary outage", nc.sec,
                           noncoop_secondary_outage(derived)))
    checks.append(_z_check(
        "non-cooperative primary outage at the admission threshold", nc.pri,
        noncoop_primary_outage(derived),
        note=f"equals epsilon={params.epsilon} by construction"))
    return Report(title, tuple(checks))
