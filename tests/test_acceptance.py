"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see every line.

One check is known to fail and is asserted at its stated tolerance anyway:

* C1b: the published allocation-table outage column (0.021 ... 0.007) sits
  ~7x above what the closed-form chain produces (0.00268 ... 0.00106) at the
  +-0.005 tolerance, while the split column C1a passes at +-0.015.  The chain
  is consistent (the simulated secondary outage at epsilon 0.04 sits under
  the bound), so the gap points at the scenario: the repository holds only
  the paper's abstract, not its Table 1 parameters.  See C1b's docstring.

C3b checks the exact relay-activation probability against the simulator.
The paper's two-branch activation form factorizes correlated order and
threshold events and sits ~30-80 standard errors away at a million trials;
its z is printed on C3b's line for reference.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from crrelay import (
    LinkTable,
    SystemParams,
    SweepSpec,
    allocate,
    common_alpha_band,
    cond_outage_d1_exact,
    cond_sec_outage_d0,
    derive,
    estimate,
    estimate_many,
    integrate_exp_over_x,
    linear_to_db,
    min_snr_r_for_epsilon,
    noncoop_secondary_outage,
    prob_decode_order,
    prob_relay_active,
    prob_relay_active_exact,
    reproduce,
    run_sweep,
    secondary_cutoff_snr,
    sweep_csv,
    table1_params,
    total_secondary_outage,
    upper_bound_d1,
)
from crrelay.allocation import rate_s_at_split_ceiling
from crrelay.analytic import primary_split_floor
from crrelay.harness import default_params
from conftest import exp_over_x_reference, synth_derived

TABLE1_EPS = (0.04, 0.05, 0.06, 0.07, 0.08, 0.09)
TABLE1_ALPHA_REF = (0.488, 0.489, 0.489, 0.488, 0.488, 0.487)
TABLE1_USP_REF = (0.021, 0.016, 0.012, 0.010, 0.009, 0.007)


def _line(cid: str, ok: bool, detail: str):
    print(f"[acceptance] {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _z(est, value):
    return (est.p_hat - value) / est.std_err


def _random_scenario(rng) -> SystemParams:
    """Randomized but admission-feasible scenario."""
    while True:
        params = SystemParams(
            rate_p=float(rng.uniform(0.15, 0.5)),
            rate_s=float(rng.uniform(0.15, 0.5)),
            snr_p=float(10.0 ** (rng.uniform(14.0, 24.0) / 10.0)),
            snr_r=float(10.0 ** (rng.uniform(6.0, 14.0) / 10.0)),
            epsilon=float(rng.uniform(0.03, 0.09)),
            link_vars=LinkTable.from_dict({
                "pp": float(rng.uniform(0.5, 1.5)),
                "ss": float(rng.uniform(0.5, 1.5)),
                "ps": float(rng.uniform(0.05, 0.3)),
                "sp": float(rng.uniform(0.05, 0.3)),
                "pr": float(rng.uniform(0.3, 1.5)),
                "sr": float(rng.uniform(0.3, 1.5)),
                "rp": float(rng.uniform(0.3, 1.5)),
                "rs": float(rng.uniform(0.3, 1.5)),
            }),
        )
        if derive(params).snr_s > 0.0:
            return params


# ---------------------------------------------------------------------------
# C1: allocation-table regression


@pytest.fixture(scope="module")
def table1_results():
    start = time.perf_counter()
    results = [allocate(table1_params(eps), snr_r_grid=(10.0,))
               for eps in TABLE1_EPS]
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_c1a_table1_alpha_column(table1_results, tmp_path):
    results, elapsed = table1_results
    devs = [abs(r.alpha - ref) for r, ref in zip(results, TABLE1_ALPHA_REF)]
    ok = all(d <= 0.015 for d in devs) and elapsed < 1.0
    report = reproduce("table1", out_dir=tmp_path)
    offset_noted = any(c.verdict == "NOTE" and "offset" in c.name
                       for c in report.checks)
    assert _line("C1a split column",
                 ok and offset_noted,
                 f"max|alpha-ref|={max(devs):.4f} (tol 0.015), "
                 f"runtime={elapsed:.3f}s, offset note printed={offset_noted}")


def test_c1b_table1_outage_column(table1_results):
    """Open: the produced column (0.00268 ... 0.00106) sits ~7x below the
    published one (0.021 ... 0.007); asserted at the stated +-0.005 and left
    red until the paper's Table 1 parameters are in the repository.

    The chain is consistent: at epsilon 0.04 and the allocated split the
    simulated secondary outage (about 0.0013 +- 0.00004 at 1e6 trials) sits
    under the bound (0.00268), and C3a and C4 pass.
    The scenario is not settled: table1_params is the figures' baseline with
    epsilon changed, and C1a only pins the primary side, because the split
    does not move with rate_s or the ss, ps, sr and rs links.  Several
    scenarios fit this column (link ps anywhere in 0.8 ... 1.2, or sr = rs =
    0.1), and the reference 0.021 even exceeds this scenario's simulated
    non-cooperative outage (about 0.0135), so picking one would only fit
    the test.
    """
    results, _ = table1_results
    devs = [abs(r.u_s_total - ref)
            for r, ref in zip(results, TABLE1_USP_REF)]
    ok = all(d <= 0.005 for d in devs)
    _line("C1b outage-bound column", ok,
          f"max|usp-ref|={max(devs):.4f} (tol 0.005); produced "
          f"{[round(r.u_s_total, 5) for r in results]} vs reference "
          f"{list(TABLE1_USP_REF)}")
    assert ok, ("published outage column is not reproducible from the "
                "printed closed forms; see notes and table1_report.txt")


# ---------------------------------------------------------------------------
# C2: region endpoints


def test_c2_region_endpoints():
    band = common_alpha_band(0.4, 0.2)
    implied = rate_s_at_split_ceiling(0.76)
    # the stated band [0.4256, 0.7578] is the computed value truncated to
    # 4 decimals; allow one unit in the last quoted place
    ok = (abs(band[0] - 0.4256) <= 1e-4 and abs(band[1] - 0.7578) <= 1e-4
          and abs(band[0] - 0.43) <= 0.01 and abs(band[1] - 0.75) <= 0.01
          and abs(implied - 0.20) <= 0.005)
    assert _line("C2 region endpoints", ok,
                 f"band=[{band[0]:.4f}, {band[1]:.4f}] vs [0.43, 0.75]; "
                 f"implied rate_s(0.76)={implied:.4f} vs 0.20+-0.005")


# ---------------------------------------------------------------------------
# C3: oracle equivalence


@pytest.fixture(scope="module")
def oracle_runs():
    rng = np.random.default_rng(20240810)
    scenarios = [table1_params(0.04), _random_scenario(rng),
                 _random_scenario(rng)]
    start = time.perf_counter()
    runs = []
    for k, params in enumerate(scenarios):
        alpha0, alpha1, noncoop = estimate_many(
            1000 + k, 1_000_000,
            [(params, 0.0, "proposed"), (params, 1.0, "proposed"),
             (params, 0.5, "noncooperative")])
        runs.append({
            "params": params,
            "derived": derive(params),
            "alpha0": alpha0,
            "alpha1": alpha1,
            "noncoop": noncoop,
        })
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_c3a_oracle_equivalence_closed_forms(oracle_runs):
    runs, elapsed = oracle_runs
    zs = {}
    for k, run in enumerate(runs):
        d = run["derived"]
        e0, e1, nc = run["alpha0"], run["alpha1"], run["noncoop"]
        zs[f"s{k} order_p"] = _z(e1.order_p, prob_decode_order(d, "p"))
        zs[f"s{k} sec_d0"] = _z(e1.sec_d0, cond_sec_outage_d0(d))
        zs[f"s{k} pri_d1 a0"] = _z(e0.pri_d1,
                                   cond_outage_d1_exact(d, "primary", 0.0))
        zs[f"s{k} sec_d1 a0"] = _z(e0.sec_d1,
                                   cond_outage_d1_exact(d, "secondary", 0.0))
        zs[f"s{k} pri_d1 a1"] = _z(e1.pri_d1,
                                   cond_outage_d1_exact(d, "primary", 1.0))
        zs[f"s{k} sec_d1 a1"] = _z(e1.sec_d1,
                                   cond_outage_d1_exact(d, "secondary", 1.0))
        zs[f"s{k} noncoop sec"] = _z(nc.sec, noncoop_secondary_outage(d))
    worst = max(zs, key=lambda k: abs(zs[k]))
    ok = all(abs(z) <= 3.0 for z in zs.values()) and elapsed < 60.0
    assert _line("C3a oracle equivalence (closed forms)", ok,
                 f"{len(zs)} comparisons over 3 scenarios at 1e6 trials, "
                 f"worst |z|={abs(zs[worst]):.2f} ({worst}), "
                 f"runtime={elapsed:.1f}s")


def test_c3b_oracle_equivalence_relay_activation(oracle_runs):
    """The exact activation probability of the per-draw SIC decision matches
    the simulated activation frequency at |z| <= 3.  The paper's two-branch
    form, which still weights the totals, is printed alongside: it
    factorizes correlated order and threshold events and misses by tens of
    standard errors."""
    runs, _ = oracle_runs
    zs = [_z(run["alpha1"].p_d1, prob_relay_active_exact(run["derived"]))
          for run in runs]
    zs_paper = [_z(run["alpha1"].p_d1, prob_relay_active(run["derived"]))
                for run in runs]
    ok = all(abs(z) <= 3.0 for z in zs)
    _line("C3b oracle equivalence (relay activation)", ok,
          "z per scenario: " + ", ".join(f"{z:+.1f}" for z in zs)
          + "; paper form z: " + ", ".join(f"{z:+.1f}" for z in zs_paper))
    assert ok, ("the exact activation form does not match the event-level "
                "simulation within 3 standard errors at 1e6 trials")


# ---------------------------------------------------------------------------
# C4: bound dominance


def test_c4_bound_dominance():
    params = default_params()                       # 20 dB, eps=0.03, 10 dB relay
    d = derive(params)
    worst = math.inf
    ok = True
    for k, alpha in enumerate(np.arange(0.45, 0.951, 0.05)):
        est = estimate(params, float(alpha), 100_000, seed=300 + k)
        for cond, user in ((est.pri_d1, "primary"), (est.sec_d1, "secondary")):
            bound = upper_bound_d1(d, user, float(alpha))
            slack = bound + 3.0 * cond.std_err - cond.p_hat
            worst = min(worst, slack)
            ok = ok and slack >= 0.0
    assert _line("C4 bound dominance", ok,
                 f"11 splits x 2 users at 1e5 trials; worst slack={worst:+.4f}")


# ---------------------------------------------------------------------------
# C5: primary protection


def test_c5_primary_protection():
    params = table1_params(0.04)
    res = allocate(params, snr_r_grid=(10.0,))
    est = estimate(params, res.alpha, 1_000_000, seed=51)
    guard = params.epsilon + 3.0 * est.pri.std_err
    ok = est.pri.p_hat <= guard
    detail = (f"total primary at allocator point: {est.pri.p_hat:.5f} <= "
              f"{guard:.5f}")
    scenarios = (params, default_params())
    noncoop = estimate_many(52, 1_000_000, [(scenario, 0.5, "noncooperative")
                                            for scenario in scenarios])
    for scenario, nc in zip(scenarios, noncoop):
        z = _z(nc.pri, scenario.epsilon)
        ok = ok and abs(z) <= 3.0
        detail += f"; noncoop primary z={z:+.2f} (eps={scenario.epsilon})"
    assert _line("C5 primary protection", ok, detail)


# ---------------------------------------------------------------------------
# C6: scheme ordering


def test_c6_scheme_ordering():
    params = default_params()                       # 20 dB, mu=1, eps=0.03
    d = derive(params)
    snr_r = min_snr_r_for_epsilon(d, 0.5, params.epsilon)
    params = params.with_snr_r(snr_r)
    schemes = ("proposed", "relay_assisted_secondary", "noncooperative")
    ests = dict(zip(schemes, estimate_many(
        66, 1_000_000, [(params, 0.5, scheme) for scheme in schemes])))
    p = ests["proposed"].sec
    r = ests["relay_assisted_secondary"].sec
    n = ests["noncoop" "erative"].sec
    gap1 = (r.p_hat - p.p_hat) / math.hypot(r.std_err, p.std_err)
    gap2 = (n.p_hat - r.p_hat) / math.hypot(n.std_err, r.std_err)
    ok = gap1 > 3.0 and gap2 > 3.0
    assert _line("C6 scheme ordering", ok,
                 f"proposed {p.p_hat:.5f} < relay-assisted {r.p_hat:.5f} < "
                 f"non-coop {n.p_hat:.5f}; gaps {gap1:.0f} and {gap2:.0f} "
                 "combined-sigma")


# ---------------------------------------------------------------------------
# C7: admission cutoff


def test_c7_cutoff_behavior(tmp_path):
    params = default_params()
    cutoff_db = linear_to_db(secondary_cutoff_snr(
        params.rate_p, params.epsilon, params.link_vars.pp))
    ok = abs(cutoff_db - 10.2) <= 0.1
    below = replace(params, snr_p=10.0 ** (9.5 / 10.0))
    ok = ok and derive(below).snr_s == 0.0
    for scheme in ("proposed", "noncooperative", "relay_assisted_secondary"):
        est = estimate(below, 0.5, 20_000, seed=7, scheme=scheme)
        ok = ok and est.sec.p_hat == 1.0
    report = reproduce("fig3", out_dir=tmp_path, trials=2_000, seed=7)
    documented = any("12" in c.detail and c.verdict == "NOTE"
                     for c in report.checks)
    assert _line("C7 cutoff behavior", ok and documented,
                 f"cutoff={cutoff_db:.4f} dB (ref 10.2+-0.1); below it all "
                 f"schemes report outage 1; 12 dB read-off documented="
                 f"{documented}")


# ---------------------------------------------------------------------------
# C8: channel-condition and split trends


def _usprime_at(params, alpha):
    d = derive(params)
    snr_r = min_snr_r_for_epsilon(d, alpha, params.epsilon)
    d_r = derive(params.with_snr_r(snr_r))
    return total_secondary_outage(d_r, alpha).total_sec, snr_r


def test_c8_trends():
    base = default_params()                        # 20 dB anchor point
    by_mu1 = {}
    for mu1 in (1.0, 0.5, 0.1):
        lv = replace(base.link_vars, pr=mu1, rp=mu1)
        by_mu1[mu1] = _usprime_at(replace(base, link_vars=lv), 0.5)
    by_mu2 = {}
    for mu2 in (1.0, 0.5, 0.1):
        lv = replace(base.link_vars, sr=mu2, rs=mu2)
        by_mu2[mu2] = _usprime_at(replace(base, link_vars=lv), 0.5)
    ok = (by_mu1[0.1][0] < by_mu1[0.5][0] < by_mu1[1.0][0]
          and by_mu1[0.1][1] > by_mu1[0.5][1] > by_mu1[1.0][1]
          and by_mu2[0.1][0] > by_mu2[0.5][0] > by_mu2[1.0][0])

    alphas = (0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 1.0)
    u = [_usprime_at(base, a)[0] for a in alphas]
    ok = ok and all(x < y for x, y in zip(u, u[1:]))

    floor = primary_split_floor(derive(base).lambda_p)
    (row,) = run_sweep(SweepSpec(
        scenario=base, axis="alpha", values=(0.42,), mode="analytic",
        snr_r_policy="min_for_epsilon"))
    ok = (ok and 0.42 < floor and row.analytic_sec == 1.0
          and row.error.startswith("infeasible: "))
    assert _line(
        "C8 trend checks", ok,
        f"mu1 down -> bound down & relay power up; mu2 down -> bound up; "
        f"split down from 1 to {alphas[0]} -> bound strictly down; "
        f"split 0.42 < floor {floor:.4f} -> infeasible/outage 1")


# ---------------------------------------------------------------------------
# C9: quadrature properties


def test_c9_numerics():
    # equal relay and direct gains: the full-power outage integral is a log
    d = synth_derived(rp=100.0, pp=100.0, sp=12.0)
    log_term = math.log1p(d.lambda_p * d.gain.sp / d.gain.pp)
    log_form = 1.0 - math.exp(-d.lambda_p / d.gain.rp) * (
        1.0 + d.gain.pp / (d.gain.sp * d.gain.rp) * log_term)
    ok = abs(cond_outage_d1_exact(d, "primary", 1.0) - log_form) <= 1e-10

    tol = 1e-10    # the integrator's fixed absolute and relative tolerance
    rng = np.random.default_rng(99)
    worst_add, worst_ref = 0.0, 0.0
    for _ in range(100):
        a = rng.uniform(0.05, 50.0)
        b = a + rng.uniform(1e-3, 60.0)
        c = rng.uniform(-3.0, 3.0)
        m = rng.uniform(a, b)
        whole = integrate_exp_over_x(c, a, b)
        parts = integrate_exp_over_x(c, a, m) + integrate_exp_over_x(c, m, b)
        worst_add = max(worst_add,
                        abs(whole - parts) - 2.0 * (tol + tol * abs(whole)))
        ref = exp_over_x_reference(c, a, b)    # Ei(c*b) - Ei(c*a)
        worst_ref = max(worst_ref, abs(whole - ref) - (tol + tol * abs(ref)))
    ok = ok and worst_add <= 1e-14 and worst_ref <= 0.0
    assert _line("C9 numerics", ok,
                 f"log-form match <=1e-10; additivity and agreement with "
                 f"the Ei series over 100 random triples (worst excess "
                 f"{max(worst_add, worst_ref):.2e})")


# ---------------------------------------------------------------------------
# C10: deterministic sweep output


def test_c10_deterministic_csv():
    spec = SweepSpec(
        scenario=default_params(), axis="snr_p_db",
        values=(16.0, 18.0, 20.0, 22.0, 24.0),
        schemes=("proposed", "noncooperative", "relay_assisted_secondary"),
        mode="both", trials=20_000, seed=9)
    outputs = [sweep_csv(run_sweep(spec, workers=w)) for w in (1, 4, 8)]
    rerun = sweep_csv(run_sweep(spec, workers=1))
    ok = outputs[0] == outputs[1] == outputs[2] == rerun
    assert _line("C10 deterministic CSV", ok,
                 f"{len(outputs[0])} bytes identical at 1/4/8 workers and "
                 "across reruns")
