import functools
import math
import random

import numpy as np
import pytest

from conftest import (ratio_outage_reference, symmetric_relay_params,
                      synth_derived)
from crrelay import (
    USER_LINKS,
    LinkTable,
    SystemParams,
    cond_outage_d0,
    cond_outage_d1_exact,
    db_to_linear,
    default_params,
    derive,
    load_config,
    noncoop_outage,
    prob_decode_order,
    prob_relay_active,
    prob_relay_active_exact,
    total_secondary_outage,
    upper_bound_d1,
)
from crrelay.analytic import (_clamp01, _full_power_outage, _ratio_outage,
                              primary_split_floor, secondary_split_ceiling)

# frozen reference values for the allocation-table scenario at epsilon=0.04
T1_ACTIVATION = 0.9870192472216616
T1_SEC_D0 = 0.0144497959426722
T1_PRI_FULL_POWER = 0.00328819904355143
T1_X = 0.0884552072556229
T1_UP_ALPHA1 = 0.00631840490415294
T1_ALPHA_EPS = 0.496373799727384
T1_USPRIME = 0.00267753487853099


# ---- ratio outage ----------------------------------------------------------

@functools.cache
def _ratio_outage_errors() -> tuple:
    """Relative errors of _ratio_outage against its 50-digit decimal
    reference over 20,000 seeded log-uniform inputs: g in 1e-2..1e8, g_c in
    1e-3..1e3 and t in 1e-2..10."""
    rng = random.Random(1)
    errors = []
    for _ in range(20_000):
        g = 10.0 ** rng.uniform(-2.0, 8.0)
        g_c = 10.0 ** rng.uniform(-3.0, 3.0)
        t = 10.0 ** rng.uniform(-2.0, 1.0)
        ref = ratio_outage_reference(g, g_c, t)
        errors.append(abs(_ratio_outage(g, g_c, t) - ref) / ref)
    return tuple(errors)


def test_ratio_outage_against_decimal_reference():
    # 1 - g*exp(-t/g)/(g + t*g_c) cancels when the outage is small; this
    # bounds how far today's form strays (ROADMAP item 3 names 8.87e-7 over
    # 6,590 inputs above 1e-12)
    errors = _ratio_outage_errors()
    worst, loose = max(errors), sum(e > 1e-12 for e in errors)
    print(f"ratio outage: worst relative error {worst:.4e}, "
          f"{loose} of {len(errors)} inputs above 1e-12")
    assert worst <= 1e-6


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="_ratio_outage cancels in small outages until it "
                          "takes an expm1 form (ROADMAP item 3)")
def test_ratio_outage_is_tail_accurate():
    assert max(_ratio_outage_errors()) <= 1e-12


# ---- decode order ----------------------------------------------------------

def test_decode_order_symmetric():
    assert prob_decode_order(synth_derived(pr=10.0, sr=10.0)) == 0.5


def test_decode_order_ratio():
    d = synth_derived(pr=30.0, sr=10.0)
    assert prob_decode_order(d) == pytest.approx(0.75, rel=1e-15)


def test_decode_order_table1(table1_derived):
    assert prob_decode_order(table1_derived) == pytest.approx(
        100.0 / (100.0 + 120.008829999969), rel=1e-12)


@pytest.mark.parametrize("form", [prob_decode_order, prob_relay_active,
                                  prob_relay_active_exact],
                         ids=lambda form: form.__name__)
def test_relay_side_forms_share_one_check(form):
    # the decode order and both activation forms read the relay gains
    # through one check, so each refuses a scenario with the same message
    with pytest.raises(ValueError, match="^relay activation model assumes "
                       "an admitted secondary transmitter$"):
        form(synth_derived(snr_s=0.0))
    for link in ("pr", "sr"):
        with pytest.raises(ValueError, match="^relay activation needs "
                           "positive mean gains toward the relay$"):
            form(synth_derived(**{link: 0.0}))


# ---- relay activation ------------------------------------------------------

def test_relay_activation_symmetric_reference():
    d = synth_derived(rate_p=0.2, rate_s=0.2, pr=10.0, sr=10.0)
    assert prob_relay_active(d) == pytest.approx(0.9285694409613031, rel=1e-12)


def test_relay_activation_table1(table1_derived):
    assert prob_relay_active(table1_derived) == pytest.approx(
        T1_ACTIVATION, rel=1e-12)


def test_relay_activation_saturates():
    d = synth_derived(pr=1e9, sr=1e9)
    assert prob_relay_active(d) > 1.0 - 1e-6


def test_relay_activation_threshold_max_resolution():
    # with equal rates the per-branch first-stage threshold is the larger of
    # lam*(1+lam) and lam, which is always the former
    d = synth_derived(rate_p=0.3, rate_s=0.3, pr=8.0, sr=5.0)
    lam = d.lambda_p
    m = lam * (1.0 + lam)
    expected = (8.0 / 13.0) * math.exp(-m / 8.0 - lam / 5.0) \
        + (5.0 / 13.0) * math.exp(-m / 5.0 - lam / 8.0)
    assert prob_relay_active(d) == pytest.approx(expected, rel=1e-14)


# ---- exact relay activation ------------------------------------------------

def test_exact_activation_matches_event_integral():
    # the literal-event integral recorded with the simulator oracle in
    # test_montecarlo.py
    d = derive(symmetric_relay_params())
    assert prob_relay_active_exact(d) == pytest.approx(0.93795556549265756,
                                                       rel=1e-12)


def _activation_by_quadrature(d) -> float:
    """P(D=1) by integrating the decision region over y = snr_s*|h_sr|^2.

    Given y, the primary-first order needs x > max(y, lambda_p*(1+y)) and
    y >= lambda_s; the secondary-first order needs
    lambda_p <= x < min(y, y/lambda_s - 1).  Each is an exponential tail in x.
    """
    integrate = pytest.importorskip("scipy.integrate")
    gx, gy = d.gain.pr, d.gain.sr
    lp, ls = d.lambda_p, d.lambda_s

    def conditional(y):
        p_first = (math.exp(-max(y, lp * (1.0 + y)) / gx) if y >= ls
                   else 0.0)
        x_max = min(y, y / ls - 1.0)
        s_first = (math.exp(-lp / gx) - math.exp(-x_max / gx)
                   if x_max > lp else 0.0)
        return math.exp(-y / gy) / gy * (p_first + s_first)

    kinks = [ls, ls * (1.0 + lp)]
    if lp < 1.0:
        kinks.append(lp / (1.0 - lp))
    if ls < 1.0:
        kinks.append(ls / (1.0 - ls))
    y_max = 80.0 * gy                 # the tail beyond is below e^-80
    value, _ = integrate.quad(conditional, 0.0, y_max, points=kinks,
                              epsabs=1e-14, epsrel=1e-13, limit=400)
    return value


@pytest.mark.parametrize("rate_p, rate_s, branch", [
    (0.6, 0.2, "lambda_p >= 1"),
    (0.5, 0.2, "lambda_p == 1"),
    (0.4, 0.2, "lambda_p < 1, breakpoint above lambda_s"),
    (0.2, 0.4, "lambda_p < 1, breakpoint below lambda_s"),
])
@pytest.mark.parametrize("pr, sr", [(8.0, 5.0), (2.0, 30.0)])
def test_exact_activation_matches_quadrature(rate_p, rate_s, branch, pr, sr):
    d = synth_derived(rate_p=rate_p, rate_s=rate_s, pr=pr, sr=sr)
    lp, ls = d.lambda_p, d.lambda_s
    hit = {
        "lambda_p >= 1": lp > 1.0,
        "lambda_p == 1": lp == 1.0,
        "lambda_p < 1, breakpoint above lambda_s": lp < 1.0
        and lp / (1.0 - lp) > ls,
        "lambda_p < 1, breakpoint below lambda_s": lp < 1.0
        and lp / (1.0 - lp) < ls,
    }[branch]
    assert hit
    assert prob_relay_active_exact(d) == pytest.approx(
        _activation_by_quadrature(d), abs=1e-10)


def test_exact_activation_differs_from_paper_form(table1_derived):
    # the simulator reads 0.98992 here at 1e6 trials (C3b); the paper
    # form's order/threshold factorization undercounts it
    assert prob_relay_active_exact(table1_derived) == pytest.approx(
        0.9899163850163284, rel=1e-12)
    assert prob_relay_active_exact(table1_derived) > \
        prob_relay_active(table1_derived) + 1e-3


def test_exact_activation_validates_inputs():
    with pytest.raises(ValueError, match="admitted secondary"):
        prob_relay_active_exact(synth_derived(snr_s=0.0))
    for gains in ({"pr": 0.0}, {"sr": 0.0}, {"pr": -1.0}):
        with pytest.raises(ValueError):
            prob_relay_active_exact(synth_derived(**gains))


# ---- relay-silent conditionals ---------------------------------------------

def test_sec_d0_no_interference_limit():
    d = synth_derived(ss=120.0, ps=0.0)
    assert cond_outage_d0(d, "secondary") == pytest.approx(
        1.0 - math.exp(-d.lambda_s / 240.0), rel=1e-12)


def test_sec_d0_table1(table1_derived):
    assert cond_outage_d0(table1_derived, "secondary") == pytest.approx(
        T1_SEC_D0, rel=1e-10)


def test_sec_d0_zero_rate_never_outages():
    d = synth_derived(rate_s=1e-12)
    assert cond_outage_d0(d, "secondary") < 1e-10


def test_user_forms_role_swap_symmetry():
    # trading the users' rates and their direct, cross and relay links turns
    # each user's form into the other's, bit for bit: one formula serves both
    pri, sec = USER_LINKS.values()
    swap = dict(zip(pri + sec, sec + pri))
    rng = np.random.default_rng(24)
    cases = [(0.4, 0.2, dict(pp=80.0, sp=3.0, ss=50.0, ps=7.0))] + [
        (*rng.uniform(0.05, 1.5, 2),
         dict(zip(pri + sec, 10.0 ** rng.uniform(-2.0, 3.0, 6))))
        for _ in range(200)]
    for rate_p, rate_s, gains in cases:
        d = synth_derived(rate_p, rate_s, **gains)
        twin = synth_derived(rate_s, rate_p,
                             **{swap[k]: v for k, v in gains.items()})
        for f in (cond_outage_d0, noncoop_outage):
            assert f(d, "primary") == f(twin, "secondary")
            assert f(d, "secondary") == f(twin, "primary")
        # the user holding all of the relay power, then the one holding none
        assert (cond_outage_d1_exact(d, "primary", 1.0)
                == cond_outage_d1_exact(twin, "secondary", 0.0))
        assert (upper_bound_d1(d, "primary", 0.0)
                == upper_bound_d1(twin, "secondary", 1.0))


def test_d0_rejects_zero_direct_gain():
    with pytest.raises(ValueError, match="secondary direct gain must be"):
        cond_outage_d0(synth_derived(ss=0.0), "secondary")
    with pytest.raises(ValueError, match="primary direct gain must be"):
        cond_outage_d0(synth_derived(pp=0.0), "primary")


@pytest.mark.parametrize("form", [cond_outage_d0, noncoop_outage])
def test_user_forms_reject_unknown_user(table1_derived, form):
    with pytest.raises(ValueError, match="user must be 'primary' or "
                                         "'secondary'"):
        form(table1_derived, "relay")


# ---- relay-active exact forms ----------------------------------------------

def test_d1_exact_rejects_interior_split(table1_derived):
    for alpha in (0.5, -0.1, 1.1):
        with pytest.raises(ValueError):
            cond_outage_d1_exact(table1_derived, "primary", alpha)
    # the full-power form divides by the interference link's gain
    with pytest.raises(ValueError, match="positive cross gain"):
        cond_outage_d1_exact(synth_derived(sp=0.0), "primary", 1.0)


def test_d1_exact_no_relay_share_is_direct_form(table1_derived):
    d = table1_derived
    expected = 1.0 - d.gain.pp * math.exp(-d.lambda_p / d.gain.pp) / (
        d.gain.pp + d.lambda_p * d.gain.sp)
    assert cond_outage_d1_exact(d, "primary", 0.0) == pytest.approx(
        expected, rel=1e-14)
    expected_s = 1.0 - d.gain.ss * math.exp(-d.lambda_s / d.gain.ss) / (
        d.gain.ss + d.lambda_s * d.gain.ps)
    assert cond_outage_d1_exact(d, "secondary", 1.0) == pytest.approx(
        expected_s, rel=1e-14)


def test_d1_exact_full_power_reference(table1_derived):
    assert cond_outage_d1_exact(table1_derived, "primary", 1.0) == \
        pytest.approx(T1_PRI_FULL_POWER, abs=1e-9)


def test_d1_exact_equal_gain_log_form():
    # relay gain equal to the direct gain collapses the integral to a log
    d = synth_derived(pp=50.0, sp=4.0, rp=50.0)
    lam = d.lambda_p
    log_term = math.log1p(lam * 4.0 / 50.0)
    expected = 1.0 - math.exp(-lam / 50.0) * (1.0 + (50.0 / (4.0 * 50.0))
                                              * log_term)
    assert cond_outage_d1_exact(d, "primary", 1.0) == pytest.approx(
        expected, rel=1e-10)


def test_d1_exact_powerless_relay_equals_direct_only():
    d = synth_derived(rp=0.0)
    assert cond_outage_d1_exact(d, "primary", 1.0) == pytest.approx(
        cond_outage_d1_exact(d, "primary", 0.0), rel=1e-14)


def test_d1_exact_tiny_relay_gain_stays_finite():
    # the shifted integrand keeps the full-power form finite where the plain
    # integral would overflow
    d = synth_derived(pp=1000.0, sp=100.0, rp=5e-3)
    val = cond_outage_d1_exact(d, "primary", 1.0)
    assert 0.0 <= val <= 1.0 and math.isfinite(val)


# full-power outages 1 - e^(-t/g_relay) - g_sig/(g_cross*g_relay)
# * e^(-c*g_sig - t/g_relay) * (Ei(c*(g_sig + t*g_cross)) - Ei(c*g_sig)),
# c = (1/g_relay - 1/g_sig)/g_cross, evaluated with mpmath at 100 digits
WEAK_RELAY_EI = {
    -60: (0.06718563350303679, 0.039174625527992904),
    -70: (0.06718571014721178, 0.03917473192764382),
    -80: (0.06718571781162805, 0.03917474256760655),
    -90: (0.06718571857806965, 0.0391747436316028),
    -140: (0.06718571866322898, 0.039174743749823424),
    -200: (0.06718571866322984, 0.0391747437498246),
}


@pytest.mark.parametrize("snr_r_db", [-60, -70, -80, -90, -140, -200, -300,
                                      -1000, -3080, -3236])
def test_d1_exact_weak_relay_matches_reference(snr_r_db):
    # relay gains this weak once lost digits, printed 0 or 1, or raised; the
    # full-power form must reach its no-relay limit smoothly.  mpmath's own
    # Ei loses precision below -220 dB, where the limit itself is the
    # reference
    d = derive(default_params()._replace(snr_r=db_to_linear(snr_r_db)))
    g = d.gain
    cases = (("primary", 1.0, g.pp, g.sp, d.lambda_p),
             ("secondary", 0.0, g.ss, g.ps, d.lambda_s))
    for k, (user, alpha, g_sig, g_cross, t) in enumerate(cases):
        if snr_r_db in WEAK_RELAY_EI:
            ref = WEAK_RELAY_EI[snr_r_db][k]
        else:
            ref = 1.0 - g_sig * math.exp(-t / g_sig) / (g_sig + t * g_cross)
        assert cond_outage_d1_exact(d, user, alpha) == pytest.approx(
            ref, rel=0.0, abs=1e-12)


def test_d1_exact_weak_relay_keeps_a_small_outage():
    # a relay gain 2.2e-8 of the threshold over a strong direct link: the
    # integral's absolute error, scaled by g_sig/(g_cross*g_relay) ~ 1.8e12,
    # swamped this 2e-6 outage (it returned 0.0).  The Ei reference is
    # mpmath's at 80 digits; what error is left is the no-relay outage's own
    # 1 - exp cancellation (8e-11 relative)
    value = _full_power_outage(6300.0, 0.0133, 2.7e-10, 0.0123, "primary")
    assert value == pytest.approx(1.9783456183550685e-6, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("overrides, ref", [
    # Ei references as above: a strong relay over a weak direct link, where
    # the direct SINR density at the threshold is vanishingly small
    (("link_vars.ss=1e-4",), 0.03127690228464602),
    (("link_vars.ss=1e-4", "snr_r_db=0"), 0.27222304315243184),
    (("link_vars.ss=1e-4", "snr_r_db=-10"), 0.9582970404835344),
    # just above the admission cutoff: the admitted secondary SNR is 0.019
    (("epsilon=0.003196",), 0.031076667092000493),
])
def test_d1_exact_weak_direct_link_keeps_relay(overrides, ref):
    d = derive(load_config(None, overrides))
    assert cond_outage_d1_exact(d, "secondary", 0.0) == pytest.approx(
        ref, rel=0.0, abs=1e-12)


def test_d1_exact_names_an_overflowing_final_sum():
    # the secondary integral's panels sum to -inf while its scale
    # g_ss/(g_ps*g_rs) underflows to 0: the form and the totals that mix it
    # name the overflow, never an anonymous NaN
    d = derive(SystemParams(
        rate_p=1.2496299763923282, rate_s=1.4797649571768332,
        snr_p=1.6760559082898258e+32, snr_r=1.002759234861377e+194,
        epsilon=0.18018092186629392, link_vars=LinkTable(
            pp=1, sp=1, ps=1.0877496319854075e+70, ss=1.660387787950969e-243,
            pr=1, sr=1, rp=1, rs=1)))
    message = ("full-power secondary outage overflows: the mean gains of "
               "links ss, ps and rs are out of range")
    with pytest.raises(ArithmeticError, match=message):
        cond_outage_d1_exact(d, "secondary", 0.0)
    with pytest.raises(ArithmeticError, match=message):
        total_secondary_outage(d, 0.0)


# ---- relay-active bounds ---------------------------------------------------

def test_bound_reference_values(table1_derived):
    d = table1_derived
    floor = primary_split_floor(d.lambda_p)
    assert floor == pytest.approx(0.4256508225014825, rel=1e-14)
    assert upper_bound_d1(d, "primary", 0.3) == pytest.approx(T1_X, rel=1e-12)
    assert upper_bound_d1(d, "primary", 1.0) == pytest.approx(
        T1_UP_ALPHA1, rel=1e-12)


def test_bound_dominates_exact_at_full_power(table1_derived):
    d = table1_derived
    assert upper_bound_d1(d, "primary", 1.0) >= \
        cond_outage_d1_exact(d, "primary", 1.0)
    assert upper_bound_d1(d, "secondary", 0.0) >= \
        cond_outage_d1_exact(d, "secondary", 0.0)


def test_bound_endpoint_agreement(table1_derived):
    d = table1_derived
    floor = primary_split_floor(d.lambda_p)
    ceil = secondary_split_ceiling(d.lambda_s)
    assert upper_bound_d1(d, "primary", 0.5 * floor) == \
        cond_outage_d1_exact(d, "primary", 0.0)
    assert upper_bound_d1(d, "secondary", 0.5 * (1.0 + ceil)) == \
        cond_outage_d1_exact(d, "secondary", 1.0)


def test_bound_monotonicity(table1_derived):
    d = table1_derived
    alphas = np.linspace(primary_split_floor(d.lambda_p) + 1e-6, 1.0, 60)
    up = [upper_bound_d1(d, "primary", a) for a in alphas]
    assert all(b <= a + 1e-15 for a, b in zip(up, up[1:]))
    alphas = np.linspace(0.0, secondary_split_ceiling(d.lambda_s) - 1e-6, 60)
    us = [upper_bound_d1(d, "secondary", a) for a in alphas]
    assert all(b >= a - 1e-15 for a, b in zip(us, us[1:]))


def test_bound_continuous_at_branch_points(table1_derived):
    d = table1_derived
    floor = primary_split_floor(d.lambda_p)
    assert upper_bound_d1(d, "primary", floor + 1e-12) == pytest.approx(
        upper_bound_d1(d, "primary", floor), abs=1e-9)
    ceil = secondary_split_ceiling(d.lambda_s)
    assert upper_bound_d1(d, "secondary", ceil - 1e-12) == pytest.approx(
        upper_bound_d1(d, "secondary", ceil), abs=1e-9)


def test_bound_underflowing_relay_gain_is_no_relay(table1_derived):
    # at the smallest positive relay SNR the relay gain times the split term
    # underflows to 0: the bound takes its no-relay limit, not 1/0
    d = derive(table1_derived.params._replace(snr_r=5e-324))
    assert upper_bound_d1(d, "primary", 0.5) == \
        upper_bound_d1(d, "primary", 0.0)
    assert upper_bound_d1(d, "secondary", 0.5) == \
        upper_bound_d1(d, "secondary", 1.0)


def test_bound_rejects_out_of_range(table1_derived):
    for alpha in (-0.01, 1.01):
        with pytest.raises(ValueError):
            upper_bound_d1(table1_derived, "primary", alpha)
    with pytest.raises(ValueError, match="primary direct gain"):
        upper_bound_d1(synth_derived(pp=0.0), "primary", 0.5)
    with pytest.raises(ValueError, match="user must be"):
        upper_bound_d1(table1_derived, "relay", 0.5)


# ---- totals -----------------------------------------------------------------

def test_total_mixture_consistency(table1_derived):
    d = table1_derived
    w = prob_relay_active(d)
    for alpha in (0.0, 0.5, 1.0):
        summary = total_secondary_outage(d, alpha)
        d1 = upper_bound_d1 if alpha == 0.5 else cond_outage_d1_exact
        pri_d0, sec_d0 = (cond_outage_d0(d, "primary"),
                          cond_outage_d0(d, "secondary"))
        pri_d1, sec_d1 = d1(d, "primary", alpha), d1(d, "secondary", alpha)
        assert (summary.pri_d0, summary.sec_d0, summary.pri_d1,
                summary.sec_d1) == (pri_d0, sec_d0, pri_d1, sec_d1)
        assert summary.sec == pytest.approx(
            (1.0 - w) * sec_d0 + w * sec_d1, abs=1e-12)
        assert summary.pri == pytest.approx(
            (1.0 - w) * pri_d0 + w * pri_d1, abs=1e-12)
        assert summary.p_d1 == w
        assert summary.order_p == prob_decode_order(d)
        assert summary.bound == (alpha == 0.5)


def test_total_degenerate_mixture_without_relay_links(table1):
    # vanishing transmitter-to-relay links force the relay silent, so the
    # total collapses to the relay-silent conditional
    lv = table1.link_vars._replace(pr=1e-12, sr=1e-12)
    d = derive(table1._replace(link_vars=lv))
    summary = total_secondary_outage(d, 0.5)
    assert summary.p_d1 < 1e-10
    assert summary.sec == pytest.approx(cond_outage_d0(d, "secondary"),
                                        abs=1e-9)


def test_total_full_primary_split_is_worst_for_secondary(table1_derived):
    at_alloc = total_secondary_outage(table1_derived, T1_ALPHA_EPS)
    at_one = total_secondary_outage(table1_derived, 1.0)
    assert at_one.sec >= at_alloc.sec


def test_total_usprime_reference(table1_derived):
    summary = total_secondary_outage(table1_derived, T1_ALPHA_EPS)
    assert summary.bound
    assert summary.sec == pytest.approx(T1_USPRIME, rel=1e-10)


def test_total_without_secondary_access(table1):
    d = derive(table1._replace(epsilon=1e-9))
    assert d.snr_s == 0.0
    summary = total_secondary_outage(d, 0.5)
    assert summary.sec == 1.0
    assert summary.p_d1 == 0.0
    assert summary.order_p is None
    assert not summary.bound
    assert summary.pri == pytest.approx(
        1.0 - math.exp(-d.lambda_p / (2.0 * d.gain.pp)), rel=1e-14)


def test_total_rejects_bad_split(table1_derived):
    with pytest.raises(ValueError):
        total_secondary_outage(table1_derived, 1.5)


# ---- non-cooperative baseline ----------------------------------------------

def test_noncoop_forms(table1_derived):
    d = table1_derived
    expected = 1.0 - d.gain.ss * math.exp(-d.theta_s / d.gain.ss) / (
        d.gain.ss + d.theta_s * d.gain.ps)
    assert noncoop_outage(d, "secondary") == pytest.approx(expected, rel=1e-14)
    # the admission rule pins the primary baseline at epsilon
    assert noncoop_outage(d, "primary") == pytest.approx(0.04, abs=1e-12)


def test_noncoop_limits():
    d = synth_derived(ps=0.0, ss=40.0)
    assert noncoop_outage(d, "secondary") == pytest.approx(
        1.0 - math.exp(-d.theta_s / 40.0), rel=1e-12)
    assert noncoop_outage(synth_derived(rate_s=1e-12), "secondary") < 1e-10
    with pytest.raises(ValueError):
        noncoop_outage(synth_derived(ss=0.0), "secondary")
    with pytest.raises(ValueError,
                       match="primary direct gain must be positive"):
        noncoop_outage(synth_derived(pp=0.0), "primary")


# ---- global sanity -----------------------------------------------------------

def test_probabilities_stay_in_unit_interval():
    rng = np.random.default_rng(12)
    for _ in range(50):
        params = SystemParams(
            rate_p=rng.uniform(0.1, 1.5),
            rate_s=rng.uniform(0.1, 1.5),
            snr_p=rng.uniform(2.0, 500.0),
            snr_r=rng.uniform(0.0, 50.0),
            epsilon=rng.uniform(0.01, 0.3),
            link_vars=LinkTable(**{
                l: float(rng.uniform(0.05, 2.0))
                for l in ("pp", "sp", "ps", "ss", "pr", "sr", "rp", "rs")
            }),
        )
        d = derive(params)
        values = []
        for alpha in (0.0, 0.37, 1.0):
            summary = total_secondary_outage(d, alpha)
            values += [summary.p_d1, summary.sec, summary.pri]
            if d.snr_s > 0.0:
                values += [upper_bound_d1(d, "primary", alpha),
                           upper_bound_d1(d, "secondary", alpha)]
        if d.snr_s > 0.0:
            values += [f(d, user) for f in (noncoop_outage, cond_outage_d0)
                       for user in ("secondary", "primary")]
        assert all(0.0 <= v <= 1.0 for v in values)


def test_clamp01_raises_on_nan():
    # every closed-form probability passes through the clamp, so a NaN from
    # an overflowed intermediate is refused there instead of returned
    assert (_clamp01(-0.5), _clamp01(0.25), _clamp01(1.5)) == (0.0, 0.25, 1.0)
    with pytest.raises(ArithmeticError, match="NaN"):
        _clamp01(math.nan)
