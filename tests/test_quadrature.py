import math

import numpy as np
import pytest

from conftest import exp_over_x_reference, synth_derived
from crrelay import (
    QuadratureError,
    cond_outage_d1_exact,
    derive,
    integrate_exp_over_x,
    table1_params,
)


# the fixed absolute and relative tolerance of integrate_exp_over_x
TOL = 1e-10


def midpoint_rule(c, a, b, panels=1_000_000):
    """Independent fixed-grid oracle."""
    xs = np.linspace(a, b, panels + 1)
    mid = 0.5 * (xs[1:] + xs[:-1])
    return float(np.sum(np.exp(c * mid) / mid) * (b - a) / panels)


def random_triples(n, seed=3):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        a = rng.uniform(0.05, 50.0)
        b = a + rng.uniform(1e-3, 60.0)
        c = rng.uniform(-3.0, 3.0)
        out.append((c, a, b))
    return out


def test_log_fast_path():
    assert integrate_exp_over_x(0.0, 1.0, 2.0) == pytest.approx(
        math.log(2.0), rel=1e-14)


def test_unit_exponent_reference():
    # difference of exponential-integral values at 2 and 1
    val = integrate_exp_over_x(1.0, 1.0, 2.0)
    assert val == pytest.approx(3.0591165396459534, abs=1e-8)
    assert val == pytest.approx(midpoint_rule(1.0, 1.0, 2.0), abs=1e-8)


def equal_gain_full_power_outage(d):
    """Full-relay-power primary outage when the relay-to-primary gain equals
    the direct gain: the exponent coefficient of its integral vanishes, so the
    integral is the pure logarithm log1p(lambda_p * g_sp / g_pp)."""
    g, lam = d.gain, d.lambda_p
    log_term = math.log1p(lam * g.sp / g.pp)
    return 1.0 - math.exp(-lam / g.rp) * (1.0 + g.pp / (g.sp * g.rp) * log_term)


def test_equal_gain_case_reduces_to_log(table1_derived=None):
    # when the relay-to-destination gain equals the direct gain the exponent
    # coefficient vanishes and the integral is a pure logarithm
    d = synth_derived(rp=100.0, pp=100.0, sp=12.0)
    expected = equal_gain_full_power_outage(d)
    assert cond_outage_d1_exact(d, "primary", 1.0) == pytest.approx(
        expected, abs=1e-10)


def test_empty_interval_is_zero():
    # a vanishing threshold shrinks the integration interval to a point
    d = synth_derived(rate_p=1e-15)
    assert cond_outage_d1_exact(d, "primary", 1.0) == pytest.approx(
        0.0, abs=1e-12)


def test_table1_gamma_matches_midpoint_oracle():
    # the interference-averaging integral of the full-relay-power outage
    d = derive(table1_params(0.04))
    c = (1.0 / d.gain.rp - 1.0 / d.gain.pp) / d.gain.sp
    a = d.gain.pp
    b = d.gain.pp + d.lambda_p * d.gain.sp
    oracle = midpoint_rule(c, a, b)
    assert integrate_exp_over_x(c, a, b) == pytest.approx(oracle, abs=1e-8)
    assert oracle == pytest.approx(0.18642874705855908, abs=1e-8)


def test_input_validation():
    with pytest.raises(ValueError):
        integrate_exp_over_x(1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        integrate_exp_over_x(1.0, -1.0, 2.0)
    with pytest.raises(ValueError):
        integrate_exp_over_x(1.0, 3.0, 2.0)
    with pytest.raises(ValueError):
        integrate_exp_over_x(math.nan, 1.0, 2.0)


def test_monotone_against_log_floor():
    for c, a, b in random_triples(100, seed=4):
        val = integrate_exp_over_x(c, a, b)
        log_ref = math.log(b / a)
        if c >= 0.0:
            assert val >= log_ref - 1e-9
        else:
            assert val <= log_ref + 1e-9


def test_additivity_over_interior_split():
    rng = np.random.default_rng(5)
    for c, a, b in random_triples(100, seed=6):
        m = rng.uniform(a, b)
        whole = integrate_exp_over_x(c, a, b)
        parts = integrate_exp_over_x(c, a, m) + integrate_exp_over_x(c, m, b)
        tol = 2.0 * (TOL + TOL * abs(whole))
        assert abs(whole - parts) <= tol + 1e-14


def test_refinement_convergence():
    # the refinement must reach Ei(c*b) - Ei(c*a), summed independently,
    # within the fixed tolerance
    for c, a, b in random_triples(100, seed=7):
        ref = exp_over_x_reference(c, a, b)
        assert abs(integrate_exp_over_x(c, a, b) - ref) <= TOL + TOL * abs(ref)


def test_depth_cap_signals_failure(monkeypatch):
    # a cap of 8 halvings leaves room past the forced minimum depth: a smooth
    # integrand still converges, the 1/x peak at 0.01 cannot
    monkeypatch.setattr("crrelay.quadrature._MAX_DEPTH", 8)
    assert integrate_exp_over_x(0.1, 1.0, 2.0) == pytest.approx(
        exp_over_x_reference(0.1, 1.0, 2.0), rel=1e-10, abs=1e-10)
    with pytest.raises(QuadratureError):
        integrate_exp_over_x(2.0, 0.01, 30.0)
    assert issubclass(QuadratureError, ArithmeticError)


def test_wide_interval_near_singularity_converges():
    # interval [5e-5, 3e4] of the full-power secondary outage at 40 dB primary
    # SNR and epsilon 1e-4: the 1/x peak at the left end is nine orders of
    # magnitude narrower than the interval, so halving the budget per split
    # reaches rounding noise long before the depth cap
    c, a, b = -1.9997667054584545, 5.0003332585646376e-05, 30000.00005000333
    shift = -2.9999000050003333
    # exp(shift) * (Ei(c*b) - Ei(c*a)), evaluated with mpmath at 40 digits
    reference = 0.42986842047794253351
    assert integrate_exp_over_x(c, a, b, exp_shift=shift) == pytest.approx(
        reference, rel=1e-12)


def test_overflowing_panel_sum_raises():
    # the full-power secondary integral of a 1940 dB relay over a 1e-243 ss
    # link: the crude estimate overflows, so every panel is accepted and
    # the panels summed to -inf for a positive integrand
    with pytest.raises(OverflowError, match="not finite"):
        integrate_exp_over_x(-1.2356e109, 4.44e-212, 1.2358e103,
                             exp_shift=5.49e-103)


def test_overflowing_crude_estimate_is_re_anchored():
    # here only the crude whole-interval estimate overflows (to inf); the
    # panels do not, and the re-anchored refinement reaches
    # exp(shift) * (Ei(c*b) - Ei(c*a)), mpmath at 40 digits
    c, a, b, shift = -1.0, 1e-3, 1e4, 697.7
    f = (b - a) / 6.0 * (math.exp(c * a + shift) / a)
    assert f == math.inf
    assert integrate_exp_over_x(c, a, b, exp_shift=shift) == pytest.approx(
        6.4382722173122212953e303, rel=1e-10)


def test_exp_shift_scales_integral():
    for c, a, b in random_triples(20, seed=8):
        plain = integrate_exp_over_x(c, a, b)
        shifted = integrate_exp_over_x(c, a, b, exp_shift=-1.5)
        assert shifted == pytest.approx(math.exp(-1.5) * plain, rel=1e-10)
