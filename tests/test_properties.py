"""Property tests over random valid scenarios."""
import math
import sys

from hypothesis import assume, given, settings, strategies as st

from crrelay import (
    LinkTable,
    SystemParams,
    allocate,
    db_to_linear,
    derive,
    estimate,
    prob_relay_active_exact,
    total_secondary_outage,
    upper_bound_d1,
)
from crrelay.allocation import alpha_for_primary_bound
from crrelay.analytic import (
    _relay_bound,
    primary_split_floor,
    secondary_split_ceiling,
)
from crrelay.montecarlo import SCHEMES
from crrelay.system import LINKS
from conftest import replay_counts

# derandomized, so a tier-1 run checks the same examples every time
PROPERTY_SETTINGS = dict(deadline=None, derandomize=True, database=None)


@st.composite
def scenarios(draw):
    """Valid scenarios over wide rate, SNR, threshold and variance ranges."""
    return SystemParams(
        rate_p=draw(st.floats(1e-3, 4.0)),
        rate_s=draw(st.floats(1e-3, 4.0)),
        snr_p=db_to_linear(draw(st.floats(-10.0, 50.0))),
        snr_r=draw(st.one_of(st.just(0.0),
                             st.floats(-20.0, 50.0).map(db_to_linear))),
        epsilon=draw(st.floats(1e-4, 0.5)),
        link_vars=LinkTable(
            **{name: draw(st.floats(0.01, 10.0)) for name in LINKS}),
    )


splits = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))
relay_snrs = st.one_of(st.just(0.0), st.floats(-20.0, 50.0).map(db_to_linear))


@settings(max_examples=300, **PROPERTY_SETTINGS)
@given(params=scenarios(), alpha=splits)
def test_closed_forms_are_probabilities(params, alpha):
    d = derive(params)
    assume(d.snr_s > 0.0)
    summary = total_secondary_outage(d, alpha)
    values = [summary.p_d1, summary.total_sec, summary.total_pri,
              prob_relay_active_exact(d),
              upper_bound_d1(d, "primary", alpha),
              upper_bound_d1(d, "secondary", alpha)]
    assert all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values), values


@settings(max_examples=60, **PROPERTY_SETTINGS)
@given(params=scenarios(), alpha=splits, seed=st.integers(0, 2**32 - 1))
def test_estimate_counts_match_scalar_replay(params, alpha, seed):
    n = 200
    d1, pri, sec = replay_counts(params, alpha, seed, n)
    est = estimate(params, alpha, n, seed)
    assert (est.p_d1.p_hat, est.pri.p_hat, est.sec.p_hat) == \
        (d1 / n, pri / n, sec / n)


@settings(max_examples=300, **PROPERTY_SETTINGS)
@given(sinr=st.floats(0.0, sys.float_info.max / 2.0 ** 8),
       lam=st.floats(2.0 ** -52, 1e300))
def test_repeated_copy_event_halves_lambda_exactly(sinr, lam):
    # the kernel counts 2*sinr < lambda as sinr < lambda/2: over the SINRs a
    # checked scenario can reach and every accepted lambda both products are
    # exact, so the events agree, also next to the threshold
    half = 0.5 * lam
    for s in (sinr, half, math.nextafter(half, 0.0),
              math.nextafter(half, math.inf)):
        assert (2.0 * s < lam) == (s < 0.5 * lam)


def _split_pairs(d, a, b):
    """Ordered split pairs: the random pair, plus adjacent floats on both
    sides of the split floor, the split ceiling and a."""
    pairs = [tuple(sorted((a, b)))]
    for edge in (primary_split_floor(d.lambda_p),
                 secondary_split_ceiling(d.lambda_s), a):
        for x in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0)):
            if 0.0 <= x < 1.0:
                pairs.append((x, math.nextafter(x, 1.0)))
    return pairs


@settings(max_examples=200, **PROPERTY_SETTINGS)
@given(params=scenarios(), a=splits, b=splits)
def test_bounds_monotone_in_split(params, a, b):
    # exact, not within a tolerance: allocate takes the smallest feasible
    # split on these orders
    d = derive(params)
    assume(d.snr_s > 0.0)
    for lo, hi in _split_pairs(d, a, b):
        assert (upper_bound_d1(d, "primary", lo)
                >= upper_bound_d1(d, "primary", hi)), (lo, hi)
        assert (upper_bound_d1(d, "secondary", lo)
                <= upper_bound_d1(d, "secondary", hi)), (lo, hi)


@settings(max_examples=200, **PROPERTY_SETTINGS)
@given(params=scenarios(), alpha=splits, r1=relay_snrs, r2=relay_snrs)
def test_bounds_do_not_increase_with_relay_snr(params, alpha, r1, r2):
    d = derive(params)
    assume(d.snr_s > 0.0)
    lo, hi = sorted((r1, r2))
    for x, y in ((lo, hi), (lo, math.nextafter(lo, math.inf))):
        d_x = derive(params._replace(snr_r=x))
        d_y = derive(params._replace(snr_r=y))
        for user in ("primary", "secondary"):
            assert (upper_bound_d1(d_x, user, alpha)
                    >= upper_bound_d1(d_y, user, alpha)), (user, x, y)


# The scalar helpers' own arguments: a no-relay outage, a threshold, and a
# relay gain anywhere from none through subnormal (where g*t underflows to 0)
# up to 1e300.
outages = st.floats(0.0, 1.0)
thresholds = st.floats(1e-6, 1e6)
relay_gains = st.one_of(st.sampled_from((0.0, 5e-324, 1e-320)),
                        st.floats(0.0, 1e300))


def _ulp_pairs(lo, hi, *edges):
    """The ordered pair, and each point paired with the next float up."""
    pairs = [(lo, hi)]
    for edge in (lo, *edges):
        for x in (math.nextafter(edge, -math.inf), edge):
            if x >= 0.0:
                pairs.append((x, math.nextafter(x, math.inf)))
    return pairs


@settings(max_examples=300, **PROPERTY_SETTINGS)
@given(v=outages, lam=thresholds, g=relay_gains, a=splits, b=splits)
def test_scalar_bounds_exactly_monotone_in_split(v, lam, g, a, b):
    # the lemmas behind the allocator: the primary bound never rises and the
    # secondary bound never falls as the split grows, exactly, right across
    # the split floor and the split ceiling; the secondary's bound is the one
    # relay bound at its share 1 - alpha
    lo, hi = sorted((a, b))
    edges = (primary_split_floor(lam), secondary_split_ceiling(lam))
    for x, y in _ulp_pairs(lo, hi, *edges):
        if y <= 1.0:
            assert _relay_bound(v, g, x, lam) >= _relay_bound(v, g, y, lam)
            assert (_relay_bound(v, g, 1.0 - x, lam)
                    <= _relay_bound(v, g, 1.0 - y, lam))


@settings(max_examples=300, **PROPERTY_SETTINGS)
@given(v=outages, lam=thresholds, alpha=splits, g1=relay_gains,
       g2=relay_gains)
def test_scalar_bounds_exactly_monotone_in_relay_gain(v, lam, alpha, g1, g2):
    # neither bound ever rises as the relay gain grows
    lo, hi = sorted((g1, g2))
    for x, y in _ulp_pairs(lo, hi):
        assert _relay_bound(v, x, alpha, lam) >= _relay_bound(v, y, alpha, lam)
        assert (_relay_bound(v, x, 1.0 - alpha, lam)
                >= _relay_bound(v, y, 1.0 - alpha, lam))


@settings(max_examples=300, **PROPERTY_SETTINGS)
@given(params=scenarios(), epsilon=st.floats(1e-4, 0.5), r1=relay_snrs,
       r2=relay_snrs)
def test_closed_form_split_never_rises_with_relay_snr(params, epsilon, r1, r2):
    # a smaller relay SNR never gets a smaller closed-form split, and once
    # there is no inverse there is none at any smaller relay SNR
    d = derive(params._replace(epsilon=epsilon))
    lo, hi = sorted((r1, r2))
    for x, y in _ulp_pairs(lo, hi):
        a_x = alpha_for_primary_bound(d, snr_r=x)
        a_y = alpha_for_primary_bound(d, snr_r=y)
        if a_y is None:
            assert a_x is None, (x, y)
        elif a_x is not None:
            assert a_x >= a_y, (x, y)


@st.composite
def extreme_scenarios(draw):
    """Scenarios with SNRs and some link variances anywhere in the double
    range, or None where SystemParams itself rejects the values."""
    exponent = st.one_of(st.just(0.0), st.floats(-320.0, 300.0))
    try:
        return SystemParams(
            rate_p=draw(st.floats(1e-3, 4.0)),
            rate_s=draw(st.floats(1e-3, 4.0)),
            snr_p=db_to_linear(draw(st.floats(-50.0, 3000.0))),
            snr_r=db_to_linear(draw(st.floats(-3300.0, 3000.0))),
            epsilon=draw(st.floats(1e-12, 0.5)),
            link_vars=LinkTable(
                **{name: 10.0 ** draw(exponent) for name in LINKS}),
        )
    except ValueError:
        return None


@settings(max_examples=300, **PROPERTY_SETTINGS)
@given(params=extreme_scenarios(), alpha=splits)
def test_extreme_scenarios_raise_or_give_no_nan(params, alpha):
    # an overflow inside a closed form must surface as an error, never as a
    # NaN outage; an infeasible allocation's NaN split is its documented
    # sentinel, so only its secondary outage is read
    assume(params is not None)
    try:
        s = total_secondary_outage(derive(params), alpha)
    except (ValueError, ArithmeticError):
        pass
    else:
        values = (s.p_d1, s.total_sec, s.total_pri,
                  s.pri_d0, s.sec_d0, s.pri_d1, s.sec_d1)
        assert not any(v is not None and math.isnan(v) for v in values), s
    try:
        res = allocate(params)
    except (ValueError, ArithmeticError):
        return
    values = (res.alpha, res.snr_r, res.u_p) if res.feasible else ()
    assert not any(map(math.isnan, (res.u_s_total, *values))), res


@settings(max_examples=300, **PROPERTY_SETTINGS)
@given(params=extreme_scenarios(), alpha=splits)
def test_extreme_scenarios_simulate_finite_or_raise(params, alpha):
    # the simulator refuses a scenario whose draws could overflow; on every
    # other one no kernel expression overflows (filterwarnings turns a numpy
    # overflow warning into a failure) and every estimate is finite
    assume(params is not None)
    for scheme in SCHEMES:
        try:
            est = estimate(params, alpha, 300, seed=1, scheme=scheme)
        except ValueError:
            return
        for field in est:
            assert field is None or all(map(math.isfinite, field)), est
