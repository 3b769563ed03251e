import math
import random
from dataclasses import replace

import pytest

from crrelay import (
    AllocationResult,
    LinkTable,
    SystemParams,
    allocate,
    alpha_for_primary_bound,
    common_alpha_band,
    cond_sec_outage_d0,
    derive,
    min_snr_r_for_epsilon,
    prob_relay_active,
    table1_params,
    upper_bound_d1,
)
import crrelay.allocation
from crrelay.allocation import (
    default_snr_r_grid,
    rate_p_at_split_floor,
    rate_s_at_split_ceiling,
)
from crrelay.analytic import (
    _primary_bound,
    _ratio_outage,
    _secondary_bound,
    primary_split_floor,
    secondary_split_ceiling,
)
from crrelay.harness import default_params
from crrelay.system import (
    LINKS,
    db_to_linear,
    secondary_cutoff_snr,
    two_slot_threshold,
)

FLOOR_04 = 0.4256508225014825          # split floor at rate_p = 0.4
CEILING_02 = 0.7578582832551991        # split ceiling at rate_s = 0.2
ALPHA_EPS_REF = 0.496373799727384      # exact inversion at the 0.04 column
USPRIME_REF = 0.00267753487853099


# ---- closed-form split extraction ---------------------------------------------

def test_alpha_extraction_reference(table1_derived):
    alpha = alpha_for_primary_bound(table1_derived, 0.04)
    assert alpha == pytest.approx(ALPHA_EPS_REF, rel=1e-12)


def test_alpha_extraction_round_trip(table1_derived):
    # substituting the extracted split back must recover the target exactly
    for eps in (0.035, 0.04, 0.06, 0.085):
        for snr_r in (2.0, 10.0, 40.0):
            d_r = derive(table1_derived.params.with_snr_r(snr_r))
            alpha = alpha_for_primary_bound(d_r, eps)
            assert primary_split_floor(d_r.lambda_p) < alpha <= 1.0
            assert upper_bound_d1(d_r, "primary", alpha) == pytest.approx(
                eps, abs=1e-9)


def test_alpha_extraction_slack_threshold(table1_derived):
    # when the no-relay bound already meets the target, the floor suffices
    alpha = alpha_for_primary_bound(table1_derived, 0.5)
    assert alpha == primary_split_floor(table1_derived.lambda_p)


def test_alpha_extraction_rich_relay_limit(table1_derived):
    d_r = derive(table1_derived.params.with_snr_r(1e12))
    alpha = alpha_for_primary_bound(d_r, 0.04)
    assert alpha == pytest.approx(primary_split_floor(d_r.lambda_p), abs=1e-9)


def test_alpha_extraction_infeasible(table1_derived):
    # a weak relay cannot close a tight target even at full power
    d_r = derive(table1_derived.params.with_snr_r(0.01))
    assert alpha_for_primary_bound(d_r, 0.001) is None
    assert alpha_for_primary_bound(table1_derived, 0.04, 0.0) is None
    # a relay gain that underflows in the inversion acts as none
    assert alpha_for_primary_bound(table1_derived, 0.001, 5e-324) is None


# ---- minimum relay SNR ----------------------------------------------------------

def test_min_snr_r_reference(table1_derived):
    snr_r = min_snr_r_for_epsilon(table1_derived, 1.0, 0.04)
    assert snr_r == pytest.approx(1.2313585532397513, rel=1e-10)


def test_min_snr_r_round_trip(table1_derived):
    for alpha in (0.45, 0.5, 0.7, 1.0):
        snr_r = min_snr_r_for_epsilon(table1_derived, alpha, 0.04)
        d_r = derive(table1_derived.params.with_snr_r(snr_r))
        assert upper_bound_d1(d_r, "primary", alpha) == pytest.approx(
            0.04, abs=1e-9)


def test_min_snr_r_zero_when_target_slack(table1_derived):
    assert min_snr_r_for_epsilon(table1_derived, 0.5, 0.5) == 0.0


def test_min_snr_r_rejects_floor(table1_derived):
    # at or below the split floor relay power cannot help: None, or 0 when
    # the bound holds without it; a split above 1 is rejected
    floor = primary_split_floor(table1_derived.lambda_p)
    for alpha in (floor, 0.3, 0.0, -0.2):
        assert min_snr_r_for_epsilon(table1_derived, alpha, 0.04) is None
        assert min_snr_r_for_epsilon(table1_derived, alpha, 0.5) == 0.0
    for alpha in (1.1, math.nan):
        with pytest.raises(ValueError, match="at most 1"):
            min_snr_r_for_epsilon(table1_derived, alpha, 0.04)


# ---- the monotone lemmas the allocator's walk rests on ---------------------------

def _ulp_ladder(*points):
    """The nonnegative points with their neighbours one ulp either side,
    ascending."""
    ladder = set()
    for p in points:
        ladder |= {math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf)}
    return sorted(v for v in ladder if v >= 0.0)


def _never_rises(values):
    return all(b <= a for a, b in zip(values, values[1:]))


def _never_falls(values):
    return all(b >= a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("lam", [two_slot_threshold(0.4),
                                 two_slot_threshold(0.2), 1e-6, 3.0, 1e6])
def test_scalar_bounds_are_exactly_monotone_across_branch_edges(lam):
    # splits one ulp either side of the primary split floor and the
    # secondary split ceiling, and relay gains from none through a product
    # g*t that underflows to 0 up to 1e300: exact orders, no tolerance
    floor, ceiling = primary_split_floor(lam), secondary_split_ceiling(lam)
    splits = [a for a in _ulp_ladder(0.0, floor, ceiling, 0.5, 1.0) if a <= 1.0]
    gains = _ulp_ladder(0.0, 5e-324, 1e-300, 1e-10, 1.0, 1e300)
    # the ladders reach the underflow branch next to both edges
    t_p = math.nextafter(floor, math.inf) * (1.0 + lam) - lam
    t_s = 1.0 - math.nextafter(ceiling, -math.inf) * (1.0 + lam)
    assert t_p > 0.0 and 5e-324 * t_p == 0.0
    assert t_s > 0.0 and 5e-324 * t_s == 0.0
    for v in (0.0, 1e-300, 0.3, 1.0):
        for g in gains:
            assert _never_rises([_primary_bound(v, g, a, lam) for a in splits])
            assert _never_falls([_secondary_bound(v, g, a, lam)
                                 for a in splits])
        for a in splits:
            assert _never_rises([_primary_bound(v, g, a, lam) for g in gains])
            assert _never_rises([_secondary_bound(v, g, a, lam) for g in gains])


@pytest.mark.parametrize("epsilon", [0.001, 0.04, 0.5])
def test_closed_form_split_never_rises_with_relay_snr(table1, epsilon):
    # relay SNRs one ulp either side of a silent relay, of a gain whose
    # product with the log gap underflows, of the relay SNR at which the
    # split reaches 1 (where "no inverse" begins) and of ordinary values.
    # Splits never rise with the relay SNR, and once there is no inverse
    # there is none at any smaller relay SNR
    d = derive(table1)
    reaches_one = min_snr_r_for_epsilon(d, 1.0, epsilon)
    snrs = _ulp_ladder(0.0, 5e-324, 1e-300, reaches_one or 1.0, 1.0, 1000.0,
                       1e300)
    seeds = [alpha_for_primary_bound(d, epsilon, snr_r) for snr_r in snrs]
    first = next((i for i, a in enumerate(seeds) if a is not None), len(seeds))
    assert all(a is None for a in seeds[:first])
    assert None not in seeds[first:]
    assert _never_rises(seeds[first:])
    if epsilon == 0.5:      # slack target: the split floor throughout
        assert seeds == [primary_split_floor(d.lambda_p)] * len(seeds)
    else:
        assert seeds[0] is None and snrs[first - 1] < reaches_one


def test_split_or_its_twin_meets_epsilon_whenever_the_full_split_does():
    # the allocator skips a relay SNR only when the closed-form split and its
    # nudged twin both miss epsilon while the full split meets it.  No
    # seeded draw with secondary access reaches that branch; this pins the
    # search that found none (a search is not a proof, so the allocator
    # keeps the branch).  Without access the allocator never walks, and
    # there an epsilon far below the no-relay bound can leave both splits
    # up to a few parts in 1e5 above it
    rng = random.Random(23)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    checked = 0
    for _ in range(20_000):
        try:
            d = derive(SystemParams(
                rate_p=log_uniform(1e-3, 16.0), rate_s=log_uniform(1e-3, 16.0),
                snr_p=log_uniform(1e-2, 1e8), snr_r=0.0,
                epsilon=log_uniform(1e-12, 0.98),
                link_vars=LinkTable.from_dict(
                    {l: log_uniform(1e-6, 1e6) for l in LINKS})))
        except ValueError:
            continue
        if d.snr_s == 0.0:
            continue
        eps, lam = d.params.epsilon, d.lambda_p
        snr_r = log_uniform(1e-30, 1e30)
        g_rp = snr_r * d.params.link_vars.rp
        x = _ratio_outage(d.gain.pp, d.gain.sp, lam)
        a = alpha_for_primary_bound(d, eps, snr_r)
        if a is None or _primary_bound(x, g_rp, 1.0, lam) > eps:
            continue
        checked += 1
        assert any(_primary_bound(x, g_rp, c, lam) <= eps
                   for c in (a, min(1.0, a + 1e-9))), (d.params, snr_r)
    assert checked > 3_000


# ---- allocation -------------------------------------------------------------------

def test_allocate_table1_column(table1):
    res = allocate(table1, snr_r_grid=(10.0,))
    assert res.feasible
    assert res.u_p <= table1.epsilon          # re-evaluated, not assumed
    assert res.alpha == pytest.approx(ALPHA_EPS_REF, abs=2e-9)
    assert res.u_s_total == pytest.approx(USPRIME_REF, rel=1e-6)
    assert res.snr_r == 10.0


def test_allocate_usprime_monotone_in_epsilon():
    values = [allocate(table1_params(e), snr_r_grid=(10.0,)).u_s_total
              for e in (0.04, 0.05, 0.06, 0.07, 0.08, 0.09)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_allocate_prefers_more_relay_power():
    # the secondary bound strictly improves with relay power at the seeded
    # split, so the grid maximum wins
    res = allocate(table1_params(0.04), snr_r_grid=(1.0, 10.0, 100.0))
    assert res.snr_r == 100.0


def test_allocate_infeasible_without_secondary_access(table1):
    res = allocate(table1.with_epsilon(1e-9))
    assert not res.feasible
    assert res.u_s_total == 1.0
    assert math.isnan(res.alpha)


def test_allocate_empty_grid_rejected(table1):
    with pytest.raises(ValueError):
        allocate(table1, snr_r_grid=())


def test_allocate_tie_breaks_toward_smaller_alpha(table1):
    # a weak relay pushes the closed-form seed above the secondary ceiling,
    # where the objective is flat from the seed up to the full split: the
    # tie must resolve to the smallest feasible split, the seed itself
    params = table1.with_epsilon(0.005)
    d = derive(params)
    d_r = derive(params.with_snr_r(2.0))
    seed = alpha_for_primary_bound(d, 0.005, 2.0)
    assert seed > secondary_split_ceiling(d.lambda_s)
    assert upper_bound_d1(d_r, "primary", seed) <= 0.005
    assert (upper_bound_d1(d_r, "secondary", seed)
            == upper_bound_d1(d_r, "secondary", 1.0))
    res = allocate(params, snr_r_grid=(2.0,))
    assert res.feasible
    assert res.alpha == seed


def test_allocate_tie_breaks_toward_smaller_snr_r(table1):
    # both relay SNRs put their closed-form splits in the flat zone, so the
    # two tie and the smaller relay SNR wins
    d = derive(table1.with_epsilon(0.005))
    ceiling = secondary_split_ceiling(d.lambda_s)
    for snr_r in (2.0, 2.1):
        seed = alpha_for_primary_bound(d, 0.005, snr_r)
        assert seed > ceiling
    res = allocate(table1.with_epsilon(0.005), snr_r_grid=(2.1, 2.0))
    assert res.feasible
    assert res.snr_r == 2.0


def test_allocate_returns_nudged_twin_when_inverse_overshoots(table1):
    # at the Table 1 column the exact inverse lands a rounding step above
    # epsilon: its nudged twin is the allocated split, which is why it stays
    d_r = derive(table1.with_snr_r(10.0))
    seed = alpha_for_primary_bound(d_r, table1.epsilon)
    twin = seed + 1e-9
    assert upper_bound_d1(d_r, "primary", seed) > table1.epsilon
    assert upper_bound_d1(d_r, "primary", twin) <= table1.epsilon
    res = allocate(table1, snr_r_grid=(10.0,))
    assert res.alpha == twin
    assert res.u_p == upper_bound_d1(d_r, "primary", twin)


# ---- closed form against the full grid scan ---------------------------------------

# The oracle's split grid: from the split floor up to 1 in steps of 0.005.
_ALPHA_GRID_STEP = 0.005


def _default_alpha_grid(lambda_p):
    """The oracle's split grid from the primary split floor up to 1."""
    floor = primary_split_floor(lambda_p)
    pts = [floor]
    k = 1
    while floor + k * _ALPHA_GRID_STEP < 1.0:
        pts.append(floor + k * _ALPHA_GRID_STEP)
        k += 1
    pts.append(1.0)
    return tuple(pts)


def _grid_scan_allocate(params, snr_r_grid=None):
    """Reference allocator: evaluates both bounds at every split of the
    oracle's grid, plus the closed-form split and its nudged twin, at every
    relay SNR, keeping the first strict improvement."""
    epsilon = params.epsilon
    derived = derive(params)
    infeasible = AllocationResult(alpha=math.nan, snr_r=math.nan, u_p=math.nan,
                                  u_s_total=1.0, feasible=False)
    if derived.snr_s == 0.0:
        return infeasible
    if snr_r_grid is None:
        snr_r_grid = default_snr_r_grid()
    if len(snr_r_grid) == 0:
        raise ValueError("relay-SNR grid must be nonempty")
    w = prob_relay_active(derived)
    sec_d0 = cond_sec_outage_d0(derived)
    grid = set(_default_alpha_grid(derived.lambda_p))
    best = None
    for snr_r in sorted(snr_r_grid):
        d_r = derive(derived.params.with_snr_r(snr_r))
        seed_alpha = alpha_for_primary_bound(d_r, epsilon)
        candidates = grid
        if seed_alpha is not None:
            candidates = grid | {seed_alpha, min(1.0, seed_alpha + 1e-9)}
        for alpha in sorted(candidates):
            u_p = upper_bound_d1(d_r, "primary", alpha)
            if u_p > epsilon:
                continue
            u_s = (1.0 - w) * sec_d0 + w * upper_bound_d1(d_r, "secondary", alpha)
            if best is None or u_s < best[0]:
                best = (u_s, snr_r, alpha, u_p)
    if best is None:
        return infeasible
    u_s, snr_r, alpha, u_p = best
    return AllocationResult(alpha=alpha, snr_r=snr_r, u_p=u_p,
                            u_s_total=u_s, feasible=u_p <= epsilon)


def _assert_matches_grid_scan(params, epsilon, **grids):
    # repr compares every float bit for bit (signed zeros included) and
    # treats the NaNs of an infeasible result as equal
    params = params.with_epsilon(epsilon)

    def outcome(allocator):
        try:
            return repr(allocator(params, **grids))
        except ValueError as exc:
            return f"ValueError: {exc}"
    assert outcome(allocate) == outcome(_grid_scan_allocate)


def test_allocate_matches_grid_scan_on_random_scenarios():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st
    from test_properties import PROPERTY_SETTINGS, scenarios

    @st.composite
    def pool_families(draw):
        """Scenarios as drawn, with a weak relay-to-primary link (the
        primary bound mostly out of reach), or 0.5-5 dB below the admission
        cutoff (no secondary access)."""
        params = draw(scenarios()).with_epsilon(draw(st.floats(1e-4, 0.5)))
        family = draw(st.sampled_from(("drawn", "weak_relay", "below_cutoff")))
        if family == "weak_relay":
            link_vars = replace(params.link_vars,
                                rp=draw(st.floats(1e-4, 1e-3)))
            params = replace(params, link_vars=link_vars)
        elif family == "below_cutoff":
            cutoff = secondary_cutoff_snr(params.rate_p, params.epsilon,
                                          params.link_vars.pp)
            params = replace(params, snr_p=cutoff * db_to_linear(
                -draw(st.floats(0.5, 5.0))))
        return params

    @settings(max_examples=90, **PROPERTY_SETTINGS)
    @given(params=pool_families())
    def check(params):
        _assert_matches_grid_scan(params, params.epsilon)

    check()


def test_allocate_matches_grid_scan_on_restricted_grids():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st
    from test_properties import PROPERTY_SETTINGS, relay_snrs, scenarios

    @settings(max_examples=200, **PROPERTY_SETTINGS)
    @given(params=scenarios(), epsilon=st.floats(1e-4, 0.5), data=st.data())
    def check(params, epsilon, data):
        # one to three relay SNRs, silent relays and repeats included
        pool = data.draw(st.lists(relay_snrs, min_size=1, max_size=3))
        snr_r_grid = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                        max_size=3))
        _assert_matches_grid_scan(params, epsilon, snr_r_grid=snr_r_grid)

    check()


def _seeded_scenario(rng, family):
    """A scenario as drawn (rates, SNRs and link variances over wide ranges),
    with a weak relay-to-primary link, or 0.5-5 dB below the admission
    cutoff, drawn from random.Random so that it needs no Hypothesis."""
    params = SystemParams(
        rate_p=rng.uniform(0.05, 1.5), rate_s=rng.uniform(0.05, 1.5),
        snr_p=db_to_linear(rng.uniform(-10.0, 60.0)), snr_r=1.0,
        epsilon=10.0 ** rng.uniform(-4.0, math.log10(0.5)),
        link_vars=LinkTable.from_dict(
            {name: 10.0 ** rng.uniform(-2.0, 2.0) for name in LINKS}))
    if family == "weak_relay":
        link_vars = replace(params.link_vars, rp=rng.uniform(1e-4, 1e-3))
        params = replace(params, link_vars=link_vars)
    elif family == "below_cutoff":
        cutoff = secondary_cutoff_snr(params.rate_p, params.epsilon,
                                      params.link_vars.pp)
        params = replace(params, snr_p=cutoff * db_to_linear(
            -rng.uniform(0.5, 5.0)))
    return params


def test_allocate_matches_grid_scan_on_seeded_scenarios(monkeypatch):
    # 2,400 scenarios in the drawn, weak-relay and below-cutoff families,
    # each on one to eight relay SNRs of the default grid (repeats and a
    # silent relay included): the walk picks what the full scan picks, and
    # it does stop early, at both of its rules
    rng = random.Random(17)
    pool = (0.0, *default_snr_r_grid())
    families = ("drawn",) * 8 + ("weak_relay", "below_cutoff")
    calls = _count_calls(monkeypatch, "alpha_for_primary_bound")
    feasible, stops = 0, {"secondary": 0, "feasibility": 0}
    for k in range(2400):
        params = _seeded_scenario(rng, families[k % len(families)])
        grid = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
        _assert_matches_grid_scan(params, params.epsilon, snr_r_grid=grid)
        calls["alpha_for_primary_bound"] = 0
        feasible += allocate(params, snr_r_grid=grid).feasible
        visited = calls["alpha_for_primary_bound"]
        if 0 < visited < len(grid):      # stopped at the last visited point
            last = derive(params.with_snr_r(sorted(grid)[-visited]))
            full_misses = upper_bound_d1(last, "primary", 1.0) > params.epsilon
            stops["feasibility" if full_misses else "secondary"] += 1
    assert feasible > 600
    assert min(stops.values()) > 100


@pytest.mark.parametrize("case", ["no_inverse", "no_inverse_full_split_meets"])
def test_allocate_seeded_search_branches(case):
    # with no closed-form split only the full split remains a candidate.  A
    # silent relay leaves it short of epsilon; at this corner of the Table 1
    # scenario the inversion gives up while the full split meets epsilon
    if case == "no_inverse":
        params, snr_r, expected = table1_params(0.04), 0.0, math.nan
    else:
        params = table1_params(0.12276440752625793)
        snr_r, expected = 1.0710656106257235, 1.0
    assert alpha_for_primary_bound(derive(params), params.epsilon,
                                   snr_r) is None
    res = allocate(params, snr_r_grid=(snr_r,))
    assert repr(res.alpha) == repr(expected)
    assert res.feasible == (case == "no_inverse_full_split_meets")
    _assert_matches_grid_scan(params, params.epsilon, snr_r_grid=(snr_r,))


def _count_calls(monkeypatch, *names):
    """Count the allocator's calls of the named crrelay.allocation helpers."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        helper = getattr(crrelay.allocation, name)

        def counted(*args, _helper=helper, _name=name):
            calls[_name] += 1
            return _helper(*args)
        monkeypatch.setattr(crrelay.allocation, name, counted)
    return calls


def test_default_allocate_evaluates_3_bounds(monkeypatch):
    # the deterministic record of the allocator's work: every bound it
    # evaluates while searching goes through these two helpers, and every
    # relay SNR it visits asks for one closed-form split.  The walk visits
    # the top two relay SNRs: the top one's inverse meets epsilon, and the
    # next one's objective at its inverse already exceeds the top one's
    calls = _count_calls(monkeypatch, "_primary_bound", "_secondary_bound",
                         "alpha_for_primary_bound")
    res = allocate(default_params())
    assert res.feasible and res.snr_r == default_snr_r_grid()[-1]
    assert calls == {"_primary_bound": 1, "_secondary_bound": 2,
                     "alpha_for_primary_bound": 2}


def test_allocate_stops_after_one_relay_snr_when_infeasible(monkeypatch,
                                                            table1):
    # with a weak relay-to-primary link even the full split at the top of
    # the grid misses epsilon, so no smaller relay SNR can meet it
    params = replace(table1, link_vars=replace(table1.link_vars, rp=1e-4))
    top = derive(params.with_snr_r(default_snr_r_grid()[-1]))
    assert upper_bound_d1(top, "primary", 1.0) > params.epsilon
    calls = _count_calls(monkeypatch, "alpha_for_primary_bound")
    assert not allocate(params).feasible
    assert calls == {"alpha_for_primary_bound": 1}
    _assert_matches_grid_scan(params, params.epsilon)


def test_allocate_walks_a_flat_plateau_to_the_feasibility_edge(monkeypatch,
                                                                table1):
    # the flat zone of test_allocate_tie_breaks_toward_smaller_snr_r, with
    # the relay links scaled so that the default grid's top relay SNR sits
    # at 2.1 of the unscaled scenario: every feasible relay SNR puts its
    # split above the secondary ceiling and ties, so the walk goes down to
    # the first relay SNR where even the full split misses epsilon, and the
    # smallest feasible relay SNR wins
    scale = 2.1 / 1000.0
    params = replace(table1.with_epsilon(0.005), link_vars=replace(
        table1.link_vars, rp=table1.link_vars.rp * scale,
        rs=table1.link_vars.rs * scale))
    d, grid = derive(params), default_snr_r_grid()
    ceiling = secondary_split_ceiling(d.lambda_s)
    edge = next(i for i in range(len(grid) - 1, -1, -1) if upper_bound_d1(
        derive(params.with_snr_r(grid[i])), "primary", 1.0) > 0.005)
    assert all(alpha_for_primary_bound(d, 0.005, snr_r) > ceiling
               for snr_r in grid[edge + 1:])
    calls = _count_calls(monkeypatch, "alpha_for_primary_bound")
    res = allocate(params)
    assert res.feasible and res.snr_r == grid[edge + 1]
    assert calls == {"alpha_for_primary_bound": len(grid) - edge}
    assert len(grid) - edge == 10
    _assert_matches_grid_scan(params, params.epsilon)


@pytest.mark.parametrize("grids", [
    dict(snr_r_grid=()),
    dict(snr_r_grid=(math.nan,)),
    dict(snr_r_grid=(1.0, math.inf)),
    dict(snr_r_grid=(10.0, -1.0)),
    # the whole grid is validated before the walk starts, so a bad value is
    # rejected even far below where the walk stops
    dict(snr_r_grid=(-1.0, 1000.0)),
    dict(snr_r_grid=(10.0, math.nan, 1000.0)),
    dict(snr_r_grid=(1000.0, -1e-300)),
    dict(snr_r_grid=(-math.inf, *default_snr_r_grid())),
])
def test_allocate_rejects_grids_like_grid_scan(table1, grids):
    _assert_matches_grid_scan(table1, table1.epsilon, **grids)


def test_default_alpha_grid_covers_floor_to_one(table1_derived):
    # the oracle's split grid spans every split the allocator can pick
    grid = _default_alpha_grid(table1_derived.lambda_p)
    assert grid[0] == primary_split_floor(table1_derived.lambda_p)
    assert grid[-1] == 1.0
    assert all(b > a for a, b in zip(grid, grid[1:]))


# ---- region map ---------------------------------------------------------------

def test_band_reference_endpoints():
    band = common_alpha_band(0.4, 0.2)
    assert band[0] == pytest.approx(FLOOR_04, rel=1e-14)
    assert band[1] == pytest.approx(CEILING_02, rel=1e-14)


def test_band_matches_published_rounding():
    lo, hi = common_alpha_band(0.4, 0.2)
    assert lo == pytest.approx(0.43, abs=0.01)
    assert hi == pytest.approx(0.75, abs=0.01)


def test_rate_implied_by_split():
    # a ceiling at 0.76 corresponds to a secondary rate of about 0.2
    assert rate_s_at_split_ceiling(0.76) == pytest.approx(0.2, abs=0.005)
    # and the boundary functions invert the threshold maps
    assert rate_p_at_split_floor(FLOOR_04) == pytest.approx(0.4, rel=1e-12)
    assert rate_s_at_split_ceiling(CEILING_02) == pytest.approx(0.2, rel=1e-12)


@pytest.mark.parametrize("call, match", [
    (lambda d: rate_p_at_split_floor(0.0), "strictly between 0 and 1"),
    (lambda d: rate_p_at_split_floor(1.0), "strictly between 0 and 1"),
    (lambda d: rate_s_at_split_ceiling(0.0), "strictly between 0 and 1"),
    (lambda d: rate_s_at_split_ceiling(1.0), "strictly between 0 and 1"),
    (lambda d: alpha_for_primary_bound(d, 0.0), "epsilon must lie"),
    (lambda d: alpha_for_primary_bound(d, 1.0), "epsilon must lie"),
    (lambda d: min_snr_r_for_epsilon(d, 0.5, 0.0), "epsilon must lie"),
    (lambda d: min_snr_r_for_epsilon(d, 0.5, 1.0), "epsilon must lie"),
], ids=["floor_0", "floor_1", "ceiling_0", "ceiling_1", "alpha_eps_0",
        "alpha_eps_1", "min_snr_r_eps_0", "min_snr_r_eps_1"])
def test_closed_forms_reject_values_outside_unit_interval(table1_derived, call,
                                                          match):
    with pytest.raises(ValueError, match=match):
        call(table1_derived)


def test_band_empty_iff_threshold_product_exceeds_one():
    assert common_alpha_band(1.0, 1.0) is None          # product 9 > 1
    lo, hi = common_alpha_band(0.5, 0.5)                # product exactly 1
    assert lo == pytest.approx(0.5, rel=1e-14)
    assert hi == pytest.approx(0.5, rel=1e-14)
    assert common_alpha_band(0.4, 0.2) is not None
    for rate_p in (0.1, 0.3, 0.45):
        for rate_s in (0.1, 0.3, 0.45):
            product = (two_slot_threshold(rate_p) * two_slot_threshold(rate_s))
            assert (common_alpha_band(rate_p, rate_s) is not None) == \
                (product <= 1.0)
