import math
from dataclasses import replace

import numpy as np
import pytest

from crrelay import (
    AllocationResult,
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
    default_alpha_grid,
    default_snr_r_grid,
    rate_p_at_split_floor,
    rate_s_at_split_ceiling,
)
from crrelay.analytic import primary_split_floor, secondary_split_ceiling
from crrelay.harness import default_params
from crrelay.system import db_to_linear, secondary_cutoff_snr, two_slot_threshold

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


def test_allocate_restricted_grid_below_floor_is_infeasible(table1):
    # confining the split below the floor leaves the primary bound stuck at
    # its no-relay value above epsilon
    res = allocate(table1, snr_r_grid=(10.0,),
                   alpha_grid=tuple(np.linspace(0.05, 0.40, 8)))
    assert not res.feasible
    assert res.u_s_total == 1.0


def test_allocate_empty_grid_rejected(table1):
    with pytest.raises(ValueError):
        allocate(table1, snr_r_grid=())


def test_allocate_tie_breaks_toward_smaller_alpha(table1):
    # a weak relay pushes the closed-form seed above the secondary ceiling,
    # where the objective is flat across the whole grid: the tie must
    # resolve to the smallest feasible split
    d = derive(table1.with_epsilon(0.005))
    ceiling = secondary_split_ceiling(d.lambda_s)
    seed = alpha_for_primary_bound(d, 0.005, 2.0)
    assert seed > ceiling
    res = allocate(table1.with_epsilon(0.005), snr_r_grid=(2.0,),
                   alpha_grid=(0.95, 0.85))
    assert res.feasible
    assert res.alpha == 0.85


def test_allocate_tie_breaks_toward_smaller_snr_r(table1):
    # both relay SNRs put every candidate in the flat zone, so the whole grid
    # ties and the smaller relay SNR wins
    d = derive(table1.with_epsilon(0.005))
    ceiling = secondary_split_ceiling(d.lambda_s)
    for snr_r in (2.0, 2.1):
        seed = alpha_for_primary_bound(d, 0.005, snr_r)
        assert seed > ceiling
    res = allocate(table1.with_epsilon(0.005), snr_r_grid=(2.1, 2.0),
                   alpha_grid=(0.9,))
    assert res.feasible
    assert res.snr_r == 2.0


def test_allocate_returns_nudged_twin_when_inverse_overshoots(table1):
    # at the Table 1 column the exact inverse lands a rounding step above
    # epsilon, and no default grid point is closer to it than its nudged
    # twin: the twin is the allocated split, which is why it stays
    d_r = derive(table1.with_snr_r(10.0))
    seed = alpha_for_primary_bound(d_r, table1.epsilon)
    twin = seed + 1e-9
    assert upper_bound_d1(d_r, "primary", seed) > table1.epsilon
    assert upper_bound_d1(d_r, "primary", twin) <= table1.epsilon
    res = allocate(table1, snr_r_grid=(10.0,))
    assert res.alpha == twin
    assert res.u_p == upper_bound_d1(d_r, "primary", twin)
    # a grid point between the inverse and its twin is feasible and smaller
    between = math.nextafter(twin, 0.0)
    res = allocate(table1, snr_r_grid=(10.0,), alpha_grid=(between, 1.0))
    assert res.alpha == between


# ---- bisection against the full grid scan -----------------------------------------

def _grid_scan_allocate(params, snr_r_grid=None, alpha_grid=None):
    """Reference allocator: evaluates both bounds at every candidate split of
    every relay SNR, keeping the first strict improvement."""
    epsilon = params.epsilon
    derived = derive(params)
    infeasible = AllocationResult(alpha=math.nan, snr_r=math.nan, u_p=math.nan,
                                  u_s_total=1.0, feasible=False)
    if derived.snr_s == 0.0:
        return infeasible
    if snr_r_grid is None:
        snr_r_grid = default_snr_r_grid()
    if alpha_grid is None:
        alpha_grid = default_alpha_grid(derived.lambda_p)
    if len(snr_r_grid) == 0 or len(alpha_grid) == 0:
        raise ValueError("grids must be nonempty")
    w = prob_relay_active(derived)
    sec_d0 = cond_sec_outage_d0(derived)
    grid = sorted(a for a in alpha_grid if 0.0 <= a <= 1.0)
    if not grid:
        raise ValueError("alpha grid has no points in [0, 1]")
    lo, hi = grid[0], grid[-1]
    best = None
    for snr_r in sorted(snr_r_grid):
        d_r = derive(derived.params.with_snr_r(snr_r))
        seed_alpha = alpha_for_primary_bound(d_r, epsilon)
        candidates = list(grid)
        if seed_alpha is not None:
            extra = {seed_alpha, min(1.0, seed_alpha + 1e-9)}
            candidates = sorted(set(grid) | {a for a in extra if lo <= a <= hi})
        for alpha in candidates:
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
    from hypothesis import assume, given, settings, strategies as st
    from test_properties import PROPERTY_SETTINGS, relay_snrs, scenarios

    anywhere = st.one_of(st.floats(-0.5, 1.5),
                         st.sampled_from((math.nan, -0.0, 0.0, 1.0)))

    def split_grids(derived, epsilon, snr_r):
        """Single points, points outside [0, 1], grids below the split
        floor, grids whose hull excludes the exact inverse, and grids of the
        floats around the inverse and its nudged twin."""
        floor = primary_split_floor(derived.lambda_p)
        families = [st.lists(anywhere, min_size=1, max_size=8),
                    st.lists(st.floats(0.0, floor, exclude_max=True),
                             min_size=1, max_size=5)]
        seed = alpha_for_primary_bound(derived, epsilon, snr_r)
        if seed is not None:
            twin = min(1.0, seed + 1e-9)
            near = st.sampled_from((
                seed, twin, math.nextafter(seed, 0.0),
                math.nextafter(seed, 1.0), math.nextafter(twin, 0.0),
                min(1.0, math.nextafter(twin, 1.0))))
            families += [
                st.lists(st.floats(0.0, seed, exclude_max=True),
                         min_size=1, max_size=5),
                st.lists(near, min_size=1, max_size=4)
                .map(lambda grid: grid + [1.0]),
            ]
            if twin < 1.0:
                families.append(st.lists(
                    st.floats(twin, 1.0, exclude_min=True),
                    min_size=1, max_size=5))
        return st.one_of(families)

    @settings(max_examples=200, **PROPERTY_SETTINGS)
    @given(params=scenarios(), epsilon=st.floats(1e-4, 0.5), data=st.data())
    def check(params, epsilon, data):
        derived = derive(params.with_epsilon(epsilon))
        # without secondary access allocate returns before reading a grid
        assume(derived.snr_s > 0.0)
        snr_r_grid = data.draw(st.lists(relay_snrs, min_size=1, max_size=3))
        anchor = data.draw(st.sampled_from(snr_r_grid))
        alpha_grid = data.draw(split_grids(derived, epsilon, anchor))
        alpha_grid += data.draw(st.lists(st.sampled_from(alpha_grid),
                                         max_size=3))
        _assert_matches_grid_scan(params, epsilon, snr_r_grid=snr_r_grid,
                                  alpha_grid=alpha_grid)

    check()


@pytest.mark.parametrize("case", ["seed_is_first", "below_seed_meets",
                                  "seed_fails", "grid_below_seed",
                                  "no_inverse"])
def test_allocate_seeded_search_branches(table1, case):
    # each case takes one path from the closed-form split to the grid's
    # first feasible point.  On Table 1 the inverse and the float above it
    # miss epsilon at relay SNR 10 (its twin meets it); at relay SNR 1.5 the
    # two floats below the inverse still meet epsilon
    d = derive(table1)
    snr_r = {"below_seed_meets": 1.5, "no_inverse": 0.0}.get(case, 10.0)
    seed = alpha_for_primary_bound(d, table1.epsilon, snr_r)
    if case == "seed_is_first":         # the point above meets, below not
        grid, expected = (seed - 0.01, seed + 1e-9, 1.0), seed + 1e-9
    elif case == "below_seed_meets":    # the search continues downward
        below = math.nextafter(seed, 0.0)
        below2 = math.nextafter(below, 0.0)
        assert upper_bound_d1(derive(d.params.with_snr_r(snr_r)), "primary",
                              below2) <= table1.epsilon
        grid, expected = (below2, below, seed, 1.0), below2
    elif case == "seed_fails":          # the search continues upward
        above = math.nextafter(seed, 1.0)
        assert upper_bound_d1(derive(d.params.with_snr_r(snr_r)), "primary",
                              above) > table1.epsilon
        grid, expected = (seed, above, seed + 1e-9, 1.0), seed + 1e-9
    elif case == "grid_below_seed":     # nothing at or above the inverse
        grid, expected = (0.1, 0.2), math.nan
    else:                               # a silent relay: taken as an
        assert seed is None             # inverse above the grid
        grid, expected = default_alpha_grid(d.lambda_p), math.nan
    res = allocate(table1, snr_r_grid=(snr_r,), alpha_grid=grid)
    assert repr(res.alpha) == repr(expected)
    _assert_matches_grid_scan(table1, table1.epsilon, snr_r_grid=(snr_r,),
                              alpha_grid=grid)


def test_default_allocate_evaluates_555_bounds(monkeypatch):
    # the deterministic record of the allocator's work: every bound it
    # evaluates while searching goes through these two helpers
    calls = []
    for name in ("_primary_bound", "_secondary_bound"):
        bound = getattr(crrelay.allocation, name)

        def counted(*args, _bound=bound):
            calls.append(args)
            return _bound(*args)
        monkeypatch.setattr(crrelay.allocation, name, counted)
    assert allocate(default_params()).feasible
    assert len(calls) == 555


@pytest.mark.parametrize("grids", [
    dict(snr_r_grid=()),
    dict(alpha_grid=()),
    dict(alpha_grid=(-0.5, math.nan, 1.5)),
    dict(snr_r_grid=(10.0, -1.0)),
])
def test_allocate_rejects_grids_like_grid_scan(table1, grids):
    _assert_matches_grid_scan(table1, table1.epsilon, **grids)


def test_default_alpha_grid_covers_floor_to_one(table1_derived):
    grid = default_alpha_grid(table1_derived.lambda_p)
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
