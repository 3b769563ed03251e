import math

import numpy as np
import pytest

from crrelay import (
    allocate,
    alpha_for_primary_bound,
    common_alpha_band,
    derive,
    min_snr_r_for_epsilon,
    table1_params,
    upper_bound_d1,
    with_relay_snr,
)
from crrelay.allocation import (
    default_alpha_grid,
    rate_p_at_split_floor,
    rate_s_at_split_ceiling,
)
from crrelay.analytic import primary_split_floor, secondary_split_ceiling
from crrelay.system import two_slot_threshold

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
            d_r = with_relay_snr(table1_derived, snr_r)
            alpha = alpha_for_primary_bound(d_r, eps)
            assert primary_split_floor(d_r.lambda_p) < alpha <= 1.0
            assert upper_bound_d1(d_r, "primary", alpha) == pytest.approx(
                eps, abs=1e-9)


def test_alpha_extraction_slack_threshold(table1_derived):
    # when the no-relay bound already meets the target, the floor suffices
    alpha = alpha_for_primary_bound(table1_derived, 0.5)
    assert alpha == primary_split_floor(table1_derived.lambda_p)


def test_alpha_extraction_rich_relay_limit(table1_derived):
    d_r = with_relay_snr(table1_derived, 1e12)
    alpha = alpha_for_primary_bound(d_r, 0.04)
    assert alpha == pytest.approx(primary_split_floor(d_r.lambda_p), abs=1e-9)


def test_alpha_extraction_infeasible(table1_derived):
    # a weak relay cannot close a tight target even at full power
    d_r = with_relay_snr(table1_derived, 0.01)
    assert alpha_for_primary_bound(d_r, 0.001) is None
    assert alpha_for_primary_bound(with_relay_snr(table1_derived, 0.0),
                                   0.04) is None


# ---- minimum relay SNR ----------------------------------------------------------

def test_min_snr_r_reference(table1_derived):
    snr_r = min_snr_r_for_epsilon(table1_derived, 1.0, 0.04)
    assert snr_r == pytest.approx(1.2313585532397513, rel=1e-10)


def test_min_snr_r_round_trip(table1_derived):
    for alpha in (0.45, 0.5, 0.7, 1.0):
        snr_r = min_snr_r_for_epsilon(table1_derived, alpha, 0.04)
        d_r = with_relay_snr(table1_derived, snr_r)
        assert upper_bound_d1(d_r, "primary", alpha) == pytest.approx(
            0.04, abs=1e-9)


def test_min_snr_r_zero_when_target_slack(table1_derived):
    assert min_snr_r_for_epsilon(table1_derived, 0.5, 0.5) == 0.0


def test_min_snr_r_rejects_floor(table1_derived):
    floor = primary_split_floor(table1_derived.lambda_p)
    with pytest.raises(ValueError):
        min_snr_r_for_epsilon(table1_derived, floor, 0.04)
    with pytest.raises(ValueError):
        min_snr_r_for_epsilon(table1_derived, 1.1, 0.04)


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
    res = allocate(table1, epsilon=1e-9)
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
    seed = alpha_for_primary_bound(with_relay_snr(d, 2.0), 0.005)
    assert seed > ceiling
    res = allocate(table1, epsilon=0.005, snr_r_grid=(2.0,),
                   alpha_grid=(0.95, 0.85))
    assert res.feasible
    assert res.alpha == 0.85


def test_allocate_tie_breaks_toward_smaller_snr_r(table1):
    # both relay SNRs put every candidate in the flat zone, so the whole grid
    # ties and the smaller relay SNR wins
    d = derive(table1.with_epsilon(0.005))
    ceiling = secondary_split_ceiling(d.lambda_s)
    for snr_r in (2.0, 2.1):
        seed = alpha_for_primary_bound(with_relay_snr(d, snr_r), 0.005)
        assert seed > ceiling
    res = allocate(table1, epsilon=0.005, snr_r_grid=(2.1, 2.0),
                   alpha_grid=(0.9,))
    assert res.feasible
    assert res.snr_r == 2.0


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


# ---- derived-table relay repoint -------------------------------------------------

def test_with_relay_snr_rescales_only_relay_gains(table1_derived):
    d_r = with_relay_snr(table1_derived, 2.5)
    assert d_r.gain.rp == 2.5 * table1_derived.params.link_vars.rp
    assert d_r.gain.rs == 2.5 * table1_derived.params.link_vars.rs
    assert d_r.gain.pp == table1_derived.gain.pp
    assert d_r.gain.sr == table1_derived.gain.sr
    assert d_r.params.snr_r == 2.5
    with pytest.raises(ValueError):
        with_relay_snr(table1_derived, -1.0)
