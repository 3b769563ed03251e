import math
from dataclasses import replace

import numpy as np
import pytest

from crrelay import (
    LinkTable,
    SystemParams,
    db_to_linear,
    derive,
    estimate,
    linear_to_db,
    secondary_cutoff_snr,
)
from crrelay.system import LINKS, one_slot_threshold, two_slot_threshold


def test_db_scale_anchors():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(20.0) == 100.0
    assert db_to_linear(10.0) == 10.0


def test_db_roundtrip():
    rng = np.random.default_rng(1)
    for x in rng.uniform(-30, 40, 50):
        assert linear_to_db(db_to_linear(x)) == pytest.approx(x, abs=1e-12)
    with pytest.raises(ValueError):
        linear_to_db(0.0)


def test_threshold_reference_values():
    assert one_slot_threshold(0.4) == pytest.approx(0.3195079107728942, rel=1e-14)
    assert two_slot_threshold(0.4) == pytest.approx(0.7411011265922482, rel=1e-14)
    assert two_slot_threshold(0.2) == pytest.approx(0.3195079107728942, rel=1e-14)


def test_two_slot_threshold_identity():
    # 2^(2R)-1 == (2^R-1)(2^R+1) for any rate
    rng = np.random.default_rng(2)
    for rate in rng.uniform(1e-3, 4.0, 200):
        theta = one_slot_threshold(rate)
        assert two_slot_threshold(rate) == pytest.approx(
            theta * (theta + 2.0), rel=1e-12)


def test_derive_reference_secondary_snr(table1):
    assert derive(table1).snr_s == pytest.approx(120.008829999969, rel=1e-12)


def test_derive_gain_table_wiring(table1):
    d = derive(table1)
    v = table1.link_vars
    assert d.gain.pp == table1.snr_p * v.pp
    assert d.gain.ps == table1.snr_p * v.ps
    assert d.gain.pr == table1.snr_p * v.pr
    assert d.gain.rp == table1.snr_r * v.rp
    assert d.gain.rs == table1.snr_r * v.rs
    assert d.gain.sp == pytest.approx(d.snr_s * v.sp, rel=1e-15)
    assert d.gain.ss == pytest.approx(d.snr_s * v.ss, rel=1e-15)
    assert d.gain.sr == pytest.approx(d.snr_s * v.sr, rel=1e-15)


def test_with_snr_r_rescales_only_relay_gains(table1):
    base, d_r = derive(table1), derive(table1.with_snr_r(2.5))
    assert d_r.gain.rp == 2.5 * table1.link_vars.rp
    assert d_r.gain.rs == 2.5 * table1.link_vars.rs
    assert replace(d_r.gain, rp=base.gain.rp, rs=base.gain.rs) == base.gain
    assert d_r.snr_s == base.snr_s
    assert d_r.params.snr_r == 2.5
    with pytest.raises(ValueError):
        table1.with_snr_r(-1.0)


def test_secondary_denied_at_tight_threshold(table1):
    # epsilon -> 0 forces the admission margin negative: no secondary power
    d = derive(table1.with_epsilon(1e-12))
    assert d.snr_s == 0.0
    assert d.gain.ss == 0.0


def test_secondary_snr_monotone_in_epsilon(table1):
    values = [derive(table1.with_epsilon(e)).snr_s
              for e in np.linspace(0.005, 0.2, 40)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_cutoff_reference_value():
    cutoff = secondary_cutoff_snr(0.4, 0.03, 1.0)
    assert cutoff == pytest.approx(10.48969875310436, rel=1e-12)
    assert linear_to_db(cutoff) == pytest.approx(10.20763016149415, abs=1e-9)


def test_cutoff_vanishes_as_epsilon_opens():
    assert secondary_cutoff_snr(0.4, 1.0 - 1e-12, 1.0) < 0.02


def test_cutoff_is_the_admission_root(table1):
    params = table1.with_epsilon(0.03)
    cutoff = secondary_cutoff_snr(0.4, 0.03, 1.0)
    from dataclasses import replace
    below = derive(replace(params, snr_p=cutoff * (1.0 - 1e-9)))
    above = derive(replace(params, snr_p=cutoff * (1.0 + 1e-9)))
    assert below.snr_s == 0.0
    assert above.snr_s > 0.0


def test_cutoff_validation():
    with pytest.raises(ValueError):
        secondary_cutoff_snr(0.0, 0.03, 1.0)
    with pytest.raises(ValueError):
        secondary_cutoff_snr(0.4, 1.0, 1.0)


@pytest.mark.parametrize("field,value", [
    ("rate_p", 0.0), ("rate_s", -1.0), ("snr_p", 0.0), ("snr_r", -0.1),
    ("epsilon", 0.0), ("epsilon", 1.0),
    ("rate_p", math.inf), ("rate_s", math.inf), ("snr_p", math.inf),
    ("snr_r", math.inf), ("rate_p", 512.0), ("rate_s", 600.0),
    ("rate_p", 2000.0), ("rate_p", 1e-20), ("rate_s", 1e-20),
    ("rate_p", 1e-16), ("rate_s", 1e-16),
])
def test_invalid_params_rejected(field, value):
    good = dict(rate_p=0.4, rate_s=0.2, snr_p=100.0, snr_r=10.0, epsilon=0.04,
                link_vars=LinkTable.uniform(1.0))
    good[field] = value
    with pytest.raises(ValueError):
        SystemParams(**good)


def test_db_scenario_edges():
    # a silent relay (-inf dB) is a valid scenario; a dB value whose linear
    # power overflows is rejected like any other non-finite value
    silent = SystemParams.from_db(0.4, 0.2, 20.0, -math.inf, 0.04,
                                  LinkTable.uniform(1.0))
    assert silent.snr_r == 0.0
    with pytest.raises(ValueError, match="finite"):
        SystemParams.from_db(0.4, 0.2, 4000.0, 10.0, 0.04,
                             LinkTable.uniform(1.0))


def test_largest_rates_keep_finite_thresholds():
    # 2^(2R) overflows a double from R = 512 on; just below, every threshold
    # is finite, so derive() never raises OverflowError on a valid scenario
    params = SystemParams(rate_p=511.9, rate_s=511.9, snr_p=100.0, snr_r=10.0,
                          epsilon=0.04, link_vars=LinkTable.uniform(1.0))
    d = derive(params)
    assert all(math.isfinite(x) for x in
               (d.theta_p, d.theta_s, d.lambda_p, d.lambda_s))
    with pytest.raises(ValueError, match="rate_s"):
        replace(params, rate_s=512.0)


def test_link_table_requires_all_links():
    with pytest.raises(ValueError):
        LinkTable.from_dict({l: 1.0 for l in LINKS[:-1]})
    with pytest.raises(ValueError):
        LinkTable.from_dict({**{l: 1.0 for l in LINKS}, "xx": 1.0})
    with pytest.raises(ValueError):
        SystemParams(rate_p=0.4, rate_s=0.2, snr_p=100.0, snr_r=10.0,
                     epsilon=0.04, link_vars=LinkTable.uniform(1.0, sp=0.0))


def test_admitted_snr_pins_single_slot_primary_outage(table1):
    # the admission rule is built to put the baseline primary outage at
    # exactly epsilon; check it empirically
    est = estimate(table1, 0.5, 200_000, seed=11, scheme="noncooperative")
    assert abs(est.pri.p_hat - table1.epsilon) <= 3.0 * est.pri.std_err
