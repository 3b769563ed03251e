import math
from decimal import Decimal, localcontext

import pytest

from crrelay import LinkTable, SystemParams, derive, table1_params
from crrelay.harness import ORACLES, _closed_forms
from crrelay.montecarlo import _DOUBLES_PER_TRIAL, _philox, _unit_block
from crrelay.system import (
    LINKS,
    DerivedParams,
    one_slot_threshold,
    two_slot_threshold,
)


def link_table(value=1.0, **overrides) -> LinkTable:
    """Every link at one value, save the named overrides."""
    table = dict.fromkeys(LINKS, value) | overrides
    return LinkTable(**{name: float(v) for name, v in table.items()})


def synth_derived(rate_p=0.4, rate_s=0.2, snr_p=100.0, snr_s=100.0,
                  snr_r=10.0, **gains) -> DerivedParams:
    """Derived-parameter table with hand-picked mean gains, for formula-level
    tests that do not need the admission chain."""
    params = SystemParams(rate_p=rate_p, rate_s=rate_s, snr_p=snr_p,
                          snr_r=snr_r, epsilon=0.05,
                          link_vars=link_table())
    return DerivedParams(
        theta_p=one_slot_threshold(rate_p),
        theta_s=one_slot_threshold(rate_s),
        lambda_p=two_slot_threshold(rate_p),
        lambda_s=two_slot_threshold(rate_s),
        snr_s=snr_s,
        gain=link_table(**gains),
        params=params,
    )


def exp_over_x_reference(c, a, b) -> float:
    """Integral of exp(c*x)/x over [a, b], 0 < a < b, which is
    Ei(c*b) - Ei(c*a), summed from the series of Ei in decimal arithmetic:
    ln(b/a) + sum over k >= 1 of c^k (b^k - a^k) / (k * k!)."""
    with localcontext() as ctx:
        # terms reach e^(|c|*b) while the sum can be e^(-|c|*b) small
        ctx.prec = 30 + int(2.0 * abs(c) * b / math.log(10.0))
        ca, cb = Decimal(c) * Decimal(a), Decimal(c) * Decimal(b)
        total = (Decimal(b) / Decimal(a)).ln()
        pa = pb = Decimal(1)
        k = 0
        while True:
            k += 1
            pa, pb = pa * ca / k, pb * cb / k
            term = (pb - pa) / k
            total += term
            if k > abs(cb) and abs(term) <= abs(total) * Decimal("1e-25"):
                return float(total)


def ratio_outage_reference(g, g_c, t) -> float:
    """1 - g*exp(-t/g)/(g + t*g_c), the ratio outage of
    analytic._ratio_outage, in decimal arithmetic at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        g, g_c, t = Decimal(g), Decimal(g_c), Decimal(t)
        return float(1 - g * (-t / g).exp() / (g + t * g_c))


def exact_oracles(derived, at0, at1, noncoop):
    """(name, estimate, closed form) of the exact and split ORACLES rows
    whose event occurred: a split row at alpha 0 and 1, an exact one once."""
    for row in ORACLES:
        for alpha in {"exact": (1.0,), "split": (0.0, 1.0)}.get(row.kind, ()):
            est = getattr(noncoop if row.scheme == "noncooperative"
                          else at1 if alpha else at0, row.field)
            if est is not None:
                yield (f"{row.scheme} {row.field} a{alpha:g}", est, getattr(
                    _closed_forms(derived, alpha, row.scheme), row.field))


def symmetric_relay_params():
    """Scenario whose admitted secondary SNR equals the primary's, so both
    transmitter-to-relay mean gains are 10."""
    rate = 0.2
    snr_p, eps = 10.0, 0.1
    theta = one_slot_threshold(rate)
    rho = math.exp(-theta / snr_p) / (1.0 - eps) - 1.0
    var_sp = snr_p * rho / (theta * 10.0)   # puts the admitted SNR at 10
    params = SystemParams(rate_p=rate, rate_s=rate, snr_p=snr_p, snr_r=10.0,
                          epsilon=eps,
                          link_vars=link_table(sp=var_sp))
    assert derive(params).snr_s == pytest.approx(10.0, rel=1e-12)
    return params


def _uniform_block(seed: int, start: int, n: int):
    """Uniform doubles for trials [start, start+n), shape (n, 8): numpy's own
    uniforms from the trial's stream position, the oracle for _unit_block."""
    import numpy as np

    u = np.random.Generator(_philox(seed, start)).random(n * _DOUBLES_PER_TRIAL)
    return u.reshape(n, _DOUBLES_PER_TRIAL)


def link_draws(params, seed, start, n):
    """Channel draws per link: each link's variance times its unit row."""
    import numpy as np

    e = _unit_block(_philox(seed, start), n,
                    np.empty(_DOUBLES_PER_TRIAL * n))
    return {name: getattr(params.link_vars, name) * e[k]
            for k, name in enumerate(LINKS)}


def replay_slot(draw, derived, alpha, scheme="proposed"):
    """One slot of a scheme replayed in plain Python from the printed events:
    (relay_active, pri_outage, sec_outage).

    draw maps each link to its squared magnitude.  In the proposed scheme the
    relay decodes the stronger signal first, treating the other as noise,
    then the weaker one cleanly, and activates only if both stages clear
    their thresholds.  The relay-assisted baseline activates when the relay
    decodes the secondary signal through the primary's; the non-cooperative
    scheme never uses the relay and compares one-slot SINRs with theta.
    """
    p = derived.params
    lp, ls = derived.lambda_p, derived.lambda_s
    if scheme == "noncooperative":
        v = p.snr_p * draw["pp"] / (derived.snr_s * draw["sp"] + 1.0)
        u = derived.snr_s * draw["ss"] / (p.snr_p * draw["ps"] + 1.0)
        return False, v < derived.theta_p, u < derived.theta_s
    x = p.snr_p * draw["pr"]
    y = derived.snr_s * draw["sr"]
    if scheme == "relay_assisted_secondary":
        active = y >= ls * (1.0 + x)
    else:
        active = ((x > y and x >= lp * (1.0 + y) and y >= ls)
                  or (y > x and y >= ls * (1.0 + x) and x >= lp))
    v = p.snr_p * draw["pp"] / (derived.snr_s * draw["sp"] + 1.0)
    u = derived.snr_s * draw["ss"] / (p.snr_p * draw["ps"] + 1.0)
    if not active:
        return False, 2.0 * v < lp, 2.0 * u < ls
    rp, rs = draw["rp"], draw["rs"]
    if scheme == "relay_assisted_secondary":
        pri_mrc = v + p.snr_p * draw["pp"] / (p.snr_r * rp + 1.0)
        sec_mrc = ((derived.snr_s * draw["ss"] + p.snr_r * rs)
                   / (p.snr_p * draw["ps"] + 1.0))
        return True, pri_mrc < lp, sec_mrc < ls
    w_p = alpha * p.snr_r * rp / ((1.0 - alpha) * p.snr_r * rp + 1.0)
    w_s = (1.0 - alpha) * p.snr_r * rs / (alpha * p.snr_r * rs + 1.0)
    return True, v + w_p < lp, u + w_s < ls


def replay_counts(params, alpha, seed, n, scheme="proposed"):
    """(d1, pri, sec) event counts of replay_slot over trials [0, n)."""
    derived = derive(params)
    g = link_draws(params, seed, 0, n)
    d1 = pri = sec = 0
    for i in range(n):
        draw = {name: float(g[name][i]) for name in LINKS}
        active, pri_out, sec_out = replay_slot(draw, derived, alpha, scheme)
        d1 += active
        pri += pri_out
        sec += sec_out
    return d1, pri, sec


@pytest.fixture
def table1():
    return table1_params(0.04)


@pytest.fixture
def table1_derived(table1):
    return derive(table1)
