"""Relay power allocation: pick the split alpha and relay SNR that minimize
the secondary outage bound subject to the primary outage staying within the
admission threshold.

Exactly in floating point, each a chain of monotone operations: the primary
bound never rises with the split or the relay SNR, the secondary bound never
falls with the split nor rises with the relay SNR, and the closed-form split
never rises with the relay SNR.  So each relay SNR's best is its smallest
feasible split, which the primary bound gives in closed form, and a walk down
the relay-SNR grid stops once no smaller relay SNR can do better.  Only the
relay gains depend on the relay SNR; all else is computed once per scenario.
"""

import functools
import math
from dataclasses import dataclass

from .analytic import (
    cond_sec_outage_d0,
    primary_split_floor,
    prob_relay_active,
    secondary_split_ceiling,
    _primary_bound,
    _ratio_outage,
    _secondary_bound,
    upper_bound_d1,
)
from .system import DerivedParams, SystemParams, db_to_linear, derive, two_slot_threshold


@dataclass(frozen=True)
class AllocationResult:
    """Chosen operating point.  On infeasible scenarios alpha/snr_r/u_p are
    NaN and the secondary outage is reported as 1."""

    alpha: float
    snr_r: float
    u_p: float
    u_s_total: float
    feasible: bool


def rate_p_at_split_floor(alpha: float) -> float:
    """Primary rate whose split floor sits exactly at the given alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    return 0.5 * math.log2(1.0 / (1.0 - alpha))


def rate_s_at_split_ceiling(alpha: float) -> float:
    """Secondary rate whose split ceiling sits exactly at the given alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    return 0.5 * math.log2(1.0 / alpha)


def common_alpha_band(rate_p: float, rate_s: float):
    """Split interval on which both bounds remain improvable, or None.

    Nonempty exactly when the product of the two-sub-slot thresholds is at
    most 1, which is what confines good operating points to rates below about
    half a bit/s/Hz each.
    """
    lo = primary_split_floor(two_slot_threshold(rate_p))
    hi = secondary_split_ceiling(two_slot_threshold(rate_s))
    if lo > hi:
        return None
    return (lo, hi)


def alpha_for_primary_bound(derived: DerivedParams, epsilon: float,
                            snr_r: float | None = None):
    """Smallest split meeting the primary bound at the given relay SNR.

    Inverts the split-dependent branch of the primary bound exactly.  If the
    bound already holds with no relay help (epsilon >= direct-copy bound X),
    returns the split floor; if even full relay power cannot reach epsilon,
    returns None.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if snr_r is None:
        snr_r = derived.params.snr_r
    g_rp = snr_r * derived.params.link_vars.rp
    lam = derived.lambda_p
    x = _ratio_outage(derived.gain.pp, derived.gain.sp, lam)
    floor = primary_split_floor(lam)
    if epsilon >= x:
        return floor
    log_gap = -math.log1p(-epsilon / x)
    if g_rp * log_gap == 0.0:      # no relay gain, or one that underflows
        return None
    alpha = (lam + lam / (g_rp * log_gap)) / (1.0 + lam)
    if alpha > 1.0:
        return None
    return alpha


def min_snr_r_for_epsilon(derived: DerivedParams, alpha: float,
                          epsilon: float) -> float | None:
    """Smallest relay SNR meeting the primary bound at the given split.

    Inverts the split-dependent branch of the primary bound for the relay
    gain.  Returns 0 when the bound holds without relay help; returns None
    when it does not and the split is at or below the split floor, where
    relay power cannot help.  Splits above 1 (or NaN) are rejected.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if not alpha <= 1.0:
        raise ValueError("alpha must be at most 1")
    lam = derived.lambda_p
    x = _ratio_outage(derived.gain.pp, derived.gain.sp, lam)
    if epsilon >= x:
        return 0.0
    t = alpha * (1.0 + lam) - lam
    # t also rounds to 0 or below just above the floor
    if alpha <= primary_split_floor(lam) or t <= 0.0:
        return None
    log_gap = -math.log1p(-epsilon / x)
    g_rp = lam / (t * log_gap)
    return g_rp / derived.params.link_vars.rp


# The allocator's default relay-SNR grid: -10 to 30 dB in 0.25 dB steps.
_SNR_R_GRID_DB = (-10.0, 30.0, 0.25)


@functools.cache
def default_snr_r_grid() -> tuple:
    """Logarithmic relay-SNR grid (linear values), computed once."""
    lo_db, hi_db, step_db = _SNR_R_GRID_DB
    n = int(round((hi_db - lo_db) / step_db))
    return tuple(db_to_linear(lo_db + k * step_db) for k in range(n + 1))


def allocate(params: SystemParams, snr_r_grid=None) -> AllocationResult:
    """Minimize the total secondary outage bound subject to the primary bound.

    Only the relay gains change with the relay SNR.  At each one the split is
    the exact closed-form inverse of the primary bound, or its nudged twin
    when rounding leaves the inverse an ulp above epsilon; with no inverse,
    only the full split can still meet epsilon.  The first of these that
    meets the primary bound is that relay SNR's best.  The validated grid is
    walked from its largest relay SNR down, ties going to the smaller one; it
    stops once the objective at the first candidate (a floor for every
    smaller relay SNR) exceeds the best, or the full split misses epsilon.
    Feasibility of the winner is re-checked, never assumed.
    """
    epsilon = params.epsilon
    derived = derive(params)
    if derived.snr_s == 0.0:
        return AllocationResult(alpha=math.nan, snr_r=math.nan, u_p=math.nan,
                                u_s_total=1.0, feasible=False)
    if snr_r_grid is None:
        snr_r_grid = default_snr_r_grid()
    if len(snr_r_grid) == 0:
        raise ValueError("relay-SNR grid must be nonempty")

    w = prob_relay_active(derived)     # independent of the relay SNR
    sec_d0 = cond_sec_outage_d0(derived)

    g, v = derived.gain, params.link_vars
    lam_p, lam_s = derived.lambda_p, derived.lambda_s
    x = _ratio_outage(g.pp, g.sp, lam_p)     # the bounds without relay help
    y = _ratio_outage(g.ss, g.ps, lam_s)
    snr_r_grid = sorted(snr_r_grid)
    for snr_r in snr_r_grid:
        if not 0.0 <= snr_r < math.inf:
            params.with_snr_r(snr_r)     # raises SystemParams' own message
    best = None   # (u_s_total, snr_r, alpha)
    for snr_r in reversed(snr_r_grid):
        g_rp, g_rs = snr_r * v.rp, snr_r * v.rs
        seed = alpha_for_primary_bound(derived, epsilon, snr_r)
        candidates = (1.0,) if seed is None else (seed, min(1.0, seed + 1e-9))
        u_s = (1.0 - w) * sec_d0 + w * _secondary_bound(y, g_rs, candidates[0],
                                                         lam_s)
        if best is not None and u_s > best[0]:
            break     # no smaller relay SNR reaches the best so far
        alpha = next((a for a in candidates
                      if _primary_bound(x, g_rp, a, lam_p) <= epsilon), None)
        if alpha is None:
            if _primary_bound(x, g_rp, 1.0, lam_p) > epsilon:
                break     # nor does any smaller relay SNR meet epsilon
            continue
        if alpha != candidates[0]:
            u_s = (1.0 - w) * sec_d0 + w * _secondary_bound(y, g_rs, alpha, lam_s)
        if best is None or u_s <= best[0]:
            best = (u_s, snr_r, alpha)

    if best is None:
        return AllocationResult(alpha=math.nan, snr_r=math.nan, u_p=math.nan,
                                u_s_total=1.0, feasible=False)
    u_s, snr_r, alpha = best
    u_p = upper_bound_d1(derive(params.with_snr_r(snr_r)), "primary", alpha)
    return AllocationResult(alpha=alpha, snr_r=snr_r, u_p=u_p,
                            u_s_total=u_s, feasible=u_p <= epsilon)
