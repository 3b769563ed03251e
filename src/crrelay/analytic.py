"""Closed-form outage probabilities and upper bounds for the relay-aided
two-sub-slot protocol.

Conventions: gain_ab is the mean SNR of link a->b (transmit SNR times channel
variance), lambda_* the two-sub-slot SINR thresholds, theta_* the one-slot
thresholds.  Conditional quantities are taken given the relay activation
indicator D.  Exact forms exist for D=0 and for the relay spending all of its
power on one user (power split alpha at 0 or 1); interior splits only admit
upper bounds.

The activation probability P(D=1) has two forms.  prob_relay_active is the
paper's two-branch form; it treats the decode order as independent of the
threshold events, so it only approximates the per-draw decision, yet it stays
the weight of every total, of the allocator and of the reproduction targets.
prob_relay_active_exact integrates the same event exactly and is what the
simulator matches.  Totals therefore mix their conditionals under an
approximate weight and are not exact even where the conditionals are.
"""

import math
from dataclasses import dataclass

from .quadrature import QuadratureError, integrate_exp_over_x
from .system import DerivedParams


class NoSecondaryAccessError(ValueError):
    """Scenario admits no secondary transmission (secondary SNR is zero)."""


@dataclass(frozen=True)
class ConditionalOutage:
    """The four conditional outage probabilities at one power split.

    d1_exact marks whether the D=1 entries are exact closed forms (power split
    exactly 0 or 1) or upper bounds (interior split).  The D=0 entries are
    always exact.
    """

    pri_d1: float
    sec_d1: float
    sec_d0: float
    pri_d0: float
    d1_exact: bool


@dataclass(frozen=True)
class OutageSummary:
    """Activation-weighted total outage probabilities.

    cond holds the conditionals the totals mix; it is None without secondary
    access, where nothing is mixed.  bound is True when total_sec is the
    upper-bound mixture (interior power split).  At a split of exactly 0 or 1
    both totals mix exact conditionals, but under the paper's approximate
    activation weight p_d1 (see prob_relay_active), so they are not exact
    totals either.  total_pri is the symmetric primary mixture; it is a
    derived quantity, not a published closed form.
    """

    p_d1: float
    total_sec: float
    total_pri: float
    cond: ConditionalOutage | None

    @property
    def bound(self) -> bool:
        return self.cond is not None and not self.cond.d1_exact


def _clamp01(x: float) -> float:
    if x != x:
        raise ArithmeticError("an outage probability evaluated to NaN")
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def _ratio_outage(g_sig: float, g_cross: float, threshold: float) -> float:
    """P(g_sig*E1 / (g_cross*E2 + 1) < threshold) for unit exponentials E1, E2.

    Averaging the exponential tail over the interfering gain gives
    1 - g_sig*exp(-threshold/g_sig) / (g_sig + threshold*g_cross).
    """
    return _clamp01(
        1.0 - g_sig * math.exp(-threshold / g_sig) / (g_sig + threshold * g_cross)
    )


def prob_decode_order(derived: DerivedParams, first: str) -> float:
    """Probability the relay's SIC decodes the given user's signal first.

    The stronger received signal is taken first; for exponential received
    powers that order wins with probability gain_ir/(gain_ir + gain_jr).
    """
    g = derived.gain
    if not (g.pr > 0.0 and g.sr > 0.0):
        raise ValueError("decode order needs positive mean gains toward the relay")
    if first == "p":
        return g.pr / (g.pr + g.sr)
    if first == "s":
        return g.sr / (g.sr + g.pr)
    raise ValueError("first must be 'p' or 's'")


def _check_activation_inputs(derived: DerivedParams) -> None:
    if derived.snr_s == 0.0:
        raise NoSecondaryAccessError(
            "relay activation model assumes an admitted secondary transmitter"
        )
    g = derived.gain
    if not (g.pr > 0.0 and g.sr > 0.0):
        raise ValueError("relay activation needs positive mean gains toward the relay")


def prob_relay_active(derived: DerivedParams) -> float:
    """Probability the relay decodes both signals in either SIC order.

    Two-branch closed form: each order contributes its order probability times
    the tail probabilities of the first signal clearing
    max(lambda_first*(1+lambda_second), lambda_second) and the second clearing
    its own threshold.  Note this factorization treats the order event as
    independent of the threshold events, so it approximates the literal
    per-draw decision; prob_relay_active_exact is the exact probability of
    that decision and the one the simulator matches.  This paper form stays
    the activation weight of the totals.
    """
    _check_activation_inputs(derived)
    g = derived.gain
    lp, ls = derived.lambda_p, derived.lambda_s
    m_p = max(lp * (1.0 + ls), ls)
    m_s = max(ls * (1.0 + lp), lp)
    p_first = (g.pr / (g.pr + g.sr)) * math.exp(-m_p / g.pr - ls / g.sr)
    s_first = (g.sr / (g.sr + g.pr)) * math.exp(-m_s / g.sr - lp / g.pr)
    return _clamp01(p_first + s_first)


def _first_decoded_active(g1: float, g2: float, lam1: float,
                          lam2: float) -> float:
    """P(Y >= lam2, X > Y, X >= lam1*(1+Y)) for independent exponentials X, Y
    of means g1, g2: X is decoded first, Y second.

    Given Y = y the first stage needs X above max(y, lam1*(1+y)).  For
    lam1 >= 1 that is always lam1*(1+y); for lam1 < 1 it switches to y past
    the breakpoint b = lam1/(1-lam1).  Integrating the tail of X against the
    density of Y on each piece leaves sums of exponentials.
    """
    k_sic = 1.0 / g2 + lam1 / g1       # rate in y below the breakpoint
    k_ord = 1.0 / g1 + 1.0 / g2        # rate in y past it

    def sic_tail(y0):                  # SIC piece integrated over y >= y0
        return math.exp(-lam1 / g1 - k_sic * y0) / (g2 * k_sic)

    def ord_tail(y0):                  # order piece integrated over y >= y0
        return math.exp(-k_ord * y0) / (g2 * k_ord)

    if lam1 >= 1.0:
        return sic_tail(lam2)
    b = lam1 / (1.0 - lam1)
    if lam2 >= b:
        return ord_tail(lam2)
    return sic_tail(lam2) - sic_tail(b) + ord_tail(b)


def prob_relay_active_exact(derived: DerivedParams) -> float:
    """Exact probability of the relay's per-draw activation decision.

    The relay decodes the stronger of X = snr_p*|h_pr|^2 and
    Y = snr_s*|h_sr|^2 first (means gain_pr and gain_sr), so activation is
    the union of two disjoint regions bounded by straight lines in (X, Y):
    primary first (X > Y, X >= lambda_p*(1+Y), Y >= lambda_s) and its mirror
    with the roles swapped.  Each region integrates in closed form.
    """
    _check_activation_inputs(derived)
    g = derived.gain
    lp, ls = derived.lambda_p, derived.lambda_s
    return _clamp01(_first_decoded_active(g.pr, g.sr, lp, ls)
                    + _first_decoded_active(g.sr, g.pr, ls, lp))


def cond_sec_outage_d0(derived: DerivedParams) -> float:
    """Secondary outage when both transmitters repeat (relay silent).

    Combining the two identical copies doubles the effective signal gain, so
    this is the ratio outage at 2*gain_ss against the two-sub-slot threshold.
    """
    g = derived.gain
    if g.ss <= 0.0:
        raise ValueError("needs a positive secondary direct-link gain")
    return _ratio_outage(2.0 * g.ss, g.ps, derived.lambda_s)


def cond_pri_outage_d0(derived: DerivedParams) -> float:
    """Primary outage when both transmitters repeat; mirror of the secondary."""
    g = derived.gain
    if g.pp <= 0.0:
        raise ValueError("needs a positive primary direct-link gain")
    return _ratio_outage(2.0 * g.pp, g.sp, derived.lambda_p)


# the direct, cross and relay links of each user's full-power form
_FULL_POWER_LINKS = {"primary": "pp, sp and rp", "secondary": "ss, ps and rs"}


def _full_power_message(user, failure) -> str:
    return (f"full-power {user} outage {failure}: the mean gains of links "
            f"{_FULL_POWER_LINKS[user]} are out of range")


def _full_power_outage(g_sig, g_cross, g_relay, threshold, user) -> float:
    """Outage of direct copy plus a full-power relay copy for the given user.

    P(g_sig*E1/(g_cross*E2+1) + g_relay*E3 < threshold).  Conditioning on the
    relay term and integrating the ratio tail yields a single integral of
    exp(c*x)/x over [g_sig, g_sig + threshold*g_cross]; the exponent is kept
    shifted so nothing overflows when g_relay is small.

    With x the no-relay outage and f the density of the direct SINR, a relay
    gain at most 1e-8 of both g_sig and the threshold gives
    x - g_relay*f(threshold): the first-order term is at most about 1e-8 of x
    and the next one is g_relay*|f'/f| <= g_relay*(1/g_sig + 2/threshold)
    times smaller again, below double precision, while the integral's
    coefficients can be past double range.
    """
    d = g_sig + threshold * g_cross
    if g_relay <= 1e-8 * min(g_sig, threshold):
        if d * d == 0.0:
            raise ArithmeticError(_full_power_message(user, "underflows"))
        return (_ratio_outage(g_sig, g_cross, threshold)
                - g_relay * math.exp(-threshold / g_sig)
                * (1.0 / d + g_sig * g_cross / (d * d)))
    c = (1.0 / g_relay - 1.0 / g_sig) / g_cross
    if not (math.isfinite(c) and math.isfinite(d)):
        raise ArithmeticError(_full_power_message(user, "overflows"))
    a = g_sig
    try:
        shifted = integrate_exp_over_x(
            c, a, d, exp_shift=-c * a - threshold / g_relay
        )
    except QuadratureError as exc:
        raise QuadratureError(
            _full_power_message(user, "does not converge")) from exc
    return _clamp01(
        1.0
        - math.exp(-threshold / g_relay)
        - (g_sig / (g_cross * g_relay)) * shifted
    )


def cond_outage_d1_exact(derived: DerivedParams, user: str,
                         alpha: float) -> float:
    """Exact conditional outage given an active relay, at an extreme split.

    alpha is the relay power fraction given to the primary signal and must be
    exactly 0 or 1.  The user holding all of the relay power (primary at 1,
    secondary at 0) gets the direct-plus-relay form; the other user holds
    none, so its exact value is the bound's split-independent branch.
    """
    if alpha not in (0.0, 1.0):
        raise ValueError("exact conditional forms exist only at alpha 0 or 1")
    g = derived.gain
    if user == "primary" and alpha == 1.0:
        g_sig, g_cross, g_relay, lam = g.pp, g.sp, g.rp, derived.lambda_p
    elif user == "secondary" and alpha == 0.0:
        g_sig, g_cross, g_relay, lam = g.ss, g.ps, g.rs, derived.lambda_s
    else:
        return upper_bound_d1(derived, user, alpha)
    if g_sig <= 0.0:
        raise ValueError(f"{user} direct gain must be positive")
    if g_cross <= 0.0:
        raise ValueError("full-power form needs a positive cross gain")
    return _full_power_outage(g_sig, g_cross, g_relay, lam, user)


def primary_split_floor(lambda_p: float) -> float:
    """Smallest primary power fraction at which relay power can still help the
    primary bound: below lambda_p/(1+lambda_p) the relayed SINR term saturates
    under the threshold and the bound is split-independent."""
    return lambda_p / (1.0 + lambda_p)


def secondary_split_ceiling(lambda_s: float) -> float:
    """Largest primary power fraction at which relay power still helps the
    secondary bound; above 1/(1+lambda_s) the bound is split-independent."""
    return 1.0 / (1.0 + lambda_s)


def _primary_bound(x: float, g_rp: float, alpha: float, lam: float) -> float:
    """Saturating-relay primary bound from its no-relay value x."""
    if alpha <= primary_split_floor(lam) or g_rp == 0.0:
        return x
    t = alpha * (1.0 + lam) - lam
    # rounding right at the branch switch, or a relay gain so weak that the
    # product underflows: no relay help, the bound's limit
    if t <= 0.0 or g_rp * t == 0.0:
        return x
    return _clamp01(x * (1.0 - math.exp(-lam / (g_rp * t))))


def _secondary_bound(y: float, g_rs: float, alpha: float, lam: float) -> float:
    """Saturating-relay secondary bound from its no-relay value y."""
    if alpha >= secondary_split_ceiling(lam) or g_rs == 0.0:
        return y
    t = 1.0 - alpha * (1.0 + lam)
    if t <= 0.0 or g_rs * t == 0.0:
        return y
    return _clamp01(y * (1.0 - math.exp(-lam / (g_rs * t))))


def upper_bound_d1(derived: DerivedParams, user: str, alpha: float) -> float:
    """Upper bound on the conditional outage given an active relay.

    Valid for any split in [0, 1]; on the split-independent branch it equals
    the corresponding exact extreme-split form, on the other branch it is the
    saturating-relay-term bound.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    g = derived.gain
    if user == "primary":
        if g.pp <= 0.0:
            raise ValueError("primary direct gain must be positive")
        x = _ratio_outage(g.pp, g.sp, derived.lambda_p)
        return _primary_bound(x, g.rp, alpha, derived.lambda_p)
    if user == "secondary":
        if g.ss <= 0.0:
            raise ValueError("secondary direct gain must be positive")
        y = _ratio_outage(g.ss, g.ps, derived.lambda_s)
        return _secondary_bound(y, g.rs, alpha, derived.lambda_s)
    raise ValueError("user must be 'primary' or 'secondary'")


def conditional_outages(derived: DerivedParams,
                        alpha: float) -> ConditionalOutage:
    """All four conditional outages at one split; exact where possible."""
    exact = alpha in (0.0, 1.0)
    d1 = cond_outage_d1_exact if exact else upper_bound_d1
    return ConditionalOutage(
        pri_d1=d1(derived, "primary", alpha),
        sec_d1=d1(derived, "secondary", alpha),
        sec_d0=cond_sec_outage_d0(derived),
        pri_d0=cond_pri_outage_d0(derived),
        d1_exact=exact,
    )


def total_secondary_outage(derived: DerivedParams,
                           alpha: float) -> OutageSummary:
    """Activation-weighted totals for both users at the given split.

    With no admitted secondary (snr_s = 0) the secondary outage is 1 by
    definition and the primary reverts to its interference-free repeat form.
    At interior splits the D=1 pieces are upper bounds, so the totals are
    upper bounds too (flagged).  At splits of exactly 0 or 1 the conditionals
    are exact, but they are weighted by the paper's approximate activation
    form prob_relay_active, so the totals are not exact there either.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    g = derived.gain
    if derived.snr_s == 0.0:
        pri = 1.0 - math.exp(-derived.lambda_p / (2.0 * g.pp))
        return OutageSummary(p_d1=0.0, total_sec=1.0, total_pri=pri, cond=None)
    w = prob_relay_active(derived)
    cond = conditional_outages(derived, alpha)
    return OutageSummary(
        p_d1=w,
        total_sec=_clamp01((1.0 - w) * cond.sec_d0 + w * cond.sec_d1),
        total_pri=_clamp01((1.0 - w) * cond.pri_d0 + w * cond.pri_d1),
        cond=cond,
    )


def noncoop_secondary_outage(derived: DerivedParams) -> float:
    """Secondary outage of the single-slot baseline without any relay."""
    g = derived.gain
    if g.ss <= 0.0:
        raise ValueError("needs a positive secondary direct-link gain")
    return _ratio_outage(g.ss, g.ps, derived.theta_s)


def noncoop_primary_outage(derived: DerivedParams) -> float:
    """Primary outage of the single-slot baseline.

    Equals the admission threshold epsilon by construction whenever the
    secondary is admitted with a positive SNR.
    """
    g = derived.gain
    if g.pp <= 0.0:
        raise ValueError("needs a positive primary direct-link gain")
    return _ratio_outage(g.pp, g.sp, derived.theta_p)
