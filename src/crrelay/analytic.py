"""Closed-form outage probabilities and upper bounds for the relay-aided
two-sub-slot protocol.

Conventions: gain_ab is the mean SNR of link a->b (transmit SNR times channel
variance), lambda_* the two-sub-slot SINR thresholds, theta_* the one-slot
thresholds.  Conditional quantities are taken given the relay activation
indicator D.  Exact forms exist for D=0 and for the relay spending all of its
power on one user (power split alpha at 0 or 1); interior splits only admit
upper bounds.

The paper derives each quantity for the primary and mirrors it for the
secondary.  Here each is one function of the user ("primary" or "secondary"),
reading that user's direct, cross and relay links from system.USER_LINKS.

The activation probability P(D=1) has two forms.  prob_relay_active is the
paper's two-branch form; it treats the decode order as independent of the
threshold events, so it only approximates the per-draw decision, yet it stays
the weight of every total, of the allocator and of the reproduction targets.
prob_relay_active_exact integrates the same event exactly and is what the
simulator matches.  Totals therefore mix their conditionals under an
approximate weight and are not exact even where the conditionals are.
Both, and prob_decode_order, the primary-first probability that the totals
record as order_p, read the gains toward the relay through one check.
"""

import math
from collections import namedtuple

from .quadrature import QuadratureError, integrate_exp_over_x
from .system import USER_LINKS, DerivedParams


class OutageSummary(namedtuple(
        "OutageSummary",
        "pri sec p_d1 order_p pri_d0 pri_d1 sec_d0 sec_d1 bound",
        defaults=(None,) * 8 + (False,))):
    """A scheme's closed forms, under the names of its SchemeEstimates.

    For the proposed scheme pri/sec are the activation-weighted totals,
    p_d1 their weight and order_p the primary-first SIC order; pri_d0/sec_d0
    are the exact relay-silent conditionals and pri_d1/sec_d1 the
    relay-active ones, all None without secondary access, where nothing is
    mixed.  bound is True at an interior power split, where pri_d1, sec_d1
    and so the totals are upper bounds.  At a split of exactly 0 or 1 both
    totals mix exact conditionals, but under the paper's approximate
    activation weight p_d1 (see prob_relay_active), so they are not exact
    totals either.  pri is the symmetric primary mixture; it is a derived
    quantity, not a published closed form.  The non-cooperative scheme's
    record holds only its exact one-slot pri and sec, with p_d1 None.
    """

    __slots__ = ()


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


def _relay_gains(derived: DerivedParams) -> tuple:
    """(gain_pr, gain_sr), the mean gains toward the relay, for an admitted
    secondary and both positive."""
    if derived.snr_s == 0.0:
        raise ValueError("relay activation model assumes an admitted "
                         "secondary transmitter")
    g = derived.gain
    if not (g.pr > 0.0 and g.sr > 0.0):
        raise ValueError("relay activation needs positive mean gains toward the relay")
    return g.pr, g.sr


def prob_decode_order(derived: DerivedParams) -> float:
    """The primary-first probability: the relay's SIC decodes the primary
    signal first.

    The stronger received signal is taken first; for exponential received
    powers the primary's wins with probability gain_pr/(gain_pr + gain_sr).
    """
    g_pr, g_sr = _relay_gains(derived)
    return g_pr / (g_pr + g_sr)


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
    g_pr, g_sr = _relay_gains(derived)
    lp, ls = derived.lambda_p, derived.lambda_s
    m_p = max(lp * (1.0 + ls), ls)
    m_s = max(ls * (1.0 + lp), lp)
    p_first = (g_pr / (g_pr + g_sr)) * math.exp(-m_p / g_pr - ls / g_sr)
    s_first = (g_sr / (g_sr + g_pr)) * math.exp(-m_s / g_sr - lp / g_pr)
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
    g_pr, g_sr = _relay_gains(derived)
    lp, ls = derived.lambda_p, derived.lambda_s
    return _clamp01(_first_decoded_active(g_pr, g_sr, lp, ls)
                    + _first_decoded_active(g_sr, g_pr, ls, lp))


def _user_gains(derived: DerivedParams, user: str) -> tuple:
    """A user's (g_sig, g_cross, g_relay, lambda, theta): the mean gains of
    its direct, cross and relay links (system.USER_LINKS) and its two-sub-slot
    and one-slot thresholds."""
    if user not in USER_LINKS:
        raise ValueError("user must be 'primary' or 'secondary'")
    g_sig, g_cross, g_relay = (getattr(derived.gain, name)
                               for name in USER_LINKS[user])
    if g_sig <= 0.0:
        raise ValueError(f"{user} direct gain must be positive")
    if user == "primary":
        return g_sig, g_cross, g_relay, derived.lambda_p, derived.theta_p
    return g_sig, g_cross, g_relay, derived.lambda_s, derived.theta_s


def cond_outage_d0(derived: DerivedParams, user: str) -> float:
    """A user's outage when both transmitters repeat (relay silent).

    Combining the two identical copies doubles the effective signal gain, so
    this is the ratio outage at twice the direct gain against the two-sub-slot
    threshold.
    """
    g_sig, g_cross, _, lam, _ = _user_gains(derived, user)
    if 2.0 * g_sig == math.inf:
        raise ArithmeticError(
            f"relay-silent {user} outage overflows: the mean gain of link "
            f"{USER_LINKS[user][0]} is out of range")
    return _ratio_outage(2.0 * g_sig, g_cross, lam)


def _full_power_outage(g_sig, g_cross, g_relay, threshold, user) -> float:
    """Outage of direct copy plus a full-power relay copy for the given user.

    P(g_sig*E1/(g_cross*E2+1) + g_relay*E3 < threshold).  Conditioning on the
    relay term and integrating the ratio tail yields a single integral of
    exp(c*x)/x over [g_sig, g_sig + threshold*g_cross]; the exponent is kept
    shifted so nothing overflows when g_relay is small.

    With x the no-relay outage and f the density of the direct SINR, a relay
    gain at most 1e-5 of both g_sig and the threshold gives
    x - g_relay*f(threshold): the next term is g_relay*|f'/f| <=
    g_relay*(1/g_sig + 2/threshold), at most about 3e-5, times the
    first-order one, which is itself at most about 1e-5 of x.  Above the cut
    the integral's absolute error, scaled by g_sig/(g_cross*g_relay), can
    swamp a small outage; below it its coefficients can pass double range.
    Any arithmetic failure, or a value that is not finite, is refused by name.
    """
    d = g_sig + threshold * g_cross
    failure, error = "overflows", ArithmeticError
    try:
        if g_relay <= 1e-5 * min(g_sig, threshold):
            outage = (_ratio_outage(g_sig, g_cross, threshold)
                      - g_relay * math.exp(-threshold / g_sig)
                      * (1.0 / d + g_sig * g_cross / (d * d)))
        else:
            c = (1.0 / g_relay - 1.0 / g_sig) / g_cross
            shifted = integrate_exp_over_x(
                c, g_sig, d, exp_shift=-c * g_sig - threshold / g_relay)
            outage = (1.0 - math.exp(-threshold / g_relay)
                      - g_sig / (g_cross * g_relay) * shifted)
        if math.isfinite(outage):
            return _clamp01(outage)
    except ZeroDivisionError:
        failure = "underflows"
    except QuadratureError:
        failure, error = "does not converge", QuadratureError
    except (ArithmeticError, ValueError):   # ValueError: c or d not finite
        pass
    raise error(f"full-power {user} outage {failure}: the mean gains of links "
                "{}, {} and {} are out of range".format(*USER_LINKS[user]))


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
    g_sig, g_cross, g_relay, lam, _ = _user_gains(derived, user)
    if alpha != (1.0 if user == "primary" else 0.0):
        return upper_bound_d1(derived, user, alpha)
    if g_cross <= 0.0:
        raise ValueError("full-power form needs a positive cross gain")
    return _full_power_outage(g_sig, g_cross, g_relay, lam, user)


def primary_split_floor(lambda_p: float) -> float:
    """Smallest relay power share (the primary's alpha, the secondary's
    1 - alpha) at which relay power still helps that user's bound; below
    lambda/(1+lambda) the relayed SINR term saturates under the threshold
    and the bound is split-independent."""
    return lambda_p / (1.0 + lambda_p)


def secondary_split_ceiling(lambda_s: float) -> float:
    """Largest primary power fraction at which relay power still helps the
    secondary bound; above 1/(1+lambda_s) the bound is split-independent."""
    return 1.0 / (1.0 + lambda_s)


def _relay_bound(x: float, g_relay: float, share: float, lam: float) -> float:
    """Saturating-relay bound from a user's no-relay value x at the user's
    relay power share: alpha for the primary, 1 - alpha for the secondary."""
    if share <= primary_split_floor(lam) or g_relay == 0.0:
        return x
    t = share * (1.0 + lam) - lam
    # rounding right at the branch switch, or a relay gain so weak that the
    # product underflows: no relay help, the bound's limit
    if t <= 0.0 or g_relay * t == 0.0:
        return x
    return _clamp01(x * (1.0 - math.exp(-lam / (g_relay * t))))


def upper_bound_d1(derived: DerivedParams, user: str, alpha: float) -> float:
    """Upper bound on the conditional outage given an active relay.

    Valid for any split in [0, 1]; on the split-independent branch it equals
    the corresponding exact extreme-split form, on the other branch it is the
    saturating-relay-term bound.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    g_sig, g_cross, g_relay, lam, _ = _user_gains(derived, user)
    return _relay_bound(_ratio_outage(g_sig, g_cross, lam), g_relay,
                        alpha if user == "primary" else 1.0 - alpha, lam)


def total_secondary_outage(derived: DerivedParams,
                           alpha: float) -> OutageSummary:
    """The proposed scheme's closed forms at the given split.

    With no admitted secondary (snr_s = 0) the secondary outage is 1 by
    definition and the primary's is its relay-silent form, interference-free.
    At interior splits the D=1 pieces are upper bounds, so the totals are
    upper bounds too (flagged).  At splits of exactly 0 or 1 the conditionals
    are exact, but they are weighted by the paper's approximate activation
    form prob_relay_active, so the totals are not exact there either.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if derived.snr_s == 0.0:
        return OutageSummary(pri=cond_outage_d0(derived, "primary"), sec=1.0,
                             p_d1=0.0)
    w = prob_relay_active(derived)
    bound = alpha not in (0.0, 1.0)
    d1 = upper_bound_d1 if bound else cond_outage_d1_exact
    pri_d1, sec_d1 = (d1(derived, u, alpha) for u in USER_LINKS)
    pri_d0, sec_d0 = (cond_outage_d0(derived, u) for u in USER_LINKS)
    return OutageSummary(
        pri=_clamp01((1.0 - w) * pri_d0 + w * pri_d1),
        sec=_clamp01((1.0 - w) * sec_d0 + w * sec_d1),
        p_d1=w, order_p=prob_decode_order(derived),
        pri_d0=pri_d0, pri_d1=pri_d1, sec_d0=sec_d0, sec_d1=sec_d1,
        bound=bound,
    )


def noncoop_outage(derived: DerivedParams, user: str) -> float:
    """A user's outage in the single-slot baseline without any relay.

    The primary's equals the admission threshold epsilon by construction
    whenever the secondary is admitted with a positive SNR.
    """
    g_sig, g_cross, _, _, theta = _user_gains(derived, user)
    return _ratio_outage(g_sig, g_cross, theta)
