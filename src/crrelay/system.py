"""Scenario parameters and their deterministic derived quantities.

One primary pair (PT -> PD) and one secondary pair (ST -> SD) share the band;
a decode-and-forward relay R can assist both.  All channels are Rayleigh, so a
squared channel magnitude is exponential with mean equal to the link variance.
The secondary transmit SNR is not free: it is the largest value that keeps the
single-slot primary outage at the admission threshold epsilon.
"""

import math
from collections import namedtuple

# Directed links a->b with a,b in {p: primary, s: secondary, r: relay}.
LINKS = ("pp", "sp", "ps", "ss", "pr", "sr", "rp", "rs")

# Each user's direct link, cross (interfering) link and relay link.
USER_LINKS = {"primary": ("pp", "sp", "rp"), "secondary": ("ss", "ps", "rs")}

# From this rate on the two-sub-slot threshold 2^(2R) - 1 overflows a double.
MAX_RATE = 512.0


def db_to_linear(x_db: float) -> float:
    """Convert a dB value to a linear power ratio (inf when it overflows)."""
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        return math.inf


def linear_to_db(x: float) -> float:
    """Convert a linear power ratio to dB."""
    if x <= 0.0:
        raise ValueError("dB conversion requires a positive ratio")
    return 10.0 * math.log10(x)


class LinkTable(namedtuple("LinkTable", LINKS)):
    """One nonnegative float per directed link, keyed as in LINKS."""

    __slots__ = ()


class SystemParams(namedtuple(
        "SystemParams", "rate_p rate_s snr_p snr_r epsilon link_vars")):
    """Full scenario description.

    rate_p, rate_s: target spectral efficiencies (bits/s/Hz).
    snr_p, snr_r:   transmit SNRs of the primary and the relay (linear).
    epsilon:        primary outage probability the secondary must respect.
    link_vars:      channel variance per directed link (all > 0), a LinkTable.

    Every construction validates, _replace and _make included.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("rate_p", "rate_s", "snr_p", "snr_r"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (self.rate_p > 0.0 and self.rate_s > 0.0):
            raise ValueError("rates must be positive")
        if not self.snr_p > 0.0:
            raise ValueError("snr_p must be positive")
        if not self.snr_r >= 0.0:
            raise ValueError("snr_r must be nonnegative")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie strictly between 0 and 1")
        for name in ("rate_p", "rate_s"):
            if not getattr(self, name) < MAX_RATE:
                raise ValueError(f"{name} must be below {MAX_RATE:g} "
                                 "bits/s/Hz (2^(2R) overflows)")
            if one_slot_threshold(getattr(self, name)) == 0.0:
                raise ValueError(f"{name} is too small (2^R - 1 rounds to 0)")
        for name in LINKS:
            var = getattr(self.link_vars, name)
            if not var > 0.0 or not math.isfinite(var):
                raise ValueError(f"link variance {name} must be positive and finite")
        return self

    @classmethod
    def _make(cls, values):
        return cls(*values)


class DerivedParams(namedtuple(
        "DerivedParams",
        "theta_p theta_s lambda_p lambda_s snr_s gain params")):
    """Everything computable from SystemParams alone.

    theta_*:  one-slot SINR thresholds 2^R - 1.
    lambda_*: two-sub-slot thresholds 2^(2R) - 1.
    snr_s:    admitted secondary SNR (0 means no secondary access).
    gain:     mean link SNR table, gain_ab = snr_a * var_ab.
    params:   the SystemParams it was derived from.
    """

    __slots__ = ()


def one_slot_threshold(rate: float) -> float:
    return 2.0 ** rate - 1.0


def two_slot_threshold(rate: float) -> float:
    return 2.0 ** (2.0 * rate) - 1.0


def admitted_secondary_snr(params: SystemParams) -> float:
    """Largest secondary SNR keeping the single-slot primary outage at epsilon.

    Solves P(snr_p*|h_pp|^2 / (snr_s*|h_sp|^2 + 1) < theta_p) = epsilon for
    snr_s; negative solutions mean the primary misses epsilon even alone, in
    which case the secondary is denied access (returns 0).
    """
    theta_p = one_slot_threshold(params.rate_p)
    g_pp = params.snr_p * params.link_vars.pp
    if g_pp == 0.0:
        raise ValueError("mean gain of link pp underflows")
    rho = math.exp(-theta_p / g_pp) / (1.0 - params.epsilon) - 1.0
    if rho <= 0.0:
        return 0.0
    return (g_pp / (theta_p * params.link_vars.sp)) * rho


def derive(params: SystemParams) -> DerivedParams:
    """Thresholds, admitted secondary SNR and mean gains; ValueError on overflow."""
    snr_s = admitted_secondary_snr(params)
    if not math.isfinite(snr_s):
        raise ValueError("admitted secondary SNR overflows: link variance pp "
                         "is too large or sp too small")
    # a link's first letter names its transmitter, whose SNR scales it
    snr = {"p": params.snr_p, "s": snr_s, "r": params.snr_r}
    gain = LinkTable(**{name: snr[name[0]] * getattr(params.link_vars, name)
                        for name in LINKS})
    for name in LINKS:
        if not math.isfinite(getattr(gain, name)):
            raise ValueError(f"mean gain of link {name} overflows")
    return DerivedParams(
        theta_p=one_slot_threshold(params.rate_p),
        theta_s=one_slot_threshold(params.rate_s),
        lambda_p=two_slot_threshold(params.rate_p),
        lambda_s=two_slot_threshold(params.rate_s),
        snr_s=snr_s,
        gain=gain,
        params=params,
    )


def secondary_cutoff_db(params: SystemParams) -> float:
    """Primary SNR, in dB, below which no secondary transmission is admitted.

    Root of the admission margin: below this value the primary cannot meet
    epsilon even without interference, so the admitted secondary SNR is 0.
    Summed in log space: finite even where the linear cutoff overflows.
    """
    return 10.0 * (math.log10(one_slot_threshold(params.rate_p))
                   - math.log10(params.link_vars.pp)
                   - math.log10(-math.log1p(-params.epsilon)))
