"""Scenario parameters and their deterministic derived quantities.

One primary pair (PT -> PD) and one secondary pair (ST -> SD) share the band;
a decode-and-forward relay R can assist both.  All channels are Rayleigh, so a
squared channel magnitude is exponential with mean equal to the link variance.
The secondary transmit SNR is not free: it is the largest value that keeps the
single-slot primary outage at the admission threshold epsilon.
"""

import math
from dataclasses import dataclass, replace

# Directed links a->b with a,b in {p: primary, s: secondary, r: relay}.
LINKS = ("pp", "sp", "ps", "ss", "pr", "sr", "rp", "rs")

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


@dataclass(frozen=True)
class LinkTable:
    """One nonnegative float per directed link, keyed as in LINKS."""

    pp: float
    sp: float
    ps: float
    ss: float
    pr: float
    sr: float
    rp: float
    rs: float

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in LINKS}

    @classmethod
    def from_dict(cls, values: dict) -> "LinkTable":
        extra = set(values) - set(LINKS)
        missing = set(LINKS) - set(values)
        if extra or missing:
            raise ValueError(
                f"link table needs exactly the keys {LINKS}; "
                f"missing={sorted(missing)} unknown={sorted(extra)}"
            )
        return cls(**{k: float(v) for k, v in values.items()})

    @classmethod
    def uniform(cls, value: float = 1.0, **overrides: float) -> "LinkTable":
        vals = {name: float(value) for name in LINKS}
        vals.update({k: float(v) for k, v in overrides.items()})
        return cls.from_dict(vals)


@dataclass(frozen=True)
class SystemParams:
    """Full scenario description.

    rate_p, rate_s: target spectral efficiencies (bits/s/Hz).
    snr_p, snr_r:   transmit SNRs of the primary and the relay (linear).
    epsilon:        primary outage probability the secondary must respect.
    link_vars:      channel variance per directed link (all > 0).
    """

    rate_p: float
    rate_s: float
    snr_p: float
    snr_r: float
    epsilon: float
    link_vars: LinkTable

    def __post_init__(self):
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
        for name, var in self.link_vars.as_dict().items():
            if not var > 0.0 or not math.isfinite(var):
                raise ValueError(f"link variance {name} must be positive and finite")

    @classmethod
    def from_db(cls, rate_p, rate_s, snr_p_db, snr_r_db, epsilon, link_vars):
        """Build from SNRs quoted in dB (the CLI/config convention)."""
        return cls(
            rate_p=rate_p,
            rate_s=rate_s,
            snr_p=db_to_linear(snr_p_db),
            snr_r=db_to_linear(snr_r_db),
            epsilon=epsilon,
            link_vars=link_vars,
        )

    def with_epsilon(self, epsilon: float) -> "SystemParams":
        return replace(self, epsilon=epsilon)

    def with_snr_r(self, snr_r: float) -> "SystemParams":
        return replace(self, snr_r=snr_r)


@dataclass(frozen=True)
class DerivedParams:
    """Everything computable from SystemParams alone.

    theta_*:  one-slot SINR thresholds 2^R - 1.
    lambda_*: two-sub-slot thresholds 2^(2R) - 1.
    snr_s:    admitted secondary SNR (0 means no secondary access).
    gain:     mean link SNR table, gain_ab = snr_a * var_ab.
    """

    theta_p: float
    theta_s: float
    lambda_p: float
    lambda_s: float
    snr_s: float
    gain: LinkTable
    params: SystemParams


def one_slot_threshold(rate: float) -> float:
    return 2.0 ** rate - 1.0


def two_slot_threshold(rate: float) -> float:
    return 2.0 ** (2.0 * rate) - 1.0


def admitted_secondary_snr(rate_p, snr_p, var_pp, var_sp, epsilon) -> float:
    """Largest secondary SNR keeping the single-slot primary outage at epsilon.

    Solves P(snr_p*|h_pp|^2 / (snr_s*|h_sp|^2 + 1) < theta_p) = epsilon for
    snr_s; negative solutions mean the primary misses epsilon even alone, in
    which case the secondary is denied access (returns 0).
    """
    theta_p = one_slot_threshold(rate_p)
    rho = math.exp(-theta_p / (snr_p * var_pp)) / (1.0 - epsilon) - 1.0
    if rho <= 0.0:
        return 0.0
    return (snr_p * var_pp / (theta_p * var_sp)) * rho


def derive(params: SystemParams) -> DerivedParams:
    """Thresholds, admitted secondary SNR and mean gains; ValueError on overflow."""
    snr_s = admitted_secondary_snr(
        params.rate_p, params.snr_p, params.link_vars.pp, params.link_vars.sp,
        params.epsilon,
    )
    if not math.isfinite(snr_s):
        raise ValueError("admitted secondary SNR overflows: link variance pp "
                         "is too large or sp too small")
    v = params.link_vars
    gain = LinkTable(
        pp=params.snr_p * v.pp,
        ps=params.snr_p * v.ps,
        pr=params.snr_p * v.pr,
        sp=snr_s * v.sp,
        ss=snr_s * v.ss,
        sr=snr_s * v.sr,
        rp=params.snr_r * v.rp,
        rs=params.snr_r * v.rs,
    )
    for name, g in gain.as_dict().items():
        if not math.isfinite(g):
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


def secondary_cutoff_snr(rate_p: float, epsilon: float, var_pp: float) -> float:
    """Primary SNR below which no secondary transmission is admitted.

    Root of the admission margin: below this value the primary cannot meet
    epsilon even without interference, so the admitted secondary SNR is 0.
    """
    if not (rate_p > 0.0 and var_pp > 0.0):
        raise ValueError("rate_p and var_pp must be positive")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    return one_slot_threshold(rate_p) / (-var_pp * math.log1p(-epsilon))
