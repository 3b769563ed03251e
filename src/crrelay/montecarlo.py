"""Event-level simulator for the two-sub-slot protocol and its baselines.

This is the independent oracle for every closed form in the analytic module:
it draws the eight squared channel magnitudes, applies the relay's SIC
decision rule and the printed SINR expressions literally, and counts outage
events.

Stream contract
---------------
Channel draws come from a Philox counter-based generator keyed by the master
seed.  Trial i consumes exactly the eight uniform doubles at stream positions
[8*i, 8*i + 8), in the fixed link order pp, sp, ps, ss, pr, sr, rp, rs, each
mapped to an exponential by inversion (var * -log1p(-u)).  Philox counters
move in blocks of four doubles, so trial i starts at counter offset 2*i and
any partition of a trial range generates identical draws.  Outage tallies are
integers summed over chunks, which makes every estimate bit-identical for any
worker count or chunking.

The uniforms depend on the seed and trial index alone, never on the scenario,
scheme or split: only the per-link variance scales them.  So the unit-mean
exponentials -log1p(-u) are generated once per (seed, chunk) and shared by
every request of an estimate_many() call.  A chunk's draws are transposed
into their (8, n) layout one cache-sized sub-block of the stream at a time,
into one draw buffer per worker that every chunk of the call refills.
Requests on the same scenario and split form a group, and one kernel call
counts all of a group's schemes, computing the SINR terms they share once.
numpy is imported on the first draw, so the commands that never simulate
never load it.
"""

import math
from collections import Counter
from dataclasses import dataclass

from .system import LINKS, DerivedParams, SystemParams, derive

SCHEMES = ("proposed", "noncooperative", "relay_assisted_secondary")

_DOUBLES_PER_TRIAL = 8
_BLOCKS_PER_TRIAL = 2       # Philox counter blocks (4 doubles each) per trial
# Trials per chunk.  Bounds memory, never results: a worker holds one chunk of
# unit draws (64 B per trial) and the few trial vectors one group's kernel
# needs on top of them.
_CHUNK_TRIALS = 1 << 15
_SUB_TRIALS = 1 << 12       # trials per 256 KB sub-block, transposed in cache
_MANTISSA_BITS = 53         # a raw 64-bit draw keeps its top 53 bits


@dataclass(frozen=True)
class OutageEstimate:
    """Binomial probability estimate with its normal-approximation error."""

    p_hat: float
    std_err: float
    trials: int

    @classmethod
    def from_counts(cls, successes: int, trials: int) -> "OutageEstimate":
        p = successes / trials
        return cls(p_hat=p, std_err=math.sqrt(p * (1.0 - p) / trials),
                   trials=trials)

    def wilson(self, z: float = 3.0) -> tuple:
        """Wilson score interval; preferred over +-z*std_err for rare events."""
        n, p = self.trials, self.p_hat
        denom = 1.0 + z * z / n
        center = (p + z * z / (2.0 * n)) / denom
        half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
        return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class SchemeEstimates:
    """Per-scheme Monte Carlo estimates.

    pri/sec are total outage estimates.  p_d1 is the relay-activation
    frequency (the surrogate activation event for the relay-assisted
    baseline); None for the non-cooperative scheme.  order_p is the frequency
    of the primary-first SIC order (proposed scheme only).  Conditional
    estimates are None when their conditioning event never occurred.  Every
    primary estimate is None when the primary events were not counted.
    """

    pri: OutageEstimate | None
    sec: OutageEstimate
    p_d1: OutageEstimate | None = None
    order_p: OutageEstimate | None = None
    pri_d0: OutageEstimate | None = None
    pri_d1: OutageEstimate | None = None
    sec_d0: OutageEstimate | None = None
    sec_d1: OutageEstimate | None = None


def _philox(seed: int, start: int):
    """Philox bit generator over the seed's stream, positioned at trial start."""
    import numpy as np

    bit = np.random.Philox(key=seed)
    bit.advance(_BLOCKS_PER_TRIAL * start)
    return bit


def _uniform_block(seed: int, start: int, n: int) -> "np.ndarray":
    """Uniform doubles for trials [start, start+n), shape (n, 8)."""
    import numpy as np

    u = np.random.Generator(_philox(seed, start)).random(n * _DOUBLES_PER_TRIAL)
    return u.reshape(n, _DOUBLES_PER_TRIAL)


def _unit_block(seed: int, start: int, n: int, out=None) -> "np.ndarray":
    """Unit-mean exponentials -log1p(-u) for trials [start, start+n).

    Shape (8, n), row k holding link LINKS[k]; a link's channel draws are its
    variance times its row.  Equal to -log1p(-u).T for u =
    _uniform_block(seed, start, n), read in cache-sized sub-blocks and
    written into `out` when given, else into a new C-contiguous array.  Each
    raw 64-bit draw becomes -u as its top 53 bits times -2**-53, the
    generator's own uniform double with its sign flipped, both steps exact.
    """
    import numpy as np

    bit = _philox(seed, start)
    e = np.empty((_DOUBLES_PER_TRIAL, n)) if out is None else out
    for s in range(0, n, _SUB_TRIALS):
        m = min(_SUB_TRIALS, n - s)
        raw = bit.random_raw(m * _DOUBLES_PER_TRIAL)
        raw >>= 64 - _MANTISSA_BITS
        np.multiply(raw.reshape(m, _DOUBLES_PER_TRIAL).T,
                    -2.0 ** -_MANTISSA_BITS, out=e[:, s:s + m])
        del raw   # one sub-block alive at a time
    np.log1p(e, out=e)
    np.negative(e, out=e)
    return e


def _count_group(derived: DerivedParams, alpha: float, schemes, e,
                 primary: bool = True) -> list:
    """Integer event counts of each scheme in `schemes` over a chunk of draws.

    All schemes run on one scenario and split, so the SINR terms they share
    (the relay's x and y, the direct v and u and their parts, the
    silent-relay events) are computed once, each by the same operations as a
    scheme's own printed expression.  Row k of `e` holds link LINKS[k]'s unit
    draws.  Secondary events are always counted, primary ones when
    `primary`.  Each scaled link and temporary is dropped after its last
    use, so a group adds a few trial vectors to the chunk's working set.
    """
    import numpy as np

    p = derived.params
    snr_p, snr_s, snr_r = p.snr_p, derived.snr_s, p.snr_r
    lp, ls = derived.lambda_p, derived.lambda_s

    def g(name):
        return getattr(p.link_vars, name) * e[LINKS.index(name)]

    def n(mask):
        return int(np.count_nonzero(mask))

    counts = {scheme: {} for scheme in schemes}
    active = {}   # relay-activation event of each relayed scheme
    proposed = "proposed" in counts
    surrogate = "relay_assisted_secondary" in counts
    if proposed or surrogate:
        x = snr_p * g("pr")
        y = snr_s * g("sr")
        s_first = y >= ls * (1.0 + x)
        if proposed:
            c_p = x > y
            # boolean selects: np.where on bool arrays costs ~25x more
            active["proposed"] = (
                (c_p & ((x >= lp * (1.0 + y)) & (y >= ls)))
                | (~c_p & ((y > x) & s_first & (x >= lp))))
            counts["proposed"]["order_p"] = n(c_p)
            del c_p
        if surrogate:
            # Surrogate baseline: the relay activates when it decodes the
            # secondary signal through the primary interference; it then
            # forwards it at full power while the primary transmitter
            # repeats, so the primary's second copy sees the relay as
            # interference.
            active["relay_assisted_secondary"] = s_first
        del x, y, s_first
    silent = {scheme: ~d1 for scheme, d1 in active.items()}
    for scheme, d1 in active.items():
        counts[scheme]["d1"] = n(d1)

    def tally(user, relayed, repeated):
        for scheme, d1 in active.items():
            counts[scheme][f"{user}_d1"] = n(d1 & relayed[scheme])
            counts[scheme][f"{user}_d0"] = n(silent[scheme] & repeated)

    if primary:
        v_num = snr_p * g("pp")
        v = v_num / (snr_s * g("sp") + 1.0)
        if "noncooperative" in counts:
            counts["noncooperative"]["pri"] = n(v < derived.theta_p)
        if active:
            rp, relayed = g("rp"), {}
            if proposed:
                w_p = alpha * snr_r * rp / ((1.0 - alpha) * snr_r * rp + 1.0)
                relayed["proposed"] = v + w_p < lp
                del w_p
            if surrogate:
                relayed["relay_assisted_secondary"] = (
                    v + v_num / (snr_r * rp + 1.0) < lp)
            del rp
            tally("pri", relayed, 2.0 * v < lp)
        del v_num, v
    u_num = snr_s * g("ss")
    u_den = snr_p * g("ps") + 1.0
    u = u_num / u_den
    if "noncooperative" in counts:
        counts["noncooperative"]["sec"] = n(u < derived.theta_s)
    if active:
        rs, relayed = g("rs"), {}
        if proposed:
            w_s = (1.0 - alpha) * snr_r * rs / (alpha * snr_r * rs + 1.0)
            relayed["proposed"] = u + w_s < ls
            del w_s
        if surrogate:
            relayed["relay_assisted_secondary"] = (
                (u_num + snr_r * rs) / u_den < ls)
        del rs
        tally("sec", relayed, 2.0 * u < ls)
    return [counts[scheme] for scheme in schemes]


def check_run(trials, seed: int, workers: int) -> None:
    """Raise ValueError for a trial count, seed or worker count the simulator
    does not accept; trials None stands for a command's default."""
    if trials is not None and trials < 1:
        raise ValueError("trials must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if seed >= 2 ** 128:
        raise ValueError("seed must be below 2**128")   # the Philox key width


def check_request(alpha: float, scheme: str) -> None:
    """Raise ValueError for a scheme or split the simulator does not accept."""
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")


def estimate_many(seed: int, trials: int, requests, workers: int = 1,
                  primary: bool = True) -> list:
    """Monte Carlo outage estimates for many (params, alpha, scheme) requests.

    Every request reads trials [0, trials) of the seed's stream, so each
    chunk's unit draws are generated once and every request is counted on
    them: one kernel call per (params, alpha) group counts all of its
    schemes, and only integer counts are kept.  Memory stays at one chunk per
    worker whatever `trials` or the number of requests, and result i is
    bit-identical to estimate() on requests[i] for any worker count: chunks
    draw from disjoint trial-index ranges of the counter-based stream.
    With primary False no primary event is counted and every primary
    estimate is None.
    """
    check_run(trials, seed, workers)
    groups = {}   # (params, alpha) -> its distinct schemes, in request order
    for params, alpha, scheme in requests:
        check_request(alpha, scheme)
        groups.setdefault((params, alpha), {})[scheme] = None
    jobs = [(params, alpha, derive(params), tuple(schemes))
            for (params, alpha), schemes in groups.items()]
    chunks = [(start, min(_CHUNK_TRIALS, trials - start))
              for start in range(0, trials, _CHUNK_TRIALS)]
    workers = min(workers, len(chunks))

    def run(part):
        """Summed counts per request over a worker's chunks, in one buffer."""
        import numpy as np

        buf = np.empty(_DOUBLES_PER_TRIAL * min(_CHUNK_TRIALS, trials))
        totals = {(params, alpha, scheme): Counter()
                  for params, alpha, _, schemes in jobs for scheme in schemes}
        for start, n in part:
            e = _unit_block(seed, start, n,
                            out=buf[:_DOUBLES_PER_TRIAL * n].reshape(-1, n))
            for params, alpha, derived, schemes in jobs:
                for scheme, counts in zip(schemes, _count_group(
                        derived, alpha, schemes, e, primary)):
                    totals[params, alpha, scheme].update(counts)
        return totals

    if workers == 1:
        partials = [run(chunks)]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run, [chunks[w::workers]
                                           for w in range(workers)]))

    totals = {key: sum((part[key] for part in partials), Counter())
              for key in partials[0]}
    return [_scheme_estimates(scheme, trials, totals[params, alpha, scheme],
                              primary)
            for params, alpha, scheme in requests]


def estimate(params: SystemParams, alpha: float, trials: int, seed: int,
             scheme: str = "proposed", workers: int = 1) -> SchemeEstimates:
    """Monte Carlo outage estimates over independent per-trial streams.

    Deterministic for fixed (seed, trials, scenario, alpha, scheme) regardless
    of worker count; a one-request estimate_many().
    """
    return estimate_many(seed, trials, [(params, alpha, scheme)], workers)[0]


def _scheme_estimates(scheme: str, trials: int, totals: Counter,
                      primary: bool) -> SchemeEstimates:
    """Estimates of one request from its event counts over all trials."""

    def co(successes, n):
        if n == 0:
            return None
        return OutageEstimate.from_counts(successes, n)

    def pri(successes, n):
        return co(successes, n) if primary else None

    if scheme == "noncooperative":
        return SchemeEstimates(pri=pri(totals["pri"], trials),
                               sec=co(totals["sec"], trials))

    n_d1 = totals["d1"]
    n_d0 = trials - n_d1
    return SchemeEstimates(
        pri=pri(totals["pri_d0"] + totals["pri_d1"], trials),
        sec=co(totals["sec_d0"] + totals["sec_d1"], trials),
        p_d1=co(n_d1, trials),
        order_p=co(totals["order_p"], trials) if scheme == "proposed" else None,
        pri_d0=pri(totals["pri_d0"], n_d0),
        pri_d1=pri(totals["pri_d1"], n_d1),
        sec_d0=co(totals["sec_d0"], n_d0),
        sec_d1=co(totals["sec_d1"], n_d1),
    )
