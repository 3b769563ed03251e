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
every request of an estimate_many() call, each kernel scaling the links it
reads.  A chunk's draws are transposed into their (8, n) layout one
cache-sized sub-block of the stream at a time, so memory stays at one chunk
(plus one sub-block) per worker however many trials or requests.  numpy is
imported on the first draw, so the commands that never simulate never load it.
"""

import math
from collections import Counter
from dataclasses import dataclass

from .system import LINKS, DerivedParams, SystemParams, derive

SCHEMES = ("proposed", "noncooperative", "relay_assisted_secondary")

_DOUBLES_PER_TRIAL = 8
_BLOCKS_PER_TRIAL = 2       # Philox counter blocks (4 doubles each) per trial
# Trials per chunk.  Bounds memory, never results: a chunk holds its unit
# draws (64 B per trial) and the few trial vectors one request's kernel needs
# on top of them.
_CHUNK_TRIALS = 1 << 16
_SUB_TRIALS = 1 << 12       # trials per 256 KB sub-block, transposed in cache


@dataclass(frozen=True)
class OutageEstimate:
    """Binomial probability estimate with its normal-approximation error."""

    p_hat: float
    std_err: float
    trials: int
    seed: int

    @classmethod
    def from_counts(cls, successes: int, trials: int, seed: int) -> "OutageEstimate":
        p = successes / trials
        return cls(p_hat=p, std_err=math.sqrt(p * (1.0 - p) / trials),
                   trials=trials, seed=seed)

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
    estimates are None when their conditioning event never occurred.
    """

    scheme: str
    alpha: float
    trials: int
    seed: int
    pri: OutageEstimate
    sec: OutageEstimate
    p_d1: OutageEstimate | None = None
    order_p: OutageEstimate | None = None
    pri_d0: OutageEstimate | None = None
    pri_d1: OutageEstimate | None = None
    sec_d0: OutageEstimate | None = None
    sec_d1: OutageEstimate | None = None


def _generator(seed: int, start: int):
    """Philox generator over the seed's stream, positioned at trial start."""
    import numpy as np

    bit = np.random.Philox(key=seed)
    bit.advance(_BLOCKS_PER_TRIAL * start)
    return np.random.Generator(bit)


def _uniform_block(seed: int, start: int, n: int) -> "np.ndarray":
    """Uniform doubles for trials [start, start+n), shape (n, 8)."""
    u = _generator(seed, start).random(n * _DOUBLES_PER_TRIAL)
    return u.reshape(n, _DOUBLES_PER_TRIAL)


def _unit_block(seed: int, start: int, n: int) -> "np.ndarray":
    """Unit-mean exponentials -log1p(-u) for trials [start, start+n).

    Shape (8, n), C-contiguous, row k holding link LINKS[k]; a link's channel
    draws are its variance times its row.  Equal to -log1p(-u).T for u =
    _uniform_block(seed, start, n), read in cache-sized sub-blocks.
    """
    import numpy as np

    gen = _generator(seed, start)
    e = np.empty((_DOUBLES_PER_TRIAL, n))
    for s in range(0, n, _SUB_TRIALS):
        m = min(_SUB_TRIALS, n - s)
        u = gen.random(m * _DOUBLES_PER_TRIAL).reshape(m, _DOUBLES_PER_TRIAL)
        np.negative(u.T, out=e[:, s:s + m])
    np.log1p(e, out=e)
    np.negative(e, out=e)
    return e


def _count_chunk(derived: DerivedParams, alpha: float, scheme: str,
                 e: "np.ndarray") -> dict:
    """Integer event counts of one scheme over a chunk of unit draws.

    Scales only the links the scheme reads and drops each scaled link and
    temporary after its last use, so evaluating a request adds a few trial
    vectors to the chunk's working set.
    """
    import numpy as np

    p = derived.params
    snr_p, snr_s, snr_r = p.snr_p, derived.snr_s, p.snr_r
    lp, ls = derived.lambda_p, derived.lambda_s

    def g(name):
        return getattr(p.link_vars, name) * e[LINKS.index(name)]

    if scheme == "noncooperative":
        v = snr_p * g("pp") / (snr_s * g("sp") + 1.0)
        pri = int(np.count_nonzero(v < derived.theta_p))
        del v
        u = snr_s * g("ss") / (snr_p * g("ps") + 1.0)
        return {"pri": pri, "sec": int(np.count_nonzero(u < derived.theta_s))}

    x = snr_p * g("pr")
    y = snr_s * g("sr")
    if scheme == "proposed":
        c_p = x > y
        # boolean selects: np.where on bool arrays costs ~25x more
        d1 = ((c_p & ((x >= lp * (1.0 + y)) & (y >= ls)))
              | (~c_p & ((y > x) & (y >= ls * (1.0 + x)) & (x >= lp))))
        del x, y
        v = snr_p * g("pp") / (snr_s * g("sp") + 1.0)
        rp = g("rp")
        w_p = alpha * snr_r * rp / ((1.0 - alpha) * snr_r * rp + 1.0)
        del rp
        pri1, pri0 = v + w_p < lp, 2.0 * v < lp
        del v, w_p
        u = snr_s * g("ss") / (snr_p * g("ps") + 1.0)
        rs = g("rs")
        w_s = (1.0 - alpha) * snr_r * rs / (alpha * snr_r * rs + 1.0)
        del rs
        sec1, sec0 = u + w_s < ls, 2.0 * u < ls
    elif scheme == "relay_assisted_secondary":
        # Surrogate baseline: the relay activates when it decodes the
        # secondary signal through the primary interference; it then forwards
        # it at full power while the primary transmitter repeats, so the
        # primary's second copy sees the relay as interference.
        d1 = y >= ls * (1.0 + x)
        del x, y
        pp = g("pp")
        v = snr_p * pp / (snr_s * g("sp") + 1.0)
        pri_mrc = v + snr_p * pp / (snr_r * g("rp") + 1.0)
        del pp
        pri1, pri0 = pri_mrc < lp, 2.0 * v < lp
        del v, pri_mrc
        ss, ps = g("ss"), g("ps")
        u = snr_s * ss / (snr_p * ps + 1.0)
        sec_mrc = (snr_s * ss + snr_r * g("rs")) / (snr_p * ps + 1.0)
        del ss, ps
        sec1, sec0 = sec_mrc < ls, 2.0 * u < ls
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    counts = {
        "d1": int(np.count_nonzero(d1)),
        "pri_d1": int(np.count_nonzero(d1 & pri1)),
        "sec_d1": int(np.count_nonzero(d1 & sec1)),
        "pri_d0": int(np.count_nonzero(~d1 & pri0)),
        "sec_d0": int(np.count_nonzero(~d1 & sec0)),
    }
    if scheme == "proposed":
        counts["order_p"] = int(np.count_nonzero(c_p))
    return counts


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


def estimate_many(seed: int, trials: int, requests, workers: int = 1) -> list:
    """Monte Carlo outage estimates for many (params, alpha, scheme) requests.

    Every request reads trials [0, trials) of the seed's stream, so each
    chunk's unit draws are generated once and every request's kernel runs on
    them; only integer counts are kept per request.  Memory stays at one
    chunk per worker whatever `trials` or the number of requests, and result
    i is bit-identical to estimate() on requests[i] for any worker count:
    chunks draw from disjoint trial-index ranges of the counter-based stream.
    """
    check_run(trials, seed, workers)
    for _, alpha, scheme in requests:
        check_request(alpha, scheme)

    jobs = [(derive(params), alpha, scheme)
            for params, alpha, scheme in requests]
    chunks = [(start, min(_CHUNK_TRIALS, trials - start))
              for start in range(0, trials, _CHUNK_TRIALS)]

    def run(chunk):
        e = _unit_block(seed, *chunk)
        return [_count_chunk(derived, alpha, scheme, e)
                for derived, alpha, scheme in jobs]

    if workers == 1 or len(chunks) == 1:
        partials = [run(c) for c in chunks]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run, chunks))

    totals = [Counter() for _ in jobs]
    for part in partials:
        for total, counts in zip(totals, part):
            total.update(counts)
    return [_scheme_estimates(scheme, alpha, trials, seed, total)
            for (_, alpha, scheme), total in zip(jobs, totals)]


def estimate(params: SystemParams, alpha: float, trials: int, seed: int,
             scheme: str = "proposed", workers: int = 1) -> SchemeEstimates:
    """Monte Carlo outage estimates over independent per-trial streams.

    Deterministic for fixed (seed, trials, scenario, alpha, scheme) regardless
    of worker count; a one-request estimate_many().
    """
    return estimate_many(seed, trials, [(params, alpha, scheme)], workers)[0]


def _scheme_estimates(scheme: str, alpha: float, trials: int, seed: int,
                      totals: Counter) -> SchemeEstimates:
    """Estimates of one request from its event counts over all trials."""

    def co(successes, n):
        if n == 0:
            return None
        return OutageEstimate.from_counts(successes, n, seed)

    if scheme == "noncooperative":
        return SchemeEstimates(
            scheme=scheme, alpha=alpha, trials=trials, seed=seed,
            pri=co(totals["pri"], trials), sec=co(totals["sec"], trials),
        )

    n_d1 = totals["d1"]
    n_d0 = trials - n_d1
    return SchemeEstimates(
        scheme=scheme, alpha=alpha, trials=trials, seed=seed,
        pri=co(totals["pri_d0"] + totals["pri_d1"], trials),
        sec=co(totals["sec_d0"] + totals["sec_d1"], trials),
        p_d1=co(n_d1, trials),
        order_p=co(totals["order_p"], trials) if scheme == "proposed" else None,
        pri_d0=co(totals["pri_d0"], n_d0),
        pri_d1=co(totals["pri_d1"], n_d1),
        sec_d0=co(totals["sec_d0"], n_d0),
        sec_d1=co(totals["sec_d1"], n_d1),
    )
