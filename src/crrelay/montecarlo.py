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
every request of an estimate_many() call.  Each worker reads one
contiguous run of whole chunks from one Philox generator, keyed at the run's
first trial, so its chunks continue that stream and it never skips ahead.
Each worker allocates its chunk memory once, in _workspace(): a chunk's
draws are transposed into the draw buffer, viewed as (8, n), one
cache-sized sub-block of the stream at a time.  Requests on the same
scenario and split form a group, and one kernel call counts all of a
group's schemes, computing the SINR terms they share once and writing
them and its event masks into the kernel's vectors, so no chunk allocates
a trial vector.  It reads a unit-variance link's draws in place, never
writing to a draw row.
numpy is imported on the first draw, so the commands that never simulate
never load it.
"""

import math
from collections import Counter, namedtuple

from .system import LINKS, USER_LINKS, DerivedParams, SystemParams, derive

SCHEMES = ("proposed", "noncooperative", "relay_assisted_secondary")

_DOUBLES_PER_TRIAL = 8
_BLOCKS_PER_TRIAL = 2       # Philox counter blocks (4 doubles each) per trial
# Trials per chunk.  Bounds memory (see _workspace), never results; half as
# many would pay the kernel's fixed per-call cost too often.
_CHUNK_TRIALS = 1 << 14
# Trials per 128 KB sub-block of raw draws, transposed in cache; the only
# transient beside the chunk, one eighth of it.
_SUB_TRIALS = 1 << 11
_MANTISSA_BITS = 53         # a raw 64-bit draw keeps its top 53 bits
# A draw's largest multiple of its mean, 53 ln 2 ~ 36.7 (the largest unit
# draw), times the kernel's sums of two terms.
_HEADROOM = 2.0 ** 7


class OutageEstimate(namedtuple("OutageEstimate", "p_hat std_err trials")):
    """Binomial probability estimate with its normal-approximation error."""

    __slots__ = ()

    @classmethod
    def from_counts(cls, successes: int, trials: int) -> "OutageEstimate":
        p = successes / trials
        return cls(p_hat=p, std_err=math.sqrt(p * (1.0 - p) / trials),
                   trials=trials)

    def wilson(self, z: float = 3.0) -> tuple:
        """Wilson score interval; preferred over +-z*std_err for rare events.
        Its end at an estimate of exactly 0 or 1 is that value, not the
        rounded difference of two equal terms."""
        n, p = self.trials, self.p_hat
        denom = 1.0 + z * z / n
        center = (p + z * z / (2.0 * n)) / denom
        half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
        return (0.0 if p == 0.0 else max(0.0, center - half),
                1.0 if p == 1.0 else min(1.0, center + half))


class SchemeEstimates(namedtuple(
        "SchemeEstimates", "pri sec p_d1 order_p pri_d0 pri_d1 sec_d0 sec_d1",
        defaults=(None,) * 8)):
    """Per-scheme Monte Carlo estimates.

    pri/sec are total outage estimates.  p_d1 is the relay-activation
    frequency (the surrogate activation event for the relay-assisted
    baseline); None for the non-cooperative scheme.  order_p is the frequency
    of the primary-first SIC order (proposed scheme only).  Conditional
    estimates are None when their conditioning event never occurred.  Every
    primary estimate is None when the primary events were not counted.
    Each field is an OutageEstimate or None.
    """

    __slots__ = ()


def _philox(seed: int, start: int):
    """Philox bit generator over the seed's stream, positioned at trial start."""
    import numpy as np

    bit = np.random.Philox(key=seed)
    bit.advance(_BLOCKS_PER_TRIAL * start)
    return bit


def _unit_block(bit, n: int, out) -> "np.ndarray":
    """Unit-mean exponentials -log1p(-u) for the next n trials of `bit`,
    written into the flat draw buffer `out` viewed as (8, n): that view.

    Row k holds link LINKS[k]; a link's channel draws are its variance times
    its row.  Equal to -log1p(-u).T for u the (n, 8) doubles that numpy's
    Generator draws from the same generator state (the tests' oracle
    _uniform_block), which `bit` leaves n trials further on.  Read in
    cache-sized sub-blocks.  Each raw 64-bit draw keeps its top 53 bits,
    exactly a double, and times -2**-53 becomes -u, the generator's own
    uniform double with its sign flipped, every step exact.
    """
    import numpy as np

    e = out[:_DOUBLES_PER_TRIAL * n].reshape(_DOUBLES_PER_TRIAL, n)
    for s in range(0, n, _SUB_TRIALS):
        m = min(_SUB_TRIALS, n - s)
        raw = bit.random_raw(m * _DOUBLES_PER_TRIAL)
        raw >>= 64 - _MANTISSA_BITS
        # a plain cast; a ufunc that also scaled would cast through buffers
        e[:, s:s + m] = raw.reshape(m, _DOUBLES_PER_TRIAL).T
        del raw   # one sub-block alive at a time
    e *= -2.0 ** -_MANTISSA_BITS
    np.log1p(e, out=e)
    np.negative(e, out=e)
    return e


def _workspace(n: int) -> tuple:
    """A worker's chunk memory for chunks of up to n trials, its only trial
    vectors: the flat draw buffer of 8*n doubles that _unit_block fills (64 B
    per trial, 1 MB at _CHUNK_TRIALS), and _count_group's work, four float64
    and five bool vectors (37 B per trial, about 0.6 MB)."""
    import numpy as np

    return (np.empty(_DOUBLES_PER_TRIAL * n),
            (np.empty((4, n)), np.empty((5, n), dtype=bool)))


def _count_group(derived: DerivedParams, alpha: float, schemes, e,
                 primary: bool, work) -> list:
    """Integer event counts of each scheme in `schemes` over a chunk of draws.

    All schemes run on one scenario and split, so the SINR terms they share
    (the relay's x and y, each user's direct SINR and its parts, the
    repeated-copy events) are computed once, each by the same operations on
    the same operands, in the same order, as a scheme's own printed
    expression (commuted operands aside, which IEEE arithmetic keeps exact).
    One loop runs over the users, each reading its links from USER_LINKS.
    Row k of `e` holds link LINKS[k]'s unit draws.  Each count is keyed by
    the SchemeEstimates field it fills; secondary events are always counted,
    primary ones when `primary`.  Every scaled link, SINR term and event
    mask is written through ufunc `out=` arguments into `work`, the kernel's
    vectors of a _workspace() at least as long as the chunk, so a call
    allocates no trial vector.  A unit-variance link is read in place
    (1.0 * row is row), and no row of `e` is ever written.  The
    repeated-copy event 2*sinr < lambda is counted as sinr < lambda/2, exact
    as check_scenario keeps sinr finite and lambda is at least 2**-52.
    """
    import numpy as np

    p = derived.params
    snr_p, snr_s, snr_r = p.snr_p, derived.snr_s, p.snr_r
    lp, ls = derived.lambda_p, derived.lambda_s
    m = e.shape[1]
    floats, bools = work
    f1, f2, f3, t = (v[:m] for v in floats)
    b1, b2, b3, b4, b5 = (v[:m] for v in bools)

    def g(name, out):
        """Link `name`'s draws: its unit row, or its variance times it."""
        var, row = getattr(p.link_vars, name), e[LINKS.index(name)]
        return row if var == 1.0 else np.multiply(var, row, out=out)

    def n(mask):
        return int(np.count_nonzero(mask))

    counts = {scheme: {} for scheme in schemes}
    active = {}   # relay-activation event of each relayed scheme
    proposed = "proposed" in counts
    surrogate = "relay_assisted_secondary" in counts
    if proposed or surrogate:
        x = np.multiply(snr_p, g("pr", f1), out=f1)
        y = np.multiply(snr_s, g("sr", f2), out=f2)
        np.add(x, 1.0, out=t)
        t *= ls
        s_first = np.greater_equal(y, t, out=b1)   # y >= ls * (1 + x)
        if surrogate:
            # Surrogate baseline: the relay activates when it decodes the
            # secondary signal through the primary interference; it then
            # forwards it at full power while the primary transmitter
            # repeats, so the primary's second copy sees the relay as
            # interference.  Counted first below, while den is still live.
            active["relay_assisted_secondary"] = s_first
        if proposed:
            c_p = np.greater(x, y, out=b2)
            counts["proposed"]["order_p"] = n(c_p)
            # c_p & (x >= lp * (1 + y)) & (y >= ls), or else (y > x, which
            # implies ~c_p) & s_first & (x >= lp); boolean ops are exact
            np.add(y, 1.0, out=t)
            t *= lp
            d1 = np.greater_equal(x, t, out=b3)
            d1 &= c_p
            d1 &= np.greater_equal(y, ls, out=b4)
            s_side = np.greater(y, x, out=b2)
            s_side &= s_first
            s_side &= np.greater_equal(x, lp, out=b4)
            d1 |= s_side
            active["proposed"] = d1
    for scheme, d1 in active.items():
        counts[scheme]["p_d1"] = n(d1)

    # per user: SNR, interfering SNR, theta, lambda, relay share and the rest
    rows = {
        "primary": (snr_p, snr_s, derived.theta_p, lp, alpha, 1.0 - alpha),
        "secondary": (snr_s, snr_p, derived.theta_s, ls, 1.0 - alpha, alpha)}
    for user, (sig, cross, relay) in USER_LINKS.items():
        if user == "primary" and not primary:
            continue
        snr, snr_i, theta, lam, share, rest = rows[user]
        key = user[:3]   # the SchemeEstimates fields pri* or sec*
        num = np.multiply(snr, g(sig, f1), out=f1)
        den = np.multiply(snr_i, g(cross, f2), out=f2)
        den += 1.0
        sinr = np.divide(num, den, out=f3)
        if "noncooperative" in counts:
            counts["noncooperative"][key] = n(np.less(sinr, theta, out=b2))
        if not active:
            continue
        repeated = np.less(sinr, 0.5 * lam, out=b4)   # 2 * sinr < lam
        for scheme, d1 in active.items():
            g_r = g(relay, t)
            if scheme == "proposed":
                # sinr + share * snr_r * g_r / (rest * snr_r * g_r + 1.0), in
                # den's vector: the surrogate, counted first, read it last
                q = np.multiply(rest * snr_r, g_r, out=f2)
                q += 1.0
                r = np.multiply(share * snr_r, g_r, out=t)
                r /= q
                r += sinr
            else:
                r = np.multiply(snr_r, g_r, out=t)
                if user == "primary":   # sinr + num / (snr_r * g_r + 1.0)
                    r += 1.0
                    np.divide(num, r, out=r)
                    r += sinr
                else:                   # (num + snr_r * g_r) / den
                    r += num
                    r /= den
            relayed = np.less(r, lam, out=b2)
            relayed &= d1
            silent = np.invert(d1, out=b5)
            silent &= repeated
            c = counts[scheme]
            c[f"{key}_d1"] = n(relayed)
            c[f"{key}_d0"] = n(silent)
            c[key] = c[f"{key}_d1"] + c[f"{key}_d0"]
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


def check_scenario(derived: DerivedParams) -> None:
    """Raise ValueError for a scenario whose draws can overflow the kernel:
    one where a link's variance (its draws before the SNR scales them) or
    mean gain times _HEADROOM and the largest 1 + lambda is not finite."""
    scale = _HEADROOM * (1.0 + max(derived.lambda_p, derived.lambda_s))
    for name in LINKS:
        var = getattr(derived.params.link_vars, name)
        gain = getattr(derived.gain, name)
        if not math.isfinite(scale * max(var, gain)):
            what = "variance" if var > gain else "mean gain"
            raise ValueError(f"{what} of link {name} overflows a simulated "
                             "draw")


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
    schemes, and only integer counts are kept.  Memory stays at one
    _workspace() per worker (about 1.6 MB), which every chunk and group
    reuses, whatever `trials` or the number of requests.  Of the call's n
    chunks, worker w of W counts chunks [n*w//W, n*(w+1)//W) on one
    generator that continues its stream from chunk to chunk, and result i is
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
    for _, _, derived, _ in jobs:
        check_scenario(derived)
    starts = range(0, trials, _CHUNK_TRIALS)
    workers = min(workers, len(starts))

    def run(part):
        """Summed counts per request over a worker's run of chunks, from
        one generator into one workspace."""
        buf, work = _workspace(min(_CHUNK_TRIALS, trials))
        totals = {(params, alpha, scheme): Counter()
                  for params, alpha, _, schemes in jobs for scheme in schemes}
        bit = _philox(seed, part[0])
        for start in part:
            n = min(_CHUNK_TRIALS, trials - start)
            e = _unit_block(bit, n, buf)
            for params, alpha, derived, schemes in jobs:
                for scheme, counts in zip(schemes, _count_group(
                        derived, alpha, schemes, e, primary, work)):
                    totals[params, alpha, scheme].update(counts)
        return totals

    if workers == 1:
        partials = [run(starts)]
    else:
        from concurrent.futures import ThreadPoolExecutor

        n = len(starts)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run, [
                starts[n * w // workers:n * (w + 1) // workers]
                for w in range(workers)]))

    # update keeps zero counts, which `+` drops: a 0.0 estimate stays 0.0
    totals = partials[0]
    for part in partials[1:]:
        for key, counts in part.items():
            totals[key].update(counts)
    return [_scheme_estimates(trials, totals[request]) for request in requests]


def estimate(params: SystemParams, alpha: float, trials: int, seed: int,
             scheme: str = "proposed", workers: int = 1) -> SchemeEstimates:
    """Monte Carlo outage estimates over independent per-trial streams.

    Deterministic for fixed (seed, trials, scenario, alpha, scheme) regardless
    of worker count; a one-request estimate_many().
    """
    return estimate_many(seed, trials, [(params, alpha, scheme)], workers)[0]


def _scheme_estimates(trials: int, counts: Counter) -> SchemeEstimates:
    """Estimates of one request, each count filling the field of its name: a
    conditional one over the trials in its relay state (None when there were
    none), every other one over all trials."""
    n_d1 = counts["p_d1"]
    conditioned = {"pri_d0": trials - n_d1, "sec_d0": trials - n_d1,
                   "pri_d1": n_d1, "sec_d1": n_d1}
    return SchemeEstimates(**{
        name: OutageEstimate.from_counts(k, n) for name, k in counts.items()
        if (n := conditioned.get(name, trials))})
