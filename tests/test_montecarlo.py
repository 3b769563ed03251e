import math
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import crrelay
from crrelay import (
    LinkTable,
    SystemParams,
    allocate,
    cond_outage_d0,
    cond_outage_d1_exact,
    db_to_linear,
    default_params,
    derive,
    estimate,
    estimate_many,
    noncoop_outage,
    prob_relay_active,
    prob_relay_active_exact,
)
from crrelay.harness import _mc_check
from crrelay.montecarlo import (
    _CHUNK_TRIALS,
    _SUB_TRIALS,
    SCHEMES,
    OutageEstimate,
    _count_group,
    _philox,
    _unit_block,
    _workspace,
)
from crrelay.system import LINKS, USER_LINKS
from conftest import (_uniform_block, exact_oracles, link_draws, link_table,
                      replay_counts, symmetric_relay_params)


# ---- estimates --------------------------------------------------------------

def test_outage_estimate_fields():
    est = OutageEstimate.from_counts(25, 1000)
    assert est.p_hat == 0.025
    assert est.std_err == pytest.approx(math.sqrt(0.025 * 0.975 / 1000))
    lo, hi = est.wilson(z=3.0)
    assert 0.0 <= lo < est.p_hat < hi <= 1.0


def test_outage_estimate_degenerate_wilson():
    est = OutageEstimate.from_counts(0, 100)
    lo, hi = est.wilson()
    assert lo == 0.0 and hi > 0.0
    # at p_hat 0 the lower end is exactly 0 and at p_hat 1 the upper end is
    # exactly 1, not the rounded difference of two equal terms (5.55e-17 at
    # n = 1, 0.9999999999999999 at n = 21)
    for n in range(1, 2001):
        assert OutageEstimate.from_counts(0, n).wilson()[0] == 0.0
        assert OutageEstimate.from_counts(n, n).wilson()[1] == 1.0


# ---- channel sampling --------------------------------------------------------

def test_unit_block_scales_to_inversion_draws(table1):
    # var * (-log1p(-u)) is bit-identical to -var * log1p(-u) on every link,
    # also from an offset start and over a partial last chunk
    u = _uniform_block(9, 1000, 300_001)
    e = _unit_block(_philox(9, 1000), 300_001)
    assert e.shape == (8, 300_001) and e.flags["C_CONTIGUOUS"]
    for k, name in enumerate(LINKS):
        var = getattr(table1.link_vars, name)
        assert np.array_equal(var * e[k], -var * np.log1p(-u[:, k]))


@pytest.mark.parametrize("n", sorted({
    1, _SUB_TRIALS - 1, _SUB_TRIALS, _SUB_TRIALS + 1, 2 * _SUB_TRIALS + 17,
    _CHUNK_TRIALS, 2 * _CHUNK_TRIALS,
    # the same edges at 4,096-trial sub-blocks and 32,768-trial chunks
    4095, 4096, 4097, 8209, 32_768, 65_536}))
def test_unit_block_matches_uniforms_across_sub_blocks(n):
    # the sub-blocked transpose continues one stream: every trial reads the
    # same uniforms as the (n, 8) block, also from an odd start
    start = 4099
    e = _unit_block(_philox(3, start), n)
    assert e.shape == (8, n) and e.flags["C_CONTIGUOUS"]
    assert np.array_equal(e, -np.log1p(-_uniform_block(3, start, n)).T)


def test_counts_do_not_depend_on_numpys_log1p(table1):
    # numpy's vectorized log1p may differ from the C library's in the last
    # bit; chunk 0 of seed 0 rebuilt with math.log1p counts the same events
    # for every scheme
    u = _uniform_block(0, 0, _CHUNK_TRIALS)
    e_libm = np.array([-math.log1p(-x) for x in u.ravel().tolist()])
    e_libm = e_libm.reshape(u.shape).T
    e = _unit_block(_philox(0, 0), _CHUNK_TRIALS)
    for params, alpha in ((default_params(), 0.5), (default_params(), 1.0),
                          (table1, allocate(table1).alpha)):
        d = derive(params)
        assert (_count_group(d, alpha, SCHEMES, e_libm)
                == _count_group(d, alpha, SCHEMES, e))


def test_unit_block_peak_memory_stays_near_its_output():
    # the chunk is written in place from cache-sized sub-blocks; a full-size
    # uniform temporary next to the output would double the peak.  A small
    # draw first imports numpy.random outside the traced window
    _unit_block(_philox(4, 0), 1)
    bit = _philox(4, 0)
    tracemalloc.start()
    try:
        e = _unit_block(bit, _CHUNK_TRIALS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * e.nbytes


def test_count_group_with_a_workspace_allocates_no_trial_vector(
        table1_derived):
    # every SINR term, event mask and count is written into the workspace,
    # so a full chunk's kernel call allocates less than one float vector
    e = _unit_block(_philox(4, 0), _CHUNK_TRIALS)
    work = _workspace(_CHUNK_TRIALS)
    first = _count_group(table1_derived, 0.37, SCHEMES, e, True, work)
    tracemalloc.start()
    try:
        counts = _count_group(table1_derived, 0.37, SCHEMES, e, True, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == first == _count_group(table1_derived, 0.37, SCHEMES, e)
    assert peak < 8 * _CHUNK_TRIALS


def test_fresh_process_faults_do_not_grow_with_the_chunk_count():
    # the kernel reuses one workspace per worker, so a fresh process takes
    # no page faults per chunk: 1e6 trials (62 chunks) fault about as many
    # pages as 2e5 (13 chunks), after a warm-up that loads numpy
    pytest.importorskip("resource")
    code = ("import resource, sys\n"
            "from crrelay import default_params, estimate\n"
            "estimate(default_params(), 0.5, 1000, seed=3)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "estimate(default_params(), 0.5, int(sys.argv[1]), seed=3)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt "
            "- before)\n")
    few, many = (int(run_fresh(code, str(trials)))
                 for trials in (200_000, 1_000_000))
    assert many - few <= 200, (few, many)


def test_import_does_not_load_numpy_random():
    # numpy.random is loaded only when a simulation draws; commands that
    # never simulate do not pay its import time and memory
    src = str(Path(crrelay.__file__).resolve().parents[1])
    code = "import sys, crrelay; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "False"


def run_fresh(code, *args, flags=()):
    """Standard output of `code` run with `args` in a fresh interpreter
    started with the interpreter options `flags`."""
    src = str(Path(crrelay.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *flags, "-c", code, *args], cwd=src,
                          check=True, capture_output=True, text=True,
                          timeout=120).stdout


# main(argv) with its stdout discarded, then whether numpy got loaded
_MAIN_LOADS_NUMPY = (
    "import contextlib, io, sys\n"
    "from crrelay.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    rc = main(sys.argv[1:])\n"
    "print(rc, 'numpy' in sys.modules)\n"
)


def test_import_loads_no_numpy():
    # the simulator imports numpy and its thread pool on first use, so the
    # package and its CLI start without numpy, concurrent.futures or logging
    code = ("import sys, crrelay, crrelay.cli; print(sorted(m for m in "
            "('numpy', 'concurrent.futures', 'logging') if m in sys.modules))")
    assert run_fresh(code).strip() == "[]"


def test_import_loads_no_dataclasses_inspect_typing_or_csv():
    # records are namedtuples and csv is imported where CSV bytes are
    # written, so a cold start skips these modules; -S keeps site-packages'
    # .pth files, which may import typing, out of the count
    code = ("import sys, crrelay, crrelay.cli; print(sorted(m for m in "
            "('dataclasses', 'inspect', 'typing', 'csv') if m in sys.modules))")
    assert run_fresh(code, flags=("-S",)).strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["allocate"],
    ["analytic", "--alpha", "1"],
    ["region"],
    ["reproduce", "--target", "fig2"],
    ["sweep", "--axis", "snr_p_db", "--start", "19", "--stop", "21",
     "--step", "1", "--mode", "analytic"],
], ids=["allocate", "analytic", "region", "reproduce-fig2", "sweep-analytic"])
def test_non_simulating_commands_load_no_numpy(argv, tmp_path):
    out = run_fresh(_MAIN_LOADS_NUMPY, "--out-dir", str(tmp_path), *argv)
    assert out.split() == ["0", "False"]


def test_simulate_loads_numpy():
    out = run_fresh(_MAIN_LOADS_NUMPY, "--trials", "1000", "simulate")
    assert out.split() == ["0", "True"]


def test_first_numpy_import_in_worker_threads_keeps_estimates():
    # with 2 workers the first draws, and so the first numpy import, happen
    # inside the pool's threads
    code = "import sys; from crrelay.cli import main; sys.exit(main(sys.argv[1:]))"
    runs = [run_fresh(code, "--workers", w, "--trials", "200000", "simulate")
            for w in ("1", "2")]
    assert runs[0].startswith("scheme=proposed") and runs[1] == runs[0]


def test_channel_block_means(table1):
    g = link_draws(table1, seed=21, start=0, n=1_000_000)
    assert g["pp"].mean() == pytest.approx(1.0, abs=0.003)
    assert g["sp"].mean() == pytest.approx(0.1, abs=0.001)


def test_channel_tail_probability(table1):
    # exponential tail at one sigma-squared of 0.1: P(g > 0.2) = exp(-2)
    g = link_draws(table1, seed=22, start=0, n=1_000_000)
    tail = float(np.mean(g["sp"] > 0.2))
    assert tail == pytest.approx(math.exp(-2.0), abs=0.0011)


def test_channel_independence(table1):
    g = link_draws(table1, seed=23, start=0, n=1_000_000)
    r = np.corrcoef(g["pp"], g["ss"])[0, 1]
    assert abs(r) < 0.005


def test_scalar_sampling_matches_block(table1):
    # one trial drawn on its own gets the channel gains of its row in a block
    block = link_draws(table1, seed=9, start=0, n=40)
    for i in (0, 1, 17, 39):
        draw = link_draws(table1, seed=9, start=i, n=1)
        for name in LINKS:
            assert draw[name][0] == block[name][i]


def test_stream_is_partition_invariant():
    whole = _uniform_block(5, 0, 1000)
    parts = np.vstack([_uniform_block(5, 0, 137), _uniform_block(5, 137, 463),
                       _uniform_block(5, 600, 400)])
    assert np.array_equal(whole, parts)


def test_stream_rejects_negative_seed():
    with pytest.raises(ValueError):
        _uniform_block(-1, 0, 10)


# ---- slot-level behavior ------------------------------------------------------

def unit_column(params, **draw):
    """(8, 1) unit draws of one trial whose channel draws are the given
    squared magnitudes: each entry is the magnitude over its link variance."""
    return np.array([[draw[name] / getattr(params.link_vars, name)]
                     for name in LINKS])


def test_relay_decision_no_signal(table1, table1_derived):
    e = unit_column(table1, pp=1, sp=1, ps=1, ss=1, pr=0.0, sr=0.0, rp=1, rs=1)
    counts = _count_group(table1_derived, 0.5, ("proposed",), e)[0]
    assert counts["p_d1"] == 0 and counts["order_p"] == 0


def test_relay_decision_strong_signals(table1, table1_derived):
    e = unit_column(table1, pp=1, sp=1, ps=1, ss=1, pr=100.0, sr=50.0,
                    rp=1, rs=1)
    counts = _count_group(table1_derived, 0.5, ("proposed",), e)[0]
    assert counts["p_d1"] == 1 and counts["order_p"] == 1


def test_relay_decision_orders_are_exclusive(table1, table1_derived):
    # replay the decision from the printed events; the two branches can never
    # fire on the same draw
    d = table1_derived
    g = link_draws(table1, seed=31, start=0, n=4000)
    e = _unit_block(_philox(31, 0), 4000)
    for i in range(4000):
        x = table1.snr_p * float(g["pr"][i])
        y = d.snr_s * float(g["sr"][i])
        p_branch = x > y and x >= d.lambda_p * (1 + y) and y >= d.lambda_s
        s_branch = y > x and y >= d.lambda_s * (1 + x) and x >= d.lambda_p
        assert not (p_branch and s_branch)
        counts = _count_group(d, 0.5, ("proposed",), e[:, i:i + 1])[0]
        assert counts["p_d1"] == (p_branch or s_branch)
        assert counts["order_p"] == (x > y)


def test_simulate_slot_matches_estimate_counts(table1):
    # a plain-Python replay of the printed events and the vectorized counting
    # path must agree trial by trial
    n, seed, alpha = 3000, 13, 0.7
    d1, pri, sec = replay_counts(table1, alpha, seed, n)
    est = estimate(table1, alpha, n, seed)
    assert est.pri.p_hat == pri / n
    assert est.sec.p_hat == sec / n
    assert est.p_d1.p_hat == d1 / n


@pytest.mark.parametrize("scheme", SCHEMES)
def test_estimate_matches_replay_across_sub_blocks(table1, scheme):
    # two whole sub-blocks and a ragged tail, every scheme, both extreme
    # splits and one interior split
    n = 2 * _SUB_TRIALS + 17
    for alpha in (0.0, 0.5, 1.0):
        d1, pri, sec = replay_counts(table1, alpha, 29, n, scheme)
        est = estimate(table1, alpha, n, 29, scheme)
        assert (est.pri.p_hat, est.sec.p_hat) == (pri / n, sec / n)
        if scheme != "noncooperative":
            assert est.p_d1.p_hat == d1 / n


@pytest.mark.parametrize("primary", [True, False])
def test_unit_variance_kernel_matches_replay(primary):
    # at unit variance the kernel reads every link's draw row in place; one
    # call counting all schemes must match each scheme's own replay and
    # leave the rows it read untouched
    params = default_params()._replace(link_vars=link_table())
    d = derive(params)
    n, seed = 2 * _SUB_TRIALS + 17, 23
    e = _unit_block(_philox(seed, 0), n)
    draws = e.copy()
    work = _workspace(n)
    for alpha in (0.0, 0.37, 1.0):
        for scheme, c in zip(SCHEMES, _count_group(d, alpha, SCHEMES, e,
                                                   primary, work)):
            d1, pri, sec = replay_counts(params, alpha, seed, n, scheme)
            assert c["sec"] == sec
            assert c.get("pri") == (pri if primary else None)
            if scheme != "noncooperative":
                assert c["p_d1"] == d1
        assert np.array_equal(e, draws)


def test_simulate_slot_alpha_one_relay_term(table1, table1_derived):
    # with all relay power on the primary, a huge relay-to-primary channel
    # makes a primary outage impossible
    draw = dict(pp=1e-9, sp=1, ps=1, ss=1, pr=100.0, sr=50.0, rp=1e9, rs=1e9)
    counts = _count_group(table1_derived, 1.0, ("proposed",),
                          unit_column(table1, **draw))[0]
    assert counts["p_d1"] == 1 and counts["pri_d1"] == 0
    # and the secondary gets nothing from the relay
    counts2 = _count_group(table1_derived, 1.0, ("proposed",),
                           unit_column(table1, **{**draw, "ss": 1e-9}))[0]
    assert counts2["p_d1"] == 1 and counts2["sec_d1"] == 1


def test_simulate_slot_interior_alpha_saturates(table1, table1_derived):
    # the relayed SINR share saturates at alpha/(1-alpha) however strong the
    # relay channel is
    alpha = 0.3
    e = unit_column(table1, pp=1e-12, sp=1, ps=1, ss=1, pr=100.0, sr=50.0,
                    rp=1e12, rs=1e12)
    counts = _count_group(table1_derived, alpha, ("proposed",), e)[0]
    # alpha/(1-alpha) = 0.4286 < lambda_p = 0.7411: outage despite the relay
    assert counts["p_d1"] == 1 and counts["pri_d1"] == 1


# ---- activation frequency ----------------------------------------------------

def test_activation_frequency_matches_event_integral():
    # literal-event activation probability at the symmetric scenario,
    # computed exactly by integration (prob_relay_active_exact): 0.9379556;
    # the paper's two-branch form gives 0.9285694 and is an approximation
    params = symmetric_relay_params()
    est = estimate(params, 0.5, 400_000, seed=17)
    exact = 0.93795556549265756
    assert abs(est.p_d1.p_hat - exact) <= 3.0 * est.p_d1.std_err
    formula = prob_relay_active(derive(params))
    assert formula == pytest.approx(0.9285694409613031, rel=1e-12)
    assert est.p_d1.p_hat - formula > 10.0 * est.p_d1.std_err


# ---- oracle agreement with the closed forms ----------------------------------

def _wide_scenarios(rng, count):
    """Admitted scenarios with link variances log-uniform in 10^(+-1), snr_p
    in 5-35 dB, snr_r in -10-30 dB, epsilon in 0.01-0.1, rates in 0.1-0.5."""
    scenarios = []
    while len(scenarios) < count:
        params = SystemParams(
            rate_p=rng.uniform(0.1, 0.5), rate_s=rng.uniform(0.1, 0.5),
            snr_p=db_to_linear(rng.uniform(5.0, 35.0)),
            snr_r=db_to_linear(rng.uniform(-10.0, 30.0)),
            epsilon=rng.uniform(0.01, 0.1),
            link_vars=LinkTable(
                **{name: 10.0 ** rng.uniform(-1.0, 1.0) for name in LINKS}))
        if derive(params).snr_s > 0.0:
            scenarios.append(params)
    return scenarios


def test_wide_oracle_over_random_scenarios():
    # the exact activation form and the exact ORACLES rows, ten closed forms
    # on each of 100 random admitted scenarios against one simulation,
    # two-sided at the Bonferroni threshold for 1,000 comparisons at
    # family-wise level 1e-3; a conditional whose event never occurred is
    # skipped
    seed, z_max = 26, 4.89
    scenarios = _wide_scenarios(random.Random(seed), 100)
    requests = [(params, alpha, scheme) for params in scenarios
                for alpha, scheme in ((0.0, "proposed"), (1.0, "proposed"),
                                      (0.0, "noncooperative"))]
    estimates = iter(estimate_many(seed, 200_000, requests))
    comparisons = []
    for k, (at0, at1, nc) in enumerate(zip(estimates, estimates, estimates)):
        d = derive(scenarios[k])
        forms = [("exact activation", at1.p_d1, prob_relay_active_exact(d)),
                 *exact_oracles(d, at0, at1, nc)]
        comparisons += [
            (abs(est.p_hat - ref) / est.std_err if est.std_err else 0.0,
             _mc_check(f"scenario {k}, {name}", est, ref, z_max=z_max))
            for name, est, ref in forms if est is not None]
    # the plain |z| only picks the comparison to print (a zero-spread
    # estimate ranks last); _mc_check's verdict alone passes or fails
    worst_z, worst = max(comparisons, key=lambda c: c[0])
    print(f"wide oracle: {len(comparisons)} comparisons, worst "
          f"|z|={worst_z:.2f} ({worst.name}: {worst.detail})")
    failed = [check for _, check in comparisons if check.verdict == "FAIL"]
    assert not failed, failed


def test_ratio_outage_tails_against_conditional_monte_carlo():
    # the event counter cannot check an outage near 1/trials: at ss variance
    # 1e6 the secondary's relay-silent outage is about 2e-8 and 1e6 trials
    # see no event.  Given the interfering draw E2, a ratio outage's event
    # has probability -expm1(-t*(g_c*E2 + 1)/g), and its average over the
    # trials keeps a relative error in the tail.  The estimate's trials is
    # the count-equivalent p(1-p)/se^2, so the Wilson edge, meant for event
    # counts, cannot pass a point vacuously
    e = _unit_block(_philox(7, 0), 1_000_000)
    row = {name: e[k] for k, name in enumerate(LINKS)}
    base = default_params()
    checks = []

    def judge(name, form, q):
        p, se = float(q.mean()), float(q.std()) / math.sqrt(q.size)
        est = OutageEstimate(p_hat=p, std_err=se,
                             trials=p * (1.0 - p) / se ** 2)
        checks.append(_mc_check(name, est, form, z_max=4.89))

    def with_var(link, var):
        return base._replace(link_vars=base.link_vars._replace(**{link: var}))

    for var_ss in (1e2, 1e4, 1e6):
        d = derive(with_var("ss", var_ss))
        g, g_c = d.gain.ss, d.gain.ps
        for name, form, g_sig, t in (
                ("relay silent", cond_outage_d0(d, "secondary"), 2.0 * g,
                 d.lambda_s),
                ("non-cooperative", noncoop_outage(d, "secondary"), g,
                 d.theta_s)):
            judge(f"ss variance {var_ss:g}, secondary {name}", form,
                  -np.expm1(-t * (g_c * row["ps"] + 1.0) / g_sig))
    # with the relay at full power for the user, given also the relay draw
    # E3 the event needs E1 below (lambda - g_r*E3)*(g_c*E2 + 1)/g, which is
    # empty once the relay term alone clears lambda
    scenarios = {"default": base, "ss variance 1e4": with_var("ss", 1e4),
                 "pp variance 1e4": with_var("pp", 1e4),
                 "relay at -20 dB": base._replace(snr_r=db_to_linear(-20.0))}
    for label, params in scenarios.items():
        d = derive(params)
        for user, alpha, lam in (("primary", 1.0, d.lambda_p),
                                 ("secondary", 0.0, d.lambda_s)):
            _, cross, relay = USER_LINKS[user]
            g, g_c, g_r = (getattr(d.gain, name) for name in USER_LINKS[user])
            slack = np.maximum(lam - g_r * row[relay], 0.0)
            judge(f"{label}, {user} | relay active at alpha {alpha:g}",
                  cond_outage_d1_exact(d, user, alpha),
                  -np.expm1(-slack * (g_c * row[cross] + 1.0) / g))
    print(*(check.render() for check in checks), sep="\n")
    assert all(check.verdict == "PASS" for check in checks), checks


def test_relay_assisted_activation_matches_closed_form(table1):
    # the surrogate baseline activates when the secondary signal decodes
    # through the primary interference; that event has a simple closed form
    d = derive(table1)
    p_active = math.exp(-d.lambda_s / d.gain.sr) / (
        1.0 + d.lambda_s * d.gain.pr / d.gain.sr)
    est = estimate(table1, 0.5, 400_000, seed=43,
                   scheme="relay_assisted_secondary")
    assert abs(est.p_d1.p_hat - p_active) <= 3.0 * est.p_d1.std_err


def test_relayless_limit_reduces_to_silent_mixture(table1):
    lv = table1.link_vars._replace(pr=1e-12, sr=1e-12)
    params = table1._replace(link_vars=lv, snr_r=0.0)
    d = derive(params)
    est = estimate(params, 0.5, 300_000, seed=19)
    assert est.p_d1.p_hat == 0.0
    assert (abs(est.sec.p_hat - cond_outage_d0(d, "secondary"))
            <= 3.0 * est.sec.std_err)


def test_no_secondary_access_means_certain_outage(table1):
    params = table1._replace(epsilon=1e-9)
    for scheme in ("proposed", "noncooperative", "relay_assisted_secondary"):
        est = estimate(params, 0.5, 20_000, seed=7, scheme=scheme)
        assert est.sec.p_hat == 1.0
        assert est.sec.std_err == 0.0


@pytest.mark.parametrize("workers", [1, 2])
def test_zero_counts_survive_the_worker_merge(table1, workers):
    # without secondary access the relay never activates: a zero activation
    # count is a 0.0 estimate after the chunks are merged, and the estimates
    # conditioned on activation stay None
    params = table1._replace(epsilon=1e-9)
    est = estimate(params, 0.5, 2 * _CHUNK_TRIALS, seed=7, workers=workers)
    assert est.p_d1.p_hat == 0.0
    assert est.pri_d1 is None and est.sec_d1 is None


# ---- reproducibility ----------------------------------------------------------

def test_bit_identical_across_workers(table1):
    runs = [estimate(table1, 0.5, 300_000, seed=77, workers=w)
            for w in (1, 4, 8)]
    assert runs[0] == runs[1] == runs[2]


def test_bit_identical_across_chunk_sizes(table1, monkeypatch):
    import crrelay.montecarlo as mc
    base = estimate(table1, 0.5, 50_000, seed=55)
    monkeypatch.setattr(mc, "_CHUNK_TRIALS", 1 << 10)
    rechunked = estimate(table1, 0.5, 50_000, seed=55)
    assert base == rechunked


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("trials", sorted({
    1, _CHUNK_TRIALS - 1, _CHUNK_TRIALS + 1, 2 * _CHUNK_TRIALS + 17,
    # the same edges at 32,768-trial chunks
    32_767, 32_769, 65_553, 131_072, 300_001}))
def test_estimate_many_matches_per_request_estimate(table1, trials, workers):
    # one shared draw per chunk and one kernel call per (scenario, split)
    # group serve every request exactly as its own estimate() would.  The
    # two scenario pairs are table1 with a twin that differs only in its sp
    # variance, and table1 with the symmetric scenario.  Requests are
    # interleaved across groups (scheme outside split), and one request is
    # repeated, so results must come back in request order, not group order.
    # At 0.37 the two users' shares differ.  Partial chunks end every trial
    # count but 131_072.
    narrow_sp = table1._replace(link_vars=table1.link_vars._replace(
        sp=0.5 * table1.link_vars.sp))
    for scenarios in ((table1, narrow_sp), (table1, symmetric_relay_params())):
        requests = [(params, alpha, scheme)
                    for params in scenarios for scheme in SCHEMES
                    for alpha in (0.0, 0.37, 0.5, 1.0)]
        requests.insert(5, requests[-2])
        batch = estimate_many(61, trials, requests, workers=workers)
        assert len(batch) == len(requests)
        assert batch[5] == batch[-2]
        for est, (params, alpha, scheme) in zip(batch, requests):
            assert est == estimate(params, alpha, trials, 61, scheme, workers)


def test_estimate_many_can_skip_primary_events(table1):
    # sweeps count only secondary events: every other estimate is unchanged
    # and every primary one is None
    requests = [(params, alpha, scheme)
                for params in (table1, symmetric_relay_params())
                for alpha in (0.0, 0.5, 1.0) for scheme in SCHEMES]
    trials = 2 * _CHUNK_TRIALS + 17
    full = estimate_many(67, trials, requests)
    secondary = estimate_many(67, trials, requests, workers=2, primary=False)
    for est, sec in zip(full, secondary):
        assert est.pri is not None
        assert sec == est._replace(pri=None, pri_d0=None, pri_d1=None)


@pytest.mark.parametrize("workers", [1, 2])
def test_estimate_many_reuses_one_draw_buffer_per_worker(table1, monkeypatch,
                                                        workers):
    # every chunk refills its worker's one draw buffer, and every kernel
    # call writes into its worker's one workspace (four float and five bool
    # trial vectors), so the peak is that buffer and workspace per worker,
    # never a second buffer, a per-chunk copy of the links or a kernel
    # temporary
    import crrelay.montecarlo as mc

    owners, works = [], []   # kept alive, so no two can share an id
    unit_block, count_group = mc._unit_block, mc._count_group

    def recording(bit, n, out=None):
        owners.append(out if out.base is None else out.base)
        return unit_block(bit, n, out=out)

    def counting(derived, alpha, schemes, e, primary, work):
        works.append(work)
        return count_group(derived, alpha, schemes, e, primary, work)

    monkeypatch.setattr(mc, "_unit_block", recording)
    monkeypatch.setattr(mc, "_count_group", counting)
    requests = [(params, 0.5, scheme)
                for params in (table1, symmetric_relay_params())
                for scheme in SCHEMES]
    trials = 8 * _CHUNK_TRIALS + 17
    estimate_many(3, 1000, requests, workers)   # numpy's first-use state
    owners.clear()
    works.clear()
    tracemalloc.start()
    try:
        estimate_many(3, trials, requests, workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(owners) == 9 and len({id(o) for o in owners}) == workers
    # two groups per chunk; each worker counts one contiguous run of the 9
    calls = Counter(id(work) for work in works)
    assert sorted(calls.values()) == ([18] if workers == 1 else [8, 10])
    vector = 8 * _CHUNK_TRIALS   # one float64 trial vector of a chunk
    assert peak <= workers * (8 * vector + 8 * vector)


def test_estimate_many_plans_its_chunks_in_constant_memory(table1,
                                                          monkeypatch):
    # 1e10 trials are 610,352 chunks: a list of (start, n) pairs would take
    # about 58 MB before the first draw.  The run stops at its first draw,
    # so the peak is the draw buffer and workspace alone (numpy is imported
    # at the top of this module, outside the traced window)
    import crrelay.montecarlo as mc

    class FirstDraw(Exception):
        pass

    def stop(seed, start):
        raise FirstDraw(start)

    monkeypatch.setattr(mc, "_philox", stop)
    tracemalloc.start()
    try:
        with pytest.raises(FirstDraw):
            estimate_many(1, 10 ** 10, [(table1, 0.5, "proposed")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    vector = 8 * _CHUNK_TRIALS
    assert peak <= 8 * vector + 8 * vector


@pytest.mark.parametrize("workers, trials", [
    (1, 8 * _CHUNK_TRIALS + 17), (2, 8 * _CHUNK_TRIALS + 17),
    (3, 8 * _CHUNK_TRIALS + 17), (2, _CHUNK_TRIALS)])
def test_estimate_many_builds_one_philox_per_worker(table1, monkeypatch,
                                                    workers, trials):
    # each worker keys one generator and continues its stream from chunk to
    # chunk; a single chunk has a single worker
    made = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        made.append(kwargs.get("key"))
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    requests = [(table1, 0.5, scheme) for scheme in SCHEMES]
    batch = estimate_many(5, trials, requests, workers)
    assert made == [5] * min(workers, -(-trials // _CHUNK_TRIALS))
    monkeypatch.undo()
    assert batch == estimate_many(5, trials, requests)


def test_estimate_many_working_set_stays_below_two_mib():
    # verify's two requests at 1e6 trials on one worker: one chunk of draws
    # and one workspace, whatever the trial count, under 2 MiB in all
    requests = [(default_params(), 0.5, scheme)
                for scheme in ("proposed", "noncooperative")]
    estimate_many(3, 1000, requests)   # numpy's first-use state
    tracemalloc.start()
    try:
        estimate_many(3, 1_000_000, requests)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_different_seeds_differ(table1):
    a = estimate(table1, 0.5, 50_000, seed=1)
    b = estimate(table1, 0.5, 50_000, seed=2)
    assert a.sec.p_hat != b.sec.p_hat


def test_estimate_validations(table1):
    with pytest.raises(ValueError):
        estimate(table1, 0.5, 0, seed=1)
    with pytest.raises(ValueError):
        estimate(table1, 0.5, 100, seed=1, scheme="psychic")
    with pytest.raises(ValueError):
        estimate(table1, 1.5, 100, seed=1)
    with pytest.raises(ValueError):
        estimate(table1, 0.5, 100, seed=1, workers=0)
    # one bad request rejects the whole batch before any draw is made
    with pytest.raises(ValueError, match="alpha"):
        estimate_many(1, 100, [(table1, 0.5, "proposed"),
                               (table1, -0.1, "noncooperative")])
