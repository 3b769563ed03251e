import argparse
import ast
import csv
import hashlib
import importlib
import io
import math
import subprocess
import sys
import types
from pathlib import Path

import pytest

import crrelay.analytic
import crrelay.cli
from crrelay import (
    OutageEstimate,
    OutageSummary,
    QuadratureError,
    SystemParams,
    axis_values,
    compare_analytic_mc,
    default_params,
    derive,
    load_config,
    min_snr_r_for_epsilon,
    reproduce,
    run_sweep,
    sweep_csv,
    table1_params,
)
from crrelay.cli import main as cli_main
from crrelay.harness import (
    MODES,
    ORACLES,
    REPRODUCE_TARGETS,
    ResultRow,
    _closed_forms,
    _mc_check,
    parse_config_text,
)
from crrelay.montecarlo import SCHEMES
from conftest import link_table


def rows_from_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


# ---- config -----------------------------------------------------------------

# The default scenario, written out key by key.
BASELINE_TEXT = """\
rate_p = 0.4
rate_s = 0.2
snr_p_db = 20
snr_r_db = 10
epsilon = 0.03
link_vars.pp = 1.0
link_vars.sp = 0.1
link_vars.ps = 0.1
link_vars.ss = 1.0
link_vars.pr = 1.0
link_vars.sr = 1.0
link_vars.rp = 1.0
link_vars.rs = 1.0
"""


def test_config_round_trip(tmp_path):
    # a scenario written as config text reads back as that scenario
    params = table1_params(0.07)
    path = tmp_path / "scenario.cfg"
    path.write_text(BASELINE_TEXT.replace("epsilon = 0.03", "epsilon = 0.07"))
    assert load_config(path) == params


def test_config_comments_and_blanks(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("# scenario\n\n" + BASELINE_TEXT
                    + "\nepsilon = 0.05  # override\n")
    assert load_config(path).epsilon == 0.05


def test_config_overrides_win(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(BASELINE_TEXT)
    params = load_config(path, overrides=("epsilon=0.08", "link_vars.sp=0.2"))
    assert params.epsilon == 0.08
    assert params.link_vars.sp == 0.2


def test_config_errors(tmp_path):
    with pytest.raises(ValueError):
        parse_config_text("this is not a key value line")
    missing = tmp_path / "missing.cfg"
    missing.write_text("rate_p = 0.4\n")
    with pytest.raises(ValueError):
        load_config(missing)
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text(BASELINE_TEXT + "bogus_key = 1\n")
    with pytest.raises(ValueError):
        load_config(unknown)
    with pytest.raises(ValueError):
        load_config(None, overrides=("epsilon0.08",))


def test_default_config_is_baseline():
    assert load_config(None) == default_params()


def test_default_params_are_the_literal_baseline():
    expected = SystemParams(rate_p=0.4, rate_s=0.2, snr_p=100.0, snr_r=10.0,
                            epsilon=0.03,
                            link_vars=link_table(ps=0.1, sp=0.1))
    assert default_params() == expected
    assert repr(default_params()) == repr(expected)


# ---- sweeps -----------------------------------------------------------------

def test_sweep_shape_and_columns():
    table = run_sweep(default_params(), "snr_p_db", (18.0, 20.0, 22.0),
                      schemes=("proposed", "noncooperative"), mode="analytic")
    assert len(table) == 6
    text = sweep_csv(table).decode("utf-8")
    rows = rows_from_csv(text)
    assert tuple(rows[0].keys()) == ResultRow._fields
    assert text.count("\r\n") == 7
    noncoop = [r for r in rows if r["scheme"] == "noncooperative"]
    assert all(r["alpha"] == "" and r["snr_r"] == "" for r in noncoop)
    assert all(r["mc_sec"] == "" for r in rows)          # analytic mode
    assert all(r["error"] == "" for r in rows)


def test_sweep_spec_validation(monkeypatch):
    # each bad setting fails the whole sweep before any scenario is derived
    import crrelay.harness as harness

    derived = []
    monkeypatch.setattr(harness, "derive",
                        lambda params: derived.append(params) or derive(params))
    params = default_params()
    with pytest.raises(ValueError):
        run_sweep(params, "bogus", (1.0,))
    with pytest.raises(ValueError):
        run_sweep(params, "alpha", ())
    with pytest.raises(ValueError):
        run_sweep(params, "alpha", (0.5,), mode="maybe")
    with pytest.raises(ValueError):
        run_sweep(params, "alpha", (0.5,), schemes=("psychic",))
    with pytest.raises(ValueError):
        run_sweep(params, "alpha", (0.5,), trials=0)
    # the run settings a simulation would use are checked in analytic mode too
    with pytest.raises(ValueError, match="workers must be at least 1"):
        run_sweep(params, "alpha", (0.5,), mode="analytic", workers=0)
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        run_sweep(params, "alpha", (0.5,), mode="analytic", seed=-1)
    with pytest.raises(ValueError, match="snr_r_policy must be"):
        run_sweep(params, "alpha", (0.5,), snr_r_policy="bogus")
    # the policy would overwrite every relay SNR the axis sets
    with pytest.raises(ValueError,
                       match="axis snr_r_db .* snr_r_policy min_for_epsilon"):
        run_sweep(params, "snr_r_db", (0.0, 10.0),
                  snr_r_policy="min_for_epsilon")
    with pytest.raises(ValueError):
        axis_values(0.5, 0.4, 0.1)
    assert derived == []


def test_sweep_from_range_inclusive():
    values = axis_values(5.0, 30.0, 1.0)
    assert len(values) == 26
    assert values[0] == 5.0 and values[-1] == 30.0


def test_sweep_points_are_the_decimal_steps(capsys, monkeypatch):
    # each point is the double nearest the decimal start + k*step; in floats
    # -0.2 + 12 * 0.1 is 1.0000000000000002, a split the sweep rejects while
    # its CSV prints it as 1, and 0.1 + 2 * 0.1 is 0.30000000000000004
    assert axis_values(-0.2, 1.2, 0.1) == (
        -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
        1.1, 1.2)
    assert axis_values(0.1, 0.5, 0.1) == (0.1, 0.2, 0.3, 0.4, 0.5)
    # a computed step reads as 0.3333333333333333 and would end at
    # 0.9999999999999999; a last point that close to stop is stop itself
    values = axis_values(0, 1, 1 / 3)
    assert values == (0.0, 1 / 3, 2 / 3, 1.0)
    assert type(values[-1]) is float
    assert cli_main(["sweep", "--axis", "alpha", "--start", "-0.2", "--stop",
                     "1.2", "--step", "0.1", "--mode", "analytic"]) == 0
    rows = {r["value"]: r for r in rows_from_csv(capsys.readouterr().out)}
    for value in ("0.1", "1"):
        assert rows[value]["error"] == ""
        assert rows[value]["analytic_sec"] != ""
    # the CSV prints 0.9999999999 as 1, so read the points the CLI sweeps
    swept = []
    monkeypatch.setattr(crrelay.cli, "run_sweep", lambda params, axis, values,
                        **kw: swept.append(values) or ())
    assert cli_main(["sweep", "--axis", "alpha", "--start", "0", "--stop",
                     "1", "--step", "0.3333333333", "--mode", "analytic"]) == 0
    assert swept == [(0.0, 0.3333333333, 0.6666666666, 1.0)]


def test_sweep_from_range_caps_axis_length():
    from crrelay.harness import MAX_SWEEP_POINTS
    # ~2.5e10 points: must be refused before any value is built
    with pytest.raises(ValueError, match="points"):
        axis_values(5.0, 30.0, 1e-9)
    values = axis_values(0.0, MAX_SWEEP_POINTS - 1, 1.0)
    assert len(values) == MAX_SWEEP_POINTS
    with pytest.raises(ValueError, match="points"):
        axis_values(0.0, MAX_SWEEP_POINTS, 1.0)
    with pytest.raises(ValueError, match="finite"):
        axis_values(5.0, float("inf"), 1.0)


def test_sweep_error_rows_do_not_abort():
    table = run_sweep(default_params(), "epsilon", (0.05, 1.5),
                      mode="analytic")
    good = [r for r in table if r.value == 0.05]
    bad = [r for r in table if r.value == 1.5]
    assert all(not r.error for r in good)
    assert all("epsilon" in r.error for r in bad)
    assert all(r.analytic_sec is None for r in bad)


def test_sweep_underflowing_primary_gain_is_an_error_row():
    # at -3000 dB the primary's mean gain snr_p * var_pp underflows to 0:
    # that row is an error row and the sweep goes on
    scenario = default_params()
    scenario = scenario._replace(
        link_vars=scenario.link_vars._replace(pp=1e-300))
    rows = run_sweep(scenario, "snr_p_db", (-3000.0, 20.0), mode="analytic")
    errors = {r.value: r.error for r in rows}
    assert errors == {-3000.0: "mean gain of link pp underflows", 20.0: ""}


def test_cli_sweep_overflowing_relay_draw_is_an_error_row(capsys):
    # from about 3060 dB a unit-variance relay draw can overflow the kernel:
    # the simulated rows stop there and the sweep goes on with error rows
    assert cli_main(["--trials", "1000", "sweep", "--axis", "snr_r_db",
                     "--start", "2960", "--stop", "3080", "--step", "40",
                     "--schemes", "proposed,relay_assisted_secondary",
                     "--mode", "montecarlo"]) == 0
    rows = rows_from_csv(capsys.readouterr().out)
    assert [(r["value"], r["scheme"]) for r in rows] == [
        (value, scheme) for value in ("2960", "3000", "3040", "3080")
        for scheme in ("proposed", "relay_assisted_secondary")]
    for row in rows:
        if row["value"] == "3080":
            assert row["mc_sec"] == ""
            assert row["error"] == ("mean gain of link rp overflows a "
                                    "simulated draw")
        else:
            assert row["mc_sec"] != "" and row["error"] == ""


@pytest.mark.parametrize("mode", MODES)
def test_sweep_bad_worker_count_fails_the_whole_sweep(mode):
    # the simulator's own message, before any row, in every mode
    with pytest.raises(ValueError, match="^workers must be at least 1$"):
        run_sweep(default_params(), "alpha", (0.5, 1.5), mode=mode,
                  trials=1000, workers=0)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("split", (1.5, math.nan, -0.5))
def test_sweep_split_outside_unit_interval_is_an_error_in_every_row(mode,
                                                                   split):
    # one split check for every scheme and mode, ahead of any cell
    rows = run_sweep(default_params(), "snr_p_db", (20.0,), schemes=SCHEMES,
                     mode=mode, trials=1000, alpha=split)
    assert [r.scheme for r in rows] == list(SCHEMES)
    for row in rows:
        assert row.error == _OUT_OF_RANGE
        assert row.analytic_sec is None and row.mc_sec is None


@pytest.mark.parametrize("split", ("1.5", "nan", "-3"))
def test_cli_sweep_split_outside_unit_interval_is_an_error_cell(split,
                                                                capsys):
    assert cli_main(["sweep", "--axis", "snr_p_db", "--start", "20",
                     "--stop", "20", "--step", "1", "--mode", "analytic",
                     "--schemes", "relay_assisted_secondary",
                     "--alpha", split]) == 0
    [row] = rows_from_csv(capsys.readouterr().out)
    assert row["error"] == _OUT_OF_RANGE


def test_sweep_below_cutoff_reports_certain_outage():
    table = run_sweep(default_params(), "snr_p_db", (6.0, 8.0),
                      schemes=("proposed", "noncooperative"), mode="both",
                      trials=2000)
    for row in table:
        assert row.snr_s == 0.0
        assert row.analytic_sec == 1.0
        assert row.mc_sec == 1.0


def test_sweep_alpha_axis_and_min_policy():
    table = run_sweep(default_params(), "alpha", (0.3, 0.5, 1.0),
                      mode="analytic", snr_r_policy="min_for_epsilon")
    by_alpha = {r.value: r for r in table}
    derived = derive(default_params())
    assert by_alpha[0.5].snr_r == pytest.approx(
        min_snr_r_for_epsilon(derived, 0.5), rel=1e-12)
    assert by_alpha[0.5].alpha == 0.5
    # below the split floor the target cannot be met: outage 1, flagged
    assert by_alpha[0.3].analytic_sec == 1.0
    assert "infeasible" in by_alpha[0.3].error


def test_sweep_mu_axes_update_link_pairs():
    run_sweep(default_params(), "mu1", (0.5,), mode="analytic")   # smoke
    from crrelay.harness import _apply_axis
    params, _ = _apply_axis(default_params(), "mu1", 0.5, 0.5)
    assert params.link_vars.pr == 0.5 and params.link_vars.rp == 0.5
    params, _ = _apply_axis(default_params(), "mu2", 0.2, 0.5)
    assert params.link_vars.sr == 0.2 and params.link_vars.rs == 0.2
    params, _ = _apply_axis(default_params(), "var_ss", 0.7, 0.5)
    assert params.link_vars.ss == 0.7


# Standard output of CLI sweeps, with the set of row errors each must show.
# The first splits 300_001 trials into chunks (the last one partial) over two
# workers, the second mixes analytic and simulated cells; both keep
# out-of-range splits as per-row errors.  The min_for_epsilon cases cover the
# infeasible rows below the split floor, the floor itself, and the splits
# outside [0, 1].
_OUT_OF_RANGE = "alpha must lie in [0, 1]"
_BELOW_FLOOR = "infeasible: split at or below the primary-bound floor"
_SWEEP_STDOUT_SHA256 = {
    "alpha-montecarlo-workers2": (
        ["--trials", "300001", "--workers", "2", "sweep", "--axis", "alpha",
         "--start", "0.9", "--stop", "1.2", "--step", "0.1",
         "--mode", "montecarlo", "--schemes", "proposed,noncooperative"],
        "ce5417abaea5f48386c9ede3d7b4c83f553530e98918bd24c9104edf690b3dce",
        {_OUT_OF_RANGE},
    ),
    "alpha-both": (
        ["--trials", "200000", "sweep", "--axis", "alpha",
         "--start", "-0.2", "--stop", "1.2", "--step", "0.2",
         "--mode", "both", "--schemes", "proposed,relay_assisted_secondary"],
        "3e7a71dbd07b3ff44e43fbce4f3e34ec27199b42158dad2fbff26c16199fc938",
        {_OUT_OF_RANGE},
    ),
    "alpha-min-policy": (
        ["sweep", "--snr-r-policy", "min_for_epsilon", "--axis", "alpha",
         "--start", "-0.2", "--stop", "1.2", "--step", "0.1"],
        "cf9fa55fb65afe50fead4d48f7d11bf2e732621251fc6dda522e54b42163b7a8",
        {_BELOW_FLOOR, _OUT_OF_RANGE},
    ),
    "alpha-min-policy-at-floor": (
        ["sweep", "--snr-r-policy", "min_for_epsilon", "--axis", "alpha",
         "--start", "0.4256508225014825", "--stop", "0.4256508225014825",
         "--step", "0.1", "--schemes", "proposed,noncooperative"],
        "96c77078e1fb3cef0c705b5718f1815af1d2ae4e02a02a9726b090196335a9af",
        {_BELOW_FLOOR},
    ),
}


@pytest.mark.parametrize("case", sorted(_SWEEP_STDOUT_SHA256))
def test_cli_sweep_stdout_bytes_pinned(case, capsys):
    argv, digest, errors = _SWEEP_STDOUT_SHA256[case]
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    assert {r["error"] for r in rows_from_csv(out) if r["error"]} == errors


# ---- reproduction targets ------------------------------------------------------

def test_reproduce_table1(tmp_path):
    report = reproduce("table1", out_dir=tmp_path)
    files = {f.name for f in report.files}
    assert files == {"table1.csv", "table1_report.txt"}
    rows = rows_from_csv((tmp_path / "table1.csv").read_text())
    assert len(rows) == 6
    assert float(rows[0]["alpha_eps"]) == pytest.approx(0.496374, abs=1e-5)
    alpha_checks = [c for c in report.checks if c.name.startswith("alpha_eps")]
    assert len(alpha_checks) == 6
    assert all(c.verdict == "PASS" for c in alpha_checks)
    # the closed-form chain cannot reach the published outage column; the
    # report must say so loudly rather than pass silently
    usp_checks = [c for c in report.checks
                  if c.name.startswith("u_s_prime(")]
    assert len(usp_checks) == 6
    assert all(c.verdict == "FAIL" for c in usp_checks)
    assert any(c.verdict == "NOTE" for c in report.checks)
    assert not report.ok
    text = (tmp_path / "table1_report.txt").read_text()
    assert "produced=" in text and "reference=" in text and "tol=" in text


def test_reproduce_fig2(tmp_path):
    report = reproduce("fig2", out_dir=tmp_path)
    assert report.ok
    rows = rows_from_csv((tmp_path / "fig2.csv").read_text())
    assert len(rows) == 99


def test_reproduce_fig4_fig5(tmp_path):
    r4 = reproduce("fig4", out_dir=tmp_path)
    r5 = reproduce("fig5", out_dir=tmp_path)
    assert r4.ok and r5.ok
    rows4 = rows_from_csv((tmp_path / "fig4.csv").read_text())
    assert {r["mu1"] for r in rows4} == {"1", "0.5", "0.1"}


def test_reproduce_fig6(tmp_path):
    report = reproduce("fig6", out_dir=tmp_path)
    assert report.ok
    rows = rows_from_csv((tmp_path / "fig6.csv").read_text())
    below = [r for r in rows if r["alpha"] == "0.42"]
    assert below and all(r["u_s_prime"] == "1" for r in below)


def test_fig4_to_fig6_compute_each_curve_once(monkeypatch, tmp_path):
    # fig4 and fig5 read the same five channel-condition curves, and fig6's
    # alpha 0.5 curve is the (1, 1) one: 9 distinct minimum-relay sweeps
    # instead of 15, and none when the targets run again in the process
    import crrelay.harness as harness

    specs = []
    sweep = harness.run_sweep

    def counted(scenario, axis, values, **kwargs):
        specs.append((scenario, kwargs["alpha"], values))
        return sweep(scenario, axis, values, **kwargs)
    monkeypatch.setattr(harness, "run_sweep", counted)
    harness._min_relay_curve.cache_clear()
    for target in ("fig4", "fig5", "fig6"):
        reproduce(target, out_dir=tmp_path)
    assert len(specs) == 9
    assert len(set(specs)) == 9
    specs.clear()
    for target in ("fig4", "fig5", "fig6"):
        reproduce(target, out_dir=tmp_path)
    assert specs == []


def test_reproduce_fig3_small(tmp_path):
    report = reproduce("fig3", out_dir=tmp_path, trials=20_000, seed=1)
    assert report.ok
    rows = rows_from_csv((tmp_path / "fig3.csv").read_text())
    assert len(rows) == 26 * 3


# SHA-256 of each target CSV with fig3 at trials=20_000, seed=1.  Any change
# to a formula, a sweep or the CSV cell format moves a digest.
_TARGET_CSV_SHA256 = {
    "table1": "e8b950e34d23f10f0eed3a37bef42d5b06503d3ad7312cef81eacf7e03ecb893",
    "fig2": "52db93623e19184c4fd60a88e75ed56631d4ad908e1fc782ed49d740b385a516",
    "fig3": "fd4658a8065669444fa68e26521408941a5658151ac774ba5b5fd2c28f28edf1",
    "fig4": "1aef9e3171fb347d079a26452a1d852fc2abdc474507a8d837cdfaeb5600a55c",
    "fig5": "7a17cfd2c4be0419f5bd7b0903cfbaa73cbd0f9c320242442e6657e2846fd791",
    "fig6": "5ff385f89b1fcfe09f834167878486daf8e963c8e14c9846dcb3c2749ecf450e",
}


def test_reproduce_target_csv_bytes_pinned(tmp_path):
    assert set(REPRODUCE_TARGETS) == set(_TARGET_CSV_SHA256)
    for target in REPRODUCE_TARGETS:
        reproduce(target, out_dir=tmp_path, trials=20_000, seed=1)
    digests = {t: hashlib.sha256((tmp_path / f"{t}.csv").read_bytes()).hexdigest()
               for t in REPRODUCE_TARGETS}
    assert digests == _TARGET_CSV_SHA256


# SHA-256 of each target's report text, same runs, without its "files:" line
# (it names the output directory).  Any change to a verdict, a check's name
# or its detail format moves a digest.
_TARGET_REPORT_SHA256 = {
    "table1": "ca3553ef4e962fa062acce8cbdfdc8a2aecdd3a54155a2343b3c3a3d3bed860f",
    "fig2": "27a668707122ab3056b592298492e04d1983819779fcdc34f2d312c6051b41f4",
    "fig3": "915c52e640d16c9f61b54fd17c536408677741ab5821ba45c55bb0b01c9447cc",
    "fig4": "615563c5f58efaf4a86a447a4513128c2e7c73d191291be7f80c03cb183665fd",
    "fig5": "0fabb4a9d436b34d72b09ee065a438520979888278ee11b3ac43c515a4250b00",
    "fig6": "bdbc860c944a15f530a603b3cedf1e126f25bbc4a2f45d5dfac5dabaa3979680",
}


def test_reproduce_target_report_bytes_pinned(tmp_path):
    assert set(REPRODUCE_TARGETS) == set(_TARGET_REPORT_SHA256)
    digests = {}
    for target in REPRODUCE_TARGETS:
        reproduce(target, out_dir=tmp_path, trials=20_000, seed=1)
        lines = (tmp_path / f"{target}_report.txt").read_text().splitlines(True)
        kept = "".join(l for l in lines if not l.startswith("files: "))
        digests[target] = hashlib.sha256(kept.encode("utf-8")).hexdigest()
    assert digests == _TARGET_REPORT_SHA256


# Standard output and exit code of verify runs covering both relay-active
# row kinds (exact at splits 0 and 1, bounds inside), both total references
# and the scenario without secondary access; of sweeps moving each kind of
# link axis, the relay SNR and both rates, and crossing the admission cutoff
# with every scheme; and of allocate and region when nothing is feasible.
_ALL_SCHEMES = "proposed,relay_assisted_secondary,noncooperative"
_HARNESS_STDOUT_SHA256 = {
    "verify-alpha-0": (
        ["--trials", "100000", "verify", "--alpha", "0"], 2,
        "e933ed2da641205f3a5d5164b3c27c2213d02b95b769151434d2c18591bea8d6",
    ),
    "verify-alpha-0.5": (
        ["--trials", "100000", "verify", "--alpha", "0.5"], 2,
        "e7cfe23d336a86e5bd1b8e6f08295e08d5a3d0d88e4aa8522f253e4588702e82",
    ),
    "verify-alpha-1": (
        ["--trials", "100000", "verify", "--alpha", "1"], 2,
        "6a8604203c1bffac46a5d59adae5dce4a3126d0558d23656addeb7435470679c",
    ),
    "verify-no-secondary-access": (
        ["--trials", "100000", "--set", "epsilon=0.001", "verify"], 0,
        "274350696c9b7a15219702d7272096f77d278aae8c1e9ea8ea75cd2e5cfeef15",
    ),
    "sweep-mu1": (
        ["--trials", "20000", "sweep", "--axis", "mu1",
         "--start", "0.1", "--stop", "1", "--step", "0.3"], 0,
        "963c4efaa2b57cc45f899bda977b15d0ee40c9567d111742f09f0d1eff3faa12",
    ),
    "sweep-mu2": (
        ["sweep", "--mode", "analytic", "--axis", "mu2",
         "--start", "0.1", "--stop", "1", "--step", "0.3"], 0,
        "32426f4fbe9080c3c3447c7d9b2039a0f18df51842294b47519d4c948688c4f7",
    ),
    "sweep-var_sp": (
        ["--trials", "20000", "sweep", "--axis", "var_sp",
         "--start", "0.05", "--stop", "0.2", "--step", "0.05"], 0,
        "c87073703474bcfba6a496cde0c6de7db31a933eadc2e65003057dc242f6c462",
    ),
    "sweep-var_rp": (
        ["sweep", "--mode", "analytic", "--axis", "var_rp",
         "--start", "0.5", "--stop", "2", "--step", "0.5"], 0,
        "cbb3dde47535b85ecfb0ec57dab6e93f57301523188350013351983c44f6946d",
    ),
    "sweep-cutoff-all-schemes": (
        ["--trials", "20000", "sweep", "--axis", "snr_p_db",
         "--start", "5", "--stop", "14", "--step", "1",
         "--schemes", _ALL_SCHEMES], 0,
        "af8100f53ae2fea88c13153ba79dae40c5013f1b58deb7b5e42995a5e1aa3dbe",
    ),
    "sweep-snr_r_db": (
        ["--trials", "20000", "sweep", "--axis", "snr_r_db",
         "--start", "-10", "--stop", "20", "--step", "10"], 0,
        "e41a89ba11f9708f97ec642c6c47917b735b0fefe43162c13fbcf24952ec8d1e",
    ),
    "sweep-rate_p": (
        ["sweep", "--mode", "analytic", "--axis", "rate_p",
         "--start", "0.2", "--stop", "1", "--step", "0.2",
         "--schemes", _ALL_SCHEMES], 0,
        "fb2c27fe280e56ab64811e7f40812b9486483a9e38b0c012cb588021a9752227",
    ),
    "sweep-rate_s": (
        ["--trials", "20000", "sweep", "--axis", "rate_s",
         "--start", "0.1", "--stop", "0.7", "--step", "0.3"], 0,
        "1bf0f40bcebbfe0ea51f3d3a80194c8a23504e62919e320c378f9634f32bfb67",
    ),
    # "infeasible: no grid point meets the primary bound (secondary outage 1)"
    "allocate-infeasible": (
        ["--set", "epsilon=1e-300", "allocate"], 0,
        "d3f5046c7f7b4a548ac181c0d3bb0f36c9c36b52692b4a97369735e9112609b8",
    ),
    # "rates (0.9, 0.9): no common split band", then the region verdict
    "region-no-common-band": (
        ["--set", "rate_p=0.9", "--set", "rate_s=0.9", "region"], 0,
        "23a0b349f2f7b8365fc476d4e91a5dbf1ced7824fa295c624999a28c839360e1",
    ),
}


@pytest.mark.parametrize("case", sorted(_HARNESS_STDOUT_SHA256))
def test_cli_harness_stdout_bytes_pinned(case, tmp_path, capsys):
    argv, code, digest = _HARNESS_STDOUT_SHA256[case]
    assert cli_main(["--out-dir", str(tmp_path), *argv]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_reproduce_rejects_unknown_target(tmp_path):
    with pytest.raises(ValueError):
        reproduce("fig7", out_dir=tmp_path)


@pytest.mark.parametrize("target", ["fig3", "table1"])
@pytest.mark.parametrize("kwargs, message", [
    (dict(trials=0), "trials must be at least 1"),
    (dict(workers=0), "workers must be at least 1"),
    (dict(seed=-1), "seed must be a nonnegative integer"),
], ids=["trials", "workers", "seed"])
def test_reproduce_rejects_bad_run_values(target, kwargs, message, tmp_path):
    # rejected up front with the simulator's message, before any output
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=f"^{message}$"):
        reproduce(target, out_dir=out, **kwargs)
    assert not out.exists()


def test_out_dir_defaults_to_cwd_out(tmp_path, monkeypatch):
    # out_dir (--out-dir) is the only setting: no environment variable,
    # the package-prefixed one included, moves the output
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(f"{crrelay.__name__.upper()}_OUT_DIR",
                       str(tmp_path / "envout"))
    report = reproduce("fig2")
    assert [f.parent for f in report.files] == [Path("out")] * 2
    assert all((tmp_path / f).is_file() for f in report.files)
    assert not (tmp_path / "envout").exists()


# ---- verification ---------------------------------------------------------------

def test_compare_analytic_mc_interior_split(table1):
    report = compare_analytic_mc(table1, 0.5, trials=60_000, seed=2)
    names = [c.name for c in report.checks]
    assert any("within bound" in n for n in names)
    # every closed form matches except the relay-activation factorization,
    # which is a known approximation and must be flagged, not hidden
    failing = [c for c in report.checks if c.verdict == "FAIL"]
    assert [c.name for c in failing] == ["relay activation frequency"]
    assert not report.ok


def test_compare_analytic_mc_extreme_split(table1):
    report = compare_analytic_mc(table1, 1.0, trials=60_000, seed=4)
    assert any("exact" in c.name for c in report.checks)


def test_exact_conditionals_integrate_once(monkeypatch, capsys):
    # analytic and verify both read the conditionals the totals mixed
    # instead of evaluating them again: one quadrature for the user holding
    # the relay power
    calls = []
    integrate = crrelay.analytic.integrate_exp_over_x

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)
    monkeypatch.setattr(crrelay.analytic, "integrate_exp_over_x", counted)
    for alpha in ("0", "1"):
        calls.clear()
        assert cli_main(["analytic", "--alpha", alpha]) == 0
        assert "(d1 exact)" in capsys.readouterr().out
        assert len(calls) == 1
        calls.clear()
        report = compare_analytic_mc(default_params(), float(alpha),
                                     trials=1_000)
        assert any("(exact)" in c.name for c in report.checks)
        assert len(calls) == 1


def test_mc_check_judges_certain_outage_by_wilson():
    # all 2,180 trials in outage: std_err is 0, so z is infinite, yet the
    # closed form lies inside the Wilson interval; 0.99 lies below it
    certain = OutageEstimate.from_counts(2180, 2180)
    check = _mc_check("x", certain, 0.99999989)
    assert check.verdict == "PASS"
    assert "z=+inf wilson3=[0.996, 1]" in check.detail
    assert _mc_check("x", certain, 0.99).verdict == "FAIL"


def test_mc_check_signs_an_infinite_z():
    # no spread and an estimate below the closed form: z is -inf, not +inf.
    # 0.6 lies above the Wilson interval [0, 0.474] but inside the wider
    # one at z_max 4.89, and a mid-range z of +3.45 passes only at 4.89,
    # with no Wilson text at all
    never = OutageEstimate.from_counts(0, 10)
    check = _mc_check("x", never, 0.02)
    assert check.verdict == "PASS"
    assert "z=-inf wilson3=[0, 0.474]" in check.detail
    assert _mc_check("x", never, 0.6).verdict == "FAIL"
    check = _mc_check("x", never, 0.6, z_max=4.89)
    assert check.verdict == "PASS"
    assert "z=-inf wilson4.89=[0, 0.705]" in check.detail
    mid = OutageEstimate.from_counts(300, 1000)
    check = _mc_check("x", mid, 0.25, note="n")
    assert check.verdict == "FAIL"
    assert check.detail == "mc=0.3 analytic=0.25 std_err=0.0145 z=+3.45 [n]"
    assert _mc_check("x", mid, 0.25, z_max=4.89).verdict == "PASS"


def test_mc_check_bound_judges_certain_outage_by_wilson():
    # all 2,180 trials in outage, a bound 1.1e-7 below 1: the estimate has
    # no spread, yet the bound lies above the Wilson interval's lower end.
    # A bound far above a mid-range estimate passes one-sided only
    certain = OutageEstimate.from_counts(2180, 2180)
    check = _mc_check("x", certain, 1.0 - 1.1e-7, bound=True)
    assert check.verdict == "PASS"
    assert "slack=-1.1e-07 wilson3=[0.996, 1]" in check.detail
    assert _mc_check("x", certain, 0.99, bound=True).verdict == "FAIL"
    mid = OutageEstimate.from_counts(300, 1000)
    check = _mc_check("x", mid, 0.9, bound=True)
    assert (check.verdict, check.detail) == (
        "PASS", "mc=0.3 bound=0.9 slack=+0.643")
    assert _mc_check("x", mid, 0.9).verdict == "FAIL"
    assert _mc_check("x", mid, 0.25, bound=True).verdict == "FAIL"


# every relay-active trial of this scenario is a secondary outage
CERTAIN_OUTAGE_SETS = [arg for key, value in dict(
    rate_p=0.20994967710899204, rate_s=0.16072225539892548,
    snr_p_db=6.183593457198696, snr_r_db=25.57029811654023,
    epsilon=0.05328928619259792, **{
        "link_vars.pp": 0.7358494975479906,
        "link_vars.sp": 5.048382754785598,
        "link_vars.ps": 1.0838830593529263,
        "link_vars.ss": 1.531981849920055,
        "link_vars.pr": 1.4012541358395767,
        "link_vars.sr": 3.022178098845876,
        "link_vars.rp": 0.6180445744159848,
        "link_vars.rs": 0.15631386548309636}).items()
    for arg in ("--set", f"{key}={value}")]


def test_cli_verify_passes_certain_conditional_outage(tmp_path, capsys):
    assert cli_main(["--out-dir", str(tmp_path), *CERTAIN_OUTAGE_SETS,
                     "--seed", "11", "verify", "--alpha", "1"]) == 0
    assert ("PASS secondary outage | relay active (exact): mc=1 analytic=1 "
            "std_err=0 z=+inf wilson3=[0.996, 1]") in capsys.readouterr().out


def test_cli_verify_passes_certain_outage_within_bound(tmp_path, capsys):
    # at an interior split the same certain outage meets a bound just below 1
    assert cli_main(["--out-dir", str(tmp_path), *CERTAIN_OUTAGE_SETS,
                     "--seed", "11", "verify", "--alpha", "0.9"]) == 0
    assert ("PASS secondary outage | relay active within bound: mc=1 bound=1 "
            "slack=-1.1e-07 wilson3=[0.996, 1]") in capsys.readouterr().out


def test_cli_verify_passes_an_unseen_rare_event(tmp_path, capsys):
    # 10 trials never see the primary decoded first (closed form 1.2e-18);
    # the Wilson interval from exactly 0 holds it
    assert cli_main(["--out-dir", str(tmp_path), "--set", "link_vars.pr=1e-18",
                     "--trials", "10", "verify"]) == 0
    assert ("PASS SIC order: primary decoded first: mc=0 analytic=1.156e-18 "
            "std_err=0 z=-inf wilson3=[0, 0.474]") in capsys.readouterr().out


def test_compare_analytic_mc_no_secondary(table1):
    report = compare_analytic_mc(table1._replace(epsilon=1e-9), 0.5,
                                 trials=5_000, seed=5)
    assert report.ok
    assert any("no secondary access" in c.name for c in report.checks)


@pytest.mark.parametrize("gain, alpha, conditionals", [
    (1e-12, 0.5, ["secondary outage | relay silent",
                  "primary outage | relay silent"]),
    (1e8, 1.0, ["primary outage | relay active (exact)",
                "secondary outage | relay active (exact)"]),
], ids=["relay-never-active", "relay-always-active"])
def test_compare_analytic_mc_leaves_out_unseen_conditionals(
        table1, gain, alpha, conditionals):
    # links toward the relay 1e-12 or 1e8 times as strong: in 2,000 trials
    # the relay never or always decodes both signals, so verify has no
    # relay-active or no relay-silent estimate and leaves out those rows
    links = table1.link_vars._replace(pr=gain, sr=gain)
    report = compare_analytic_mc(table1._replace(link_vars=links), alpha,
                                 trials=2_000, seed=3)
    total = "bound" if alpha == 0.5 else "exact-conditional mixture"
    assert [c.name for c in report.checks] == [
        "relay activation frequency", "SIC order: primary decoded first",
        *conditionals, f"total secondary outage within {total}",
        f"total primary outage within {total}",
        "non-cooperative secondary outage",
        "non-cooperative primary outage at the admission threshold"]
    assert report.ok


# ---- CLI -------------------------------------------------------------------------

def test_cli_analytic_and_region(capsys):
    assert cli_main(["analytic", "--alpha", "0.5"]) == 0
    assert cli_main(["--set", "rate_p=0.4", "--set", "rate_s=0.2",
                     "region"]) == 0
    out = capsys.readouterr().out
    assert "0.4257" in out and "0.7579" in out


@pytest.mark.parametrize("rate", ["-1", "nan"])
def test_cli_region_rejects_invalid_rate(rate, capsys):
    assert cli_main(["--set", f"rate_p={rate}", "region"]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "band" not in captured.out


def test_cli_simulate_and_allocate(capsys):
    assert cli_main(["--trials", "5000", "--seed", "1", "simulate",
                     "--alpha", "0.5"]) == 0
    assert cli_main(["allocate", "--snr-r-db", "10"]) == 0
    out = capsys.readouterr().out
    assert "secondary outage" in out


def test_cli_sweep_stdout(capsys):
    rc = cli_main(["--trials", "2000", "sweep", "--axis", "snr_p_db",
                   "--start", "19", "--stop", "21", "--step", "1",
                   "--mode", "analytic"])
    assert rc == 0
    rows = rows_from_csv(capsys.readouterr().out)
    assert len(rows) == 3


def test_cli_sweep_to_file(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli_main(["--trials", "2000", "sweep", "--axis", "alpha",
                   "--start", "0.5", "--stop", "0.6", "--step", "0.1",
                   "--mode", "analytic", "--out", str(out)])
    assert rc == 0 and out.exists()


def test_cli_reproduce_fig2(tmp_path):
    assert cli_main(["--out-dir", str(tmp_path), "reproduce",
                     "--target", "fig2"]) == 0


def test_cli_reproduce_table1_fails_honestly(tmp_path):
    assert cli_main(["--out-dir", str(tmp_path), "reproduce",
                     "--target", "table1"]) == 2


def test_cli_verify_flags_activation_gap(tmp_path):
    rc = cli_main(["--out-dir", str(tmp_path), "--trials", "60000",
                   "--seed", "2", "verify", "--alpha", "0.5"])
    assert rc == 2
    assert (tmp_path / "verify_report.txt").exists()


@pytest.mark.parametrize("source, key", [
    (["--set", "epsilon=abc"], "epsilon"),
    (["--set", "link_vars.sp=0.1x"], "link_vars.sp"),
    (["--set", "snr_r_db="], "snr_r_db"),
    ("file", "rate_s"),
])
def test_cli_names_the_malformed_config_key(source, key, tmp_path, capsys):
    if source == "file":
        path = tmp_path / "scenario.cfg"
        path.write_text(BASELINE_TEXT.replace("rate_s = 0.2", "rate_s = 0,2"))
        source = ["--config", str(path)]
    assert cli_main([*source, "analytic"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: config key {key}: could not convert ")


def test_cli_config_errors(tmp_path):
    assert cli_main(["--config", str(tmp_path / "nope.cfg"), "analytic"]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("rate_p = 0.4\n")
    assert cli_main(["--config", str(bad), "analytic"]) == 1
    assert cli_main(["--set", "epsilon=2.0", "analytic"]) == 1


@pytest.mark.parametrize("override", [
    "snr_p_db=inf", "snr_p_db=4000", "rate_p=inf", "rate_s=inf",
    "rate_p=600", "rate_s=600", "rate_p=2000", "rate_p=1e-20", "rate_s=1e-20",
])
def test_cli_rejects_non_finite_scenario(override, capsys):
    assert cli_main(["--set", override, "analytic"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("override, name", [
    ("rate_p=nan", "rate_p"), ("rate_s=nan", "rate_s"),
    ("rate_s=-inf", "rate_s"), ("snr_p_db=nan", "snr_p"),
    ("snr_p_db=4000", "snr_p"), ("snr_r_db=nan", "snr_r"),
    ("snr_r_db=inf", "snr_r"),
])
def test_cli_names_the_non_finite_value(override, name, capsys):
    # finiteness is checked before sign, so NaN is not called non-positive
    assert cli_main(["--set", override, "analytic"]) == 1
    assert capsys.readouterr() == ("", f"error: {name} must be finite\n")


@pytest.mark.parametrize("snr_r_db", ["nan", "4000"])
@pytest.mark.parametrize("scenario", [[], ["--set", "epsilon=0.001"]])
def test_cli_allocate_rejects_a_non_finite_relay_snr(scenario, snr_r_db,
                                                     capsys):
    # the relay SNR is checked before the no-access exit: at epsilon 0.001
    # the default scenario admits no secondary, and the value is still an
    # error, not an infeasible allocation
    argv = [*scenario, "allocate", "--snr-r-db", snr_r_db]
    assert cli_main(argv) == 1
    assert capsys.readouterr() == ("", "error: snr_r must be finite\n")


_SECONDARY_SNR_OVERFLOWS = ("admitted secondary SNR overflows: link variance "
                            "pp is too large or sp too small")


@pytest.mark.parametrize("overrides, command, message", [
    (["link_vars.sp=1e-320"], ["analytic"], _SECONDARY_SNR_OVERFLOWS),
    (["link_vars.sp=1e-320"], ["allocate"], _SECONDARY_SNR_OVERFLOWS),
    (["link_vars.sp=1e-320"], ["simulate"], _SECONDARY_SNR_OVERFLOWS),
    (["link_vars.ss=1e300", "link_vars.sp=1e-10"], ["analytic"],
     "mean gain of link ss overflows"),
    (["link_vars.pr=1e300", "snr_p_db=200"], ["analytic"],
     "mean gain of link pr overflows"),
    # a 1000 dB primary over a -1000 dB relay and a huge ss link: the
    # secondary's weak-relay expansion reads inf/inf, a NaN result
    (["snr_p_db=1000", "snr_r_db=-1000", "link_vars.ss=1e200"],
     ["analytic", "--alpha", "0"],
     "full-power secondary outage overflows: the mean gains of links ss, ps "
     "and rs are out of range"),
    # a ps link of 1.46e-259: the full-power secondary integral's coefficient
    # c = (1/g_rs - 1/g_ss)/g_ps is past double range
    (["link_vars.pp=4.84e+33", "link_vars.sp=3.89e+35", "link_vars.ps=1.46e-259",
      "link_vars.ss=4.56e-112", "link_vars.pr=4.14e-59", "link_vars.sr=8.99e+30",
      "link_vars.rp=6.84e-57", "link_vars.rs=2.53e+159", "snr_p_db=-10.55",
      "snr_r_db=216.76"], ["analytic", "--alpha", "0"],
     "full-power secondary outage overflows: the mean gains of links ss, ps "
     "and rs are out of range"),
    # tiny ss, ps and rs links: the weak-relay expansion divides by d*d,
    # which underflows to 0
    (["link_vars.pp=3.04e+92", "link_vars.sp=1.71e+268",
      "link_vars.ps=5.72e-230", "link_vars.ss=8.81e-77",
      "link_vars.pr=1.07e-188", "link_vars.sr=9e+283", "link_vars.rp=9.66e-233",
      "link_vars.rs=1.38e-288", "snr_p_db=86.42", "snr_r_db=-640.07"],
     ["analytic", "--alpha", "0"],
     "full-power secondary outage underflows: the mean gains of links ss, ps "
     "and rs are out of range"),
    # the adaptive quadrature hits its depth cap on [2e-285, 3e29]
    (["link_vars.pp=1.05e-09", "link_vars.sp=5.39e+09", "link_vars.ps=3.75e+04",
      "link_vars.ss=3.95e-309", "link_vars.pr=7.54e-48",
      "link_vars.sr=3.36e-207", "link_vars.rp=2.74e-318",
      "link_vars.rs=3.06e+175", "snr_p_db=434.27", "snr_r_db=-159.04"],
     ["analytic", "--alpha", "0"],
     "full-power secondary outage does not converge: the mean gains of links "
     "ss, ps and rs are out of range"),
    # the quadrature's exponent c*x + shift cancels two terms near 7e19,
    # and the rounding left over overflows exp
    (["rate_p=0.6320358722067694", "rate_s=0.12501383767923258",
      "epsilon=0.09310726660037971", "snr_p_db=53.34007886245094",
      "snr_r_db=-47.72278596776293", "link_vars.pp=33092472529.19655",
      "link_vars.sp=0.00013669490147871384",
      "link_vars.ps=0.002960680217220911",
      "link_vars.ss=0.07261769066378727", "link_vars.sr=3488278132.3369083"],
     ["analytic", "--alpha", "0"],
     "full-power secondary outage overflows: the mean gains of links ss, ps "
     "and rs are out of range"),
    # a 1940 dB relay over a 1e-243 ss link: the secondary integral's panels
    # sum to -inf (its scale g_ss/(g_ps*g_rs) underflows to 0)
    (["rate_p=1.25", "rate_s=1.48", "epsilon=0.18", "snr_p_db=322.24",
      "snr_r_db=1940", "link_vars.sp=1", "link_vars.ps=1.09e70",
      "link_vars.ss=1.66e-243"], ["analytic", "--alpha", "0"],
     "full-power secondary outage overflows: the mean gains of links ss, ps "
     "and rs are out of range"),
    # the relay-silent form doubles g_ss past double range
    *[(["snr_p_db=3000", "link_vars.ss=123969069.37988251"], [command],
       "relay-silent secondary outage overflows: the mean gain of link ss is "
       "out of range") for command in ("analytic", "allocate")],
    # just above the cutoff snr_s * var_ss rounds to 0: the exact forms and
    # the bounds name it alike
    *[(["link_vars.ss=5e-324", "snr_p_db=10.22"], ["analytic", "--alpha", a],
       "secondary direct gain must be positive") for a in ("0", "0.5", "1")],
    # snr_p * var_pp underflows to 0, which the admission rule divides by
    *[(["snr_p_db=-3000", "link_vars.pp=1e-300"], [command],
       "mean gain of link pp underflows")
      for command in ("analytic", "allocate", "simulate")],
    # a relay draw up to 36.7 times its mean gain overflows the kernel's
    # relayed term; the closed forms keep their wider domain
    (["snr_r_db=3080"], ["simulate", "--alpha", "0.3"],
     "mean gain of link rp overflows a simulated draw"),
    # a finite mean gain, but the draw overflows before the SNR scales it
    (["link_vars.rs=1e308", "snr_r_db=-100"], ["simulate"],
     "variance of link rs overflows a simulated draw"),
], ids=["sp-analytic", "sp-allocate", "sp-simulate", "ss-gain", "pr-gain",
        "nan-conditional", "full-power-secondary", "full-power-underflow",
        "full-power-no-convergence", "full-power-exp-overflow",
        "full-power-sum-overflow", "relay-silent-analytic",
        "relay-silent-allocate",
        "ss-underflow-alpha-0",
        "ss-underflow-alpha-0.5", "ss-underflow-alpha-1",
        "pp-underflow-analytic", "pp-underflow-allocate",
        "pp-underflow-simulate", "rp-draw-simulate", "rs-draw-simulate"])
def test_cli_rejects_overflowing_scenario(overrides, command, message, capsys):
    # an overflow is refused, never printed as a NaN outage or a 0 +- 0
    # estimate
    argv = [a for item in overrides for a in ("--set", item)]
    assert cli_main(["--trials", "1000", *argv, *command]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


_SEED_LIMIT = 2 ** 128


@pytest.mark.parametrize("command", [["reproduce", "--target", "all"],
                                     ["simulate"]], ids=["reproduce", "simulate"])
def test_cli_rejects_seed_beyond_philox_key(command, tmp_path, capsys):
    assert cli_main(["--out-dir", str(tmp_path), "--seed", str(_SEED_LIMIT),
                     *command]) == 1
    assert capsys.readouterr() == ("", "error: seed must be below 2**128\n")
    assert not any(tmp_path.iterdir())


def test_cli_accepts_largest_seed(capsys):
    assert cli_main(["--seed", str(_SEED_LIMIT - 1), "--trials", "1000",
                     "simulate"]) == 0
    assert "secondary outage:" in capsys.readouterr().out


@pytest.mark.parametrize("alpha", ["1.5", "-0.5", "nan"])
def test_cli_analytic_rejects_split_before_printing(alpha, capsys):
    assert cli_main(["analytic", "--alpha", alpha]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


def test_cli_analytic_converges_on_wide_quadrature_interval(capsys):
    # the full-power secondary form integrates over [5e-5, 3e4] here
    argv = ["--set", "rate_p=1", "--set", "rate_s=1", "--set", "snr_p_db=40",
            "--set", "snr_r_db=0", "--set", "epsilon=1e-4",
            "--set", "link_vars.ps=1", "--set", "link_vars.sp=1",
            "analytic", "--alpha", "0"]
    assert cli_main(argv) == 0
    assert "nan" not in capsys.readouterr().out


@pytest.mark.parametrize("override, cutoff", [
    ("epsilon=5e-324", "3228"),
    ("link_vars.pp=2.2250738585072014e-308", "3087"),
])
def test_cli_analytic_cutoff_beyond_double_range(override, cutoff, capsys):
    # the linear cutoff overflows; its dB value is finite
    assert cli_main(["--set", override, "analytic"]) == 0
    assert f"(admission cutoff {cutoff} dB)" in capsys.readouterr().out


def test_cli_accepts_silent_relay(capsys):
    assert cli_main(["--set", "snr_r_db=-inf", "analytic"]) == 0
    assert "nan" not in capsys.readouterr().out


_EVERY_COMMAND = dict(
    simulate=["simulate"],
    verify=["verify"],
    sweep=["sweep", "--axis", "snr_p_db", "--start", "20", "--stop", "20",
           "--step", "1"],
    reproduce=["reproduce", "--target", "fig3"],
    analytic=["analytic"],
    allocate=["allocate"],
    region=["region"],
)


@pytest.mark.parametrize("command", _EVERY_COMMAND.values(),
                         ids=_EVERY_COMMAND.keys())
def test_cli_rejects_zero_trials(command, tmp_path, capsys):
    assert cli_main(["--out-dir", str(tmp_path), "--trials", "0",
                     *command]) == 1
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize("option, message", [
    (["--workers", "0"], "workers must be at least 1"),
    (["--seed", "-1"], "seed must be a nonnegative integer"),
], ids=["workers", "seed"])
@pytest.mark.parametrize("command", _EVERY_COMMAND.values(),
                         ids=_EVERY_COMMAND.keys())
def test_cli_rejects_bad_workers_and_seed(command, option, message, tmp_path,
                                          capsys):
    # the same message whether or not the subcommand reads the option
    assert cli_main(["--out-dir", str(tmp_path), *option, *command]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")
    assert not any(tmp_path.iterdir())


def test_cli_sweep_rejects_oversized_axis(capsys):
    rc = cli_main(["sweep", "--axis", "snr_p_db", "--start", "5",
                   "--stop", "30", "--step", "1e-9", "--mode", "analytic"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_sweep_rejects_relay_axis_under_min_policy(capsys):
    rc = cli_main(["sweep", "--mode", "analytic", "--axis", "snr_r_db",
                   "--start", "0", "--stop", "20", "--step", "10",
                   "--snr-r-policy", "min_for_epsilon"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err.startswith("error: axis snr_r_db ")
    assert "snr_r_policy min_for_epsilon" in err


@pytest.mark.parametrize("snr_r_db", ["-90", "-140", "-200", "-300", "-1000",
                                      "-3080", "-3236"])
@pytest.mark.parametrize("alpha", ["0", "1"])
def test_cli_analytic_weak_relay(snr_r_db, alpha, capsys):
    # the relay-aided user's exact form reaches its no-relay limit
    assert cli_main(["--set", f"snr_r_db={snr_r_db}", "analytic",
                     "--alpha", alpha]) == 0
    out = capsys.readouterr().out
    assert "nan" not in out
    assert ("pri_d1=0.0671857" if alpha == "1" else "sec_d1=0.0391747") in out


@pytest.mark.parametrize("exc", [QuadratureError("no convergence"),
                                 OverflowError("math range error")])
def test_cli_arithmetic_error_exits_1(exc, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr("crrelay.analytic.integrate_exp_over_x", fail)
    assert cli_main(["analytic", "--alpha", "1"]) == 1
    # a quadrature failure or overflow is reported by the form that ran it
    message = ("full-power primary outage {}: the mean gains of links pp, sp "
               "and rp are out of range").format(
        "does not converge" if isinstance(exc, QuadratureError)
        else "overflows")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["allocate", "--epsilon", "0.05"],
    ["region", "--rate-p", "0.4"],
    ["--quad-tol", "1e-6", "analytic"],
    ["--trials", "abc", "simulate"],
    ["nope"],
], ids=["allocate-epsilon", "region-rate-p", "quad-tol", "bad-trials",
        "unknown-command"])
def test_cli_usage_error_exits_1(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(argv)
    assert exit_info.value.code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--set", "epsilon=0.09"],
                                    ["--config", "scenario.cfg"]])
def test_cli_reproduce_rejects_scenario_options(option, tmp_path, capsys):
    assert cli_main(["--out-dir", str(tmp_path), *option, "reproduce",
                     "--target", "table1"]) == 1
    assert f"error: reproduce takes no {option[0]}" in capsys.readouterr().err
    assert not (tmp_path / "table1.csv").exists()


def _run_cli(argv, capsys):
    """Exit code, standard output and standard error of one main(argv) call;
    a usage error leaves main through SystemExit."""
    try:
        code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


_TOP_USAGE = (
    "usage: crrelay [-h] [--config CONFIG] [--set KEY=VAL] [--seed SEED]\n"
    "               [--trials TRIALS] [--workers WORKERS] [--out-dir OUT_DIR]\n"
    "               {analytic,simulate,allocate,region,sweep,reproduce,verify} ...\n"
)

# outputs taken while main still built a new parser on every call
_ONE_PROCESS_CALLS = [
    (["--set", "epsilon=0.05", "allocate"], 0,
     "alpha=0.426346 snr_r=1000 (30 dB)\n"
     "primary bound:          0.05\n"
     "secondary outage bound: 0.000151436\n", ""),
    (["allocate"], 0,
     "alpha=0.42637 snr_r=1000 (30 dB)\n"
     "primary bound:          0.03\n"
     "secondary outage bound: 0.000317925\n", ""),
    (["analytic", "--alpha", "x"], 1, "",
     "usage: crrelay analytic [-h] [--alpha ALPHA]\n"
     "crrelay analytic: error: argument --alpha: invalid float value: 'x'\n"),
    (["--set", "bogus"], 1, "",
     _TOP_USAGE + "crrelay: error: the following arguments are required: "
                  "command\n"),
    (["analytic", "--alpha", "1"], 0,
     "secondary snr: 86.5055 (admission cutoff 10.21 dB)\n"
     "relay activation: 0.985473\n"
     "total secondary outage (exact): 0.0388954\n"
     "total primary outage (exact):   0.00294644\n"
     "conditionals: pri_d0=0.0346429 sec_d0=0.0199442 pri_d1=0.00247919 "
     "sec_d1=0.0391747 (d1 exact)\n", ""),
]


def test_cli_calls_in_one_process_are_independent(monkeypatch, capsys):
    # the process keeps one parser; no call's options or failure reach the next
    monkeypatch.setenv("COLUMNS", "80")
    for argv, *expected in _ONE_PROCESS_CALLS:
        assert _run_cli(argv, capsys) == tuple(expected), argv


_HELP_SHA256 = {
    None: "d47cb3725ed8b9e93c823add675137b3dc479c1c5e89a2ed331df6eea90954da",
    "analytic": "e80e8e648dc55ee9f42f9b04c1267cd03fd44e2bd762177d9ba44d0f55ef8242",
    "simulate": "07349e476660d5d9f6f1b16187de77906d6b9e11ccf74476321b8149bb3a867f",
    "allocate": "ecf09228439092ccc8a70b899038d456ac6d3481a98b09edfe440b19e499d454",
    "region": "6bf20f93a4c730383145f882a5c64b22753a98075f73dcde4977435ea1995a3e",
    "sweep": "5858faff7434fb1a7c3aecc359fcc3b2711f54839ecb01c4af49805977070883",
    "reproduce": "691fb6a7c814e423985232eed5a3cb4443101935bdcf5ad11db8e6f3b856afaa",
    "verify": "512e7901cb85783a4da97cb2c7e4652abc0855e19de06e68e70bec1879a99b94",
}


def test_cli_help_text_pinned(monkeypatch, capsys):
    # the same text from a newly built parser and from the reused one
    monkeypatch.setenv("COLUMNS", "80")
    for reused in (False, True):
        for command, digest in _HELP_SHA256.items():
            if not reused:
                crrelay.cli._build_parser.cache_clear()
            argv = ["--help"] if command is None else [command, "--help"]
            code, out, err = _run_cli(argv, capsys)
            assert (code, err) == (0, ""), (command, reused)
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, \
                (command, reused)


def test_cli_parser_built_on_first_call_only():
    # importing the CLI builds no parser, so a cold start never pays for it;
    # the first main call builds it and later calls reuse it
    code = ("import contextlib, io, crrelay, crrelay.cli as cli\n"
            "built = [cli._build_parser.cache_info().misses]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for _ in range(2):\n"
            "        cli.main(['region'])\n"
            "        built.append(cli._build_parser.cache_info().misses)\n"
            "print(built)\n")
    src = Path(crrelay.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[0, 1, 1]"


_SWEEP_USAGE = (
    "usage: crrelay sweep [-h] --axis\n"
    "                     {snr_p_db,snr_r_db,epsilon,alpha,rate_p,rate_s,mu1,"
    "mu2,var_pp,var_sp,var_ps,var_ss,var_pr,var_sr,var_rp,var_rs}\n"
    "                     --start START --stop STOP --step STEP "
    "[--schemes SCHEMES]\n"
    "                     [--mode {analytic,montecarlo,both}] [--alpha ALPHA]\n"
    "                     [--snr-r-policy {fixed,min_for_epsilon}] [--out OUT]\n"
)

# argparse's own stderr for argv the plain-argv reader hands back to it
_FALLBACK_ERRORS = [
    (["--seed", "x", "region"],
     _TOP_USAGE + "crrelay: error: argument --seed: invalid int value: 'x'\n"),
    (["simulate", "--scheme", "bogus"],
     "usage: crrelay simulate [-h] [--alpha ALPHA]\n"
     "                        [--scheme {proposed,noncooperative,"
     "relay_assisted_secondary}]\n"
     "crrelay simulate: error: argument --scheme: invalid choice: 'bogus' "
     "(choose from 'proposed', 'noncooperative', "
     "'relay_assisted_secondary')\n"),
    (["sweep", "--start", "1", "--stop", "2", "--step", "1"],
     _SWEEP_USAGE + "crrelay sweep: error: the following arguments are "
                    "required: --axis\n"),
    (["--set", "epsilon=0.05", "--set"],
     _TOP_USAGE + "crrelay: error: argument --set: expected one argument\n"),
]


@pytest.mark.parametrize("argv, err", _FALLBACK_ERRORS,
                         ids=["bad-int", "bad-choice", "missing-required",
                              "missing-value"])
def test_cli_non_plain_argv_keeps_argparse_errors(argv, err, monkeypatch,
                                                   capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert crrelay.cli._plain_args(crrelay.cli._build_parser(), argv) is None
    assert _run_cli(argv, capsys) == (1, "", err)


def test_cli_abbreviation_still_parsed_by_argparse(capsys):
    argv = ["analytic", "--alp", "1"]
    assert crrelay.cli._plain_args(crrelay.cli._build_parser(), argv) is None
    assert _run_cli(argv, capsys) == _run_cli(["analytic", "--alpha", "1"],
                                              capsys)


@pytest.mark.parametrize("edit", ["set_defaults", "exclusive", "typed_default"])
def test_plain_args_leave_uncopied_parser_features_to_argparse(edit):
    # parser features the reader does not copy send every argv to argparse;
    # edit a fresh parser, not the one main reuses
    parser = crrelay.cli._build_parser.__wrapped__()
    argv = ["analytic", "--alpha", "1"]
    assert crrelay.cli._plain_args(parser, argv) is not None
    if edit == "set_defaults":
        parser.set_defaults(extra=1)
    elif edit == "exclusive":
        parser.add_mutually_exclusive_group().add_argument("--quiet")
    else:
        parser.add_argument("--level", type=int, default="3")
    assert crrelay.cli._plain_args(parser, argv) is None


def test_plain_args_match_argparse():
    from hypothesis import given, settings, strategies as st
    from test_properties import PROPERTY_SETTINGS

    parser = crrelay.cli._build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = sorted({option for p in (parser, *commands.values())
                      for option in p._option_string_actions})
    edges = ["--se", "--alp", "--set=a=1", "--seed=3", "-h", "--help", "--",
             "-1", "-0.5", "", "a=b", " 2"]
    # a token anywhere: an option of any level, an edge, a value that
    # fails int, float or choices, or a subcommand name
    token = st.sampled_from(options + edges + ["x", "1.5", "bogus", "nan",
                                               *commands])

    def good_value(action):
        if action.choices is not None:
            return st.sampled_from(list(action.choices))
        return st.sampled_from(
            {int: ["0", "3", "2147483647"], float: ["0.5", "1e6", "nan"]}
            .get(action.type, ["epsilon=0.05", "out.csv", "a=b"]))

    @st.composite
    def argvs(draw):
        # plain argv, save that one token in six is drawn from anything
        def pick(good):
            return draw(token if draw(st.integers(0, 5)) == 5 else good)

        def options_of(level):
            # the level's required options, then up to four more
            table = level._option_string_actions
            required = [action.option_strings[0] for action in level._actions
                        if action.required and action.option_strings]
            argv = []
            for option in required + draw(st.lists(
                    st.sampled_from(sorted(table)), max_size=4)):
                option = pick(st.just(option))
                action = table.get(option)
                argv += [option, pick(good_value(action)) if action
                         else draw(token)]
            return argv

        command = pick(st.sampled_from(sorted(commands)))
        argv = [*options_of(parser), command,
                *options_of(commands.get(command, parser))]
        if draw(st.integers(0, 5)) == 5:
            argv.append(draw(token))
        return argv

    def text(namespace):
        # repr tells 1 from 1.0 and compares nan equal to itself
        return {key: repr(value) for key, value in vars(namespace).items()}

    taken = []

    @settings(max_examples=1000, **PROPERTY_SETTINGS)
    @given(argv=argvs())
    def check(argv):
        fast = crrelay.cli._plain_args(parser, argv)
        if fast is None:
            return
        try:
            want = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse rejects {argv}")
        assert text(fast) == text(want), argv
        taken.append(fast.command)

    check()
    # the reader took a fair share of the draws, of every subcommand
    assert len(taken) > 100 and set(taken) == set(commands)


# ---- module boundaries --------------------------------------------------------

def test_traced_bindings_exist(monkeypatch):
    # the benchmark's count metrics read these cross-layer bindings; one that
    # a refactor drops would only show up as a missing span in a traced run
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    for caller, name in tracing.COUNTED:
        fn = getattr(importlib.import_module(f"crrelay.{caller}"), name, None)
        assert isinstance(fn, types.FunctionType), f"crrelay.{caller}.{name}"
        package, _, layer = fn.__module__.rpartition(".")
        assert package == "crrelay", f"crrelay.{caller}.{name}"
        assert layer in tracing.LAYERS and layer != caller, (caller, name, layer)


def _defined_names(stmt):
    """Names a top-level statement defines (imports excluded)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _referenced_names(stmt):
    """Names a statement reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_package_defines_no_unused_names():
    # every top-level name of a package module is read by some other
    # top-level statement of the package (a re-export in __init__ included),
    # and every method of a package class by some package statement outside
    # its own def, save dunders and overrides of a base-class method
    package = Path(crrelay.__file__).parent
    statements = [(path.stem, stmt)
                  for path in sorted(package.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    refs = [_referenced_names(stmt) for _, stmt in statements]
    unused = [
        f"{module}.{name}"
        for k, (module, stmt) in enumerate(statements)
        for name in _defined_names(stmt)
        if not _is_dunder(name)
        and not any(name in r for j, r in enumerate(refs) if j != k)]
    # a class body's statements stand apart, so a method read only inside
    # its own def counts as unused
    units = [unit for _, stmt in statements for unit in
             (stmt.body if isinstance(stmt, ast.ClassDef) else [stmt])]
    unit_refs = [(unit, _referenced_names(unit)) for unit in units]
    for module, stmt in statements:
        if not isinstance(stmt, ast.ClassDef):
            continue
        cls = getattr(importlib.import_module(f"crrelay.{module}"), stmt.name)
        unused += [
            f"{module}.{stmt.name}.{method.name}" for method in stmt.body
            if isinstance(method, ast.FunctionDef)
            and not _is_dunder(method.name)
            and not any(hasattr(base, method.name) for base in cls.__mro__[1:])
            and not any(method.name in r
                        for unit, r in unit_refs if unit is not method)]
    assert sorted(unused) == []


def test_package_records_are_immutable():
    # every record the package defines is built once and never mutated, so a
    # cached result can be shared by every caller that reads it: each is a
    # namedtuple subclass whose instances have no __dict__ to write to
    package = Path(crrelay.__file__).parent
    records = [
        cls for path in sorted(package.glob("*.py")) if path.stem != "__init__"
        for cls in vars(importlib.import_module(f"crrelay.{path.stem}")).values()
        if isinstance(cls, type) and issubclass(cls, tuple)
        and cls.__module__ == f"crrelay.{path.stem}"]
    assert sorted(cls.__name__ for cls in records) == [
        "AllocationResult", "Check", "DerivedParams", "LinkTable", "Oracle",
        "OutageEstimate", "OutageSummary", "Report", "ResultRow",
        "SchemeEstimates", "SystemParams"]
    for cls in records:
        assert cls.__dict__.get("__slots__") == (), cls
        record = tuple.__new__(cls, (0.0,) * len(cls._fields))
        assert not hasattr(record, "__dict__"), cls
        for name in (cls._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1.0)


@pytest.mark.parametrize("module", ["harness", "cli"])
def test_front_ends_import_no_private_names(module):
    # the harness and the CLI use the layers below them only through their
    # public names; a private helper they need belongs to its owner's API
    source = Path(crrelay.__file__).with_name(f"{module}.py").read_text()
    private = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("crrelay"))
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []


def test_closed_forms_take_no_scenario_field():
    # epsilon and the rates are read from the scenario a function already
    # takes, so there is one way to pass each; none of the layers below the
    # front ends accepts them beside it
    passed = [
        (module, node.name, arg.arg)
        for module in ("analytic", "allocation", "system")
        for node in ast.parse(Path(crrelay.__file__).with_name(
            f"{module}.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        for arg in (*node.args.posonlyargs, *node.args.args,
                    *node.args.kwonlyargs)
        if arg.arg in ("epsilon", "rate_p", "rate_s")
    ]
    assert passed == []


def test_every_closed_form_has_an_oracle():
    # every public closed form of a scenario fills a scheme's _closed_forms
    # record, itself or through total_secondary_outage, and ORACLES judges
    # every field of that record but bound; the exact activation form joins
    # verify once verify's pins may move.  A generator expression's names
    # sit in a nested code object, so those are read too
    codes = [_closed_forms.__code__,
             crrelay.analytic.total_secondary_outage.__code__]
    named = set()
    while codes:
        code = codes.pop()
        named.update(code.co_names)
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    forms = {name for name, fn in vars(crrelay.analytic).items()
             if isinstance(fn, types.FunctionType) and not name.startswith("_")
             and fn.__module__ == "crrelay.analytic"
             and fn.__code__.co_varnames[:1] == ("derived",)}
    assert forms - named == {"prob_relay_active_exact"}
    fields = [row.field for row in ORACLES]
    assert set(fields) == set(OutageSummary._fields) - {"bound"}, fields


# ---- documentation -------------------------------------------------------------

def test_readme_quick_start_runs():
    # the README's Quick start block, run as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def test_readme_scenario_config_is_the_default(tmp_path):
    # the README's Scenario config block, read as a config file, is the
    # complete built-in default
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Scenario config", 1)[1]
    path = tmp_path / "scenario.cfg"
    path.write_text(block.split("```\n", 1)[1].split("```", 1)[0])
    assert load_config(path) == default_params()
