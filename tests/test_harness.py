import ast
import csv
import hashlib
import importlib
import io
import subprocess
import sys
import types
from pathlib import Path

import pytest

import crrelay.analytic
import crrelay.cli
from crrelay import (
    QuadratureError,
    SweepSpec,
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
    _CSV_COLUMNS,
    REPRODUCE_TARGETS,
    config_text,
    parse_config_text,
)


def rows_from_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


# ---- config -----------------------------------------------------------------

def test_config_round_trip(tmp_path):
    params = table1_params(0.07)
    path = tmp_path / "scenario.cfg"
    path.write_text(config_text(params))
    assert load_config(path) == params


def test_config_comments_and_blanks(tmp_path):
    text = config_text(default_params())
    path = tmp_path / "scenario.cfg"
    path.write_text("# scenario\n\n" + text + "\nepsilon = 0.05  # override\n")
    assert load_config(path).epsilon == 0.05


def test_config_overrides_win(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(config_text(default_params()))
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
    unknown.write_text(config_text(default_params()) + "bogus_key = 1\n")
    with pytest.raises(ValueError):
        load_config(unknown)
    with pytest.raises(ValueError):
        load_config(None, overrides=("epsilon0.08",))


def test_default_config_is_baseline():
    assert load_config(None) == default_params()


# ---- sweeps -----------------------------------------------------------------

def test_sweep_shape_and_columns():
    spec = SweepSpec(scenario=default_params(), axis="snr_p_db",
                     values=(18.0, 20.0, 22.0),
                     schemes=("proposed", "noncooperative"), mode="analytic")
    table = run_sweep(spec)
    assert len(table) == 6
    text = sweep_csv(table).decode("utf-8")
    rows = rows_from_csv(text)
    assert tuple(rows[0].keys()) == _CSV_COLUMNS
    assert text.count("\r\n") == 7
    noncoop = [r for r in rows if r["scheme"] == "noncooperative"]
    assert all(r["alpha"] == "" and r["snr_r"] == "" for r in noncoop)
    assert all(r["mc_sec"] == "" for r in rows)          # analytic mode
    assert all(r["error"] == "" for r in rows)


def test_sweep_spec_validation():
    params = default_params()
    with pytest.raises(ValueError):
        SweepSpec(scenario=params, axis="bogus", values=(1.0,))
    with pytest.raises(ValueError):
        SweepSpec(scenario=params, axis="alpha", values=())
    with pytest.raises(ValueError):
        SweepSpec(scenario=params, axis="alpha", values=(0.5,), mode="maybe")
    with pytest.raises(ValueError):
        SweepSpec(scenario=params, axis="alpha", values=(0.5,),
                  schemes=("psychic",))
    with pytest.raises(ValueError):
        SweepSpec(scenario=params, axis="alpha", values=(0.5,), trials=0)
    with pytest.raises(ValueError, match="snr_r_policy must be"):
        SweepSpec(scenario=params, axis="alpha", values=(0.5,),
                  snr_r_policy="bogus")
    # the policy would overwrite every relay SNR the axis sets
    with pytest.raises(ValueError,
                       match="axis snr_r_db .* snr_r_policy min_for_epsilon"):
        SweepSpec(scenario=params, axis="snr_r_db", values=(0.0, 10.0),
                  snr_r_policy="min_for_epsilon")
    with pytest.raises(ValueError):
        SweepSpec.from_range(params, "alpha", 0.5, 0.4, 0.1)


def test_sweep_from_range_inclusive():
    spec = SweepSpec.from_range(default_params(), "snr_p_db", 5.0, 30.0, 1.0,
                                mode="analytic")
    assert len(spec.values) == 26
    assert spec.values[0] == 5.0 and spec.values[-1] == 30.0


def test_sweep_from_range_caps_axis_length():
    from crrelay.harness import MAX_SWEEP_POINTS
    params = default_params()
    # ~2.5e10 points: must be refused before any value is built
    with pytest.raises(ValueError, match="points"):
        SweepSpec.from_range(params, "snr_p_db", 5.0, 30.0, 1e-9)
    spec = SweepSpec.from_range(params, "alpha", 0.0, MAX_SWEEP_POINTS - 1,
                                1.0, mode="analytic")
    assert len(spec.values) == MAX_SWEEP_POINTS
    with pytest.raises(ValueError, match="points"):
        SweepSpec.from_range(params, "alpha", 0.0, MAX_SWEEP_POINTS, 1.0)
    with pytest.raises(ValueError, match="finite"):
        SweepSpec.from_range(params, "snr_p_db", 5.0, float("inf"), 1.0)


def test_sweep_error_rows_do_not_abort():
    spec = SweepSpec(scenario=default_params(), axis="epsilon",
                     values=(0.05, 1.5), mode="analytic")
    table = run_sweep(spec)
    good = [r for r in table if r.value == 0.05]
    bad = [r for r in table if r.value == 1.5]
    assert all(not r.error for r in good)
    assert all("epsilon" in r.error for r in bad)
    assert all(r.analytic_sec is None for r in bad)


def test_sweep_simulation_errors_stay_per_row():
    # an invalid worker count fails every simulated row, after its analytic
    # cells are filled; a split out of range keeps its own message
    spec = SweepSpec(scenario=default_params(), axis="alpha",
                     values=(0.5, 1.5), schemes=("proposed",), mode="both",
                     trials=1000)
    ok, bad = run_sweep(spec, workers=0)
    assert ok.error == "workers must be at least 1"
    assert ok.analytic_sec is not None and ok.mc_sec is None
    assert bad.error == "alpha must lie in [0, 1]"


def test_sweep_below_cutoff_reports_certain_outage():
    spec = SweepSpec(scenario=default_params(), axis="snr_p_db",
                     values=(6.0, 8.0), schemes=("proposed", "noncooperative"),
                     mode="both", trials=2000)
    table = run_sweep(spec)
    for row in table:
        assert row.snr_s == 0.0
        assert row.analytic_sec == 1.0
        assert row.mc_sec == 1.0


def test_sweep_alpha_axis_and_min_policy():
    spec = SweepSpec(scenario=default_params(), axis="alpha",
                     values=(0.3, 0.5, 1.0), mode="analytic",
                     snr_r_policy="min_for_epsilon")
    table = run_sweep(spec)
    by_alpha = {r.value: r for r in table}
    derived = derive(default_params())
    assert by_alpha[0.5].snr_r == pytest.approx(
        min_snr_r_for_epsilon(derived, 0.5, 0.03), rel=1e-12)
    assert by_alpha[0.5].alpha == 0.5
    # below the split floor the target cannot be met: outage 1, flagged
    assert by_alpha[0.3].analytic_sec == 1.0
    assert "infeasible" in by_alpha[0.3].error


def test_sweep_mu_axes_update_link_pairs():
    spec = SweepSpec(scenario=default_params(), axis="mu1", values=(0.5,),
                     mode="analytic")
    run_sweep(spec)   # smoke: axis accepted
    from crrelay.harness import _apply_axis
    params, _ = _apply_axis(default_params(), "mu1", 0.5, 0.5)
    assert params.link_vars.pr == 0.5 and params.link_vars.rp == 0.5
    params, _ = _apply_axis(default_params(), "mu2", 0.2, 0.5)
    assert params.link_vars.sr == 0.2 and params.link_vars.rs == 0.2
    params, _ = _apply_axis(default_params(), "var_ss", 0.7, 0.5)
    assert params.link_vars.ss == 0.7


def test_sweep_csv_byte_stable_across_runs_and_workers():
    spec = SweepSpec(scenario=default_params(), axis="snr_p_db",
                     values=(15.0, 20.0), schemes=("proposed",), mode="both",
                     trials=20_000, seed=3)
    ref = sweep_csv(run_sweep(spec, workers=1))
    assert sweep_csv(run_sweep(spec, workers=1)) == ref
    assert sweep_csv(run_sweep(spec, workers=4)) == ref


# Standard output of CLI sweeps, with the set of row errors each must show.
# The first splits 300_001 trials into chunks (the last one partial) over two
# workers, the second mixes analytic and simulated cells; both keep
# out-of-range splits as per-row errors.  The min_for_epsilon cases cover the
# infeasible rows below the split floor, the floor itself, and the splits
# above 1 (the last range point rounds to just above 1).
_OUT_OF_RANGE = "alpha must lie in [0, 1]"
_BELOW_FLOOR = "infeasible: split at or below the primary-bound floor"
_ABOVE_ONE = "alpha must be at most 1"
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
        "9e9f9c0c10e7ede76243fb531c28552cf12c6c54cd0b402784a3f65692610930",
        {_OUT_OF_RANGE},
    ),
    "alpha-min-policy": (
        ["sweep", "--snr-r-policy", "min_for_epsilon", "--axis", "alpha",
         "--start", "-0.2", "--stop", "1.2", "--step", "0.1"],
        "7ed76f1e4d4134ff1537d13eb318729429d52590b979cfbdadb71faef42452c2",
        {_BELOW_FLOOR, _ABOVE_ONE},
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

    def counted(spec, *args, **kwargs):
        specs.append(spec)
        return sweep(spec, *args, **kwargs)
    monkeypatch.setattr(harness, "run_sweep", counted)
    harness._min_relay_curve.cache_clear()
    for target in ("fig4", "fig5", "fig6"):
        reproduce(target, out_dir=tmp_path)
    assert len(specs) == 9
    assert len({(s.scenario, s.alpha, s.values) for s in specs}) == 9
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


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("CRRELAY_OUT_DIR", str(tmp_path / "envout"))
    report = reproduce("fig2")
    assert all(str(f).startswith(str(tmp_path / "envout"))
               for f in report.files)


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
    # analytic and verify read the conditionals the totals mixed instead of
    # evaluating them again: one quadrature for the relay-aided user
    calls = []
    integrate = crrelay.analytic.integrate_exp_over_x

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)
    monkeypatch.setattr(crrelay.analytic, "integrate_exp_over_x", counted)
    assert cli_main(["analytic", "--alpha", "1"]) == 0
    assert "(d1 exact)" in capsys.readouterr().out
    assert len(calls) == 1
    calls.clear()
    report = compare_analytic_mc(default_params(), alpha=1.0, trials=1_000)
    assert any("(exact)" in c.name for c in report.checks)
    assert len(calls) == 1


def test_compare_analytic_mc_no_secondary(table1):
    report = compare_analytic_mc(table1.with_epsilon(1e-9), 0.5,
                                 trials=5_000, seed=5)
    assert report.ok
    assert any("no secondary access" in c.name for c in report.checks)


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
    (["snr_p_db=1000", "snr_r_db=-1000", "link_vars.ss=1e200"],
     ["analytic", "--alpha", "0"], "an outage probability evaluated to NaN"),
    # c = (1/g_rs - 1/g_ss)/g_ps of the full-power secondary form overflows
    (["link_vars.pp=4.84e+33", "link_vars.sp=3.89e+35", "link_vars.ps=1.46e-259",
      "link_vars.ss=4.56e-112", "link_vars.pr=4.14e-59", "link_vars.sr=8.99e+30",
      "link_vars.rp=6.84e-57", "link_vars.rs=2.53e+159", "snr_p_db=-10.55",
      "snr_r_db=216.76"], ["analytic", "--alpha", "0"],
     "full-power secondary outage overflows: the mean gains of links ss, ps "
     "and rs are out of range"),
    # the weak-relay limit's d*d underflows to 0
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
    # just above the cutoff snr_s * var_ss rounds to 0: the exact forms and
    # the bounds name it alike
    *[(["link_vars.ss=5e-324", "snr_p_db=10.22"], ["analytic", "--alpha", a],
       "secondary direct gain must be positive") for a in ("0", "0.5", "1")],
], ids=["sp-analytic", "sp-allocate", "sp-simulate", "ss-gain", "pr-gain",
        "nan-conditional", "full-power-secondary", "full-power-underflow",
        "full-power-no-convergence", "ss-underflow-alpha-0",
        "ss-underflow-alpha-0.5", "ss-underflow-alpha-1"])
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
    # a quadrature failure is reported by the form that ran it
    message = ("full-power primary outage does not converge: the mean gains "
               "of links pp, sp and rp are out of range"
               if isinstance(exc, QuadratureError) else str(exc))
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
    None: "4e88126649c93d3a42a8b444f53ecd36406d4650c5e442cdf851f4d6c452612c",
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
