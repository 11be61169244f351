"""Command line jobs: config validation, outputs, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dresslines import (
    DriveField,
    LevelScheme,
    ProbeField,
    ThermalEnsemble,
    cli,
    oracle,
    w_mu_exact,
    weak_doublet_components,
)
from dresslines.cli import main

SCHEME = {"gamma_m": 1.0, "gamma_n": 2.0, "gamma_l": 0.5}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def spectrum_config(**extra):
    cfg = {
        "schema_version": 1,
        "job": "spectrum",
        "scheme": dict(SCHEME),
        "drive": {"G": 8.0, "Omega": 3.0},
        "probe": {"G_mu": 1e-3},
        "grid": {"min": -30.0, "max": 30.0, "count": 121},
    }
    cfg.update(extra)
    return cfg


def test_spectrum_job_outputs(tmp_path):
    cfg_path = write_config(tmp_path, "line.json", spectrum_config())
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(out)]) == 0

    csv_lines = (out / "line.csv").read_text().splitlines()
    assert csv_lines[0] == "omega_mu_detuning,w"
    assert len(csv_lines) == 122
    x0, w0 = map(float, csv_lines[1].split(","))
    expect = w_mu_exact(LevelScheme(**SCHEME), DriveField(G=8.0, Omega=3.0),
                        ProbeField(G_mu=1e-3), x0)
    assert w0 == pytest.approx(expect, rel=1e-15)

    summary = json.loads((out / "line_summary.json").read_text())
    assert summary["job"] == "spectrum"
    assert summary["doublet_resolved"] is True
    labels = [c["label"] for c in summary["components"]]
    assert labels == ["dressed1", "dressed2"]
    # overlapping tails pull the two maxima slightly inward, so compare
    # against the dressed splitting only at the few-percent level
    centers = [c["center"] for c in summary["components"]]
    assert centers[1] - centers[0] == pytest.approx(math.hypot(3.0, 16.0), rel=0.04)


def test_spectrum_unresolved_reports_total(tmp_path):
    cfg = spectrum_config(drive={"G": 0.3, "Omega": 0.5})
    cfg_path = write_config(tmp_path, "soft.json", cfg)
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "soft_summary.json").read_text())
    assert summary["doublet_resolved"] is False
    assert [c["label"] for c in summary["components"]] == ["total"]


def test_spectrum_byte_determinism(tmp_path):
    cfg_path = write_config(tmp_path, "rep.json", spectrum_config())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(b)]) == 0
    assert (a / "rep.csv").read_bytes() == (b / "rep.csv").read_bytes()
    assert (a / "rep_summary.json").read_bytes() == (b / "rep_summary.json").read_bytes()


def test_format_selection(tmp_path):
    cfg_path = write_config(tmp_path, "fmt.json", spectrum_config())
    out_csv = tmp_path / "csv_only"
    main(["spectrum", "--config", str(cfg_path), "--out", str(out_csv),
          "--format", "csv"])
    assert (out_csv / "fmt.csv").exists()
    assert not (out_csv / "fmt_summary.json").exists()
    out_json = tmp_path / "json_only"
    main(["spectrum", "--config", str(cfg_path), "--out", str(out_json),
          "--format", "json"])
    assert not (out_json / "fmt.csv").exists()
    assert (out_json / "fmt_summary.json").exists()


def doppler_config(**extra):
    cfg = {
        "schema_version": 1,
        "job": "doppler",
        "scheme": dict(SCHEME),
        "drive": {"G": 1.0, "Omega": 400.0, "k": 20.0},
        "probe": {"G_mu": 1e-3, "k_mu": 18.0, "theta": 1.0},
        "ensemble": {"vbar": 1.0},
        "grid": {"min": -80.0, "max": 480.0, "count": 113},
    }
    cfg.update(extra)
    return cfg


def test_doppler_job(tmp_path):
    cfg_path = write_config(tmp_path, "avg.json", doppler_config())
    assert main(["doppler", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "avg_summary.json").read_text())
    labels = [c["label"] for c in summary["components"]]
    assert labels == ["stepwise", "raman"]
    predicted = {p["label"]: p for p in summary["notes"]["predicted"]}
    assert predicted["stepwise"]["center"] == 0.0
    assert predicted["raman"]["center"] == pytest.approx(400.0)
    assert summary["components"][1]["center"] == pytest.approx(400.0, abs=0.5)
    assert summary["notes"]["kind"] == "raman_upper_intermediate"


def test_doublet_job(tmp_path):
    cfg = doppler_config(job="doublet",
                         drive={"G": 30.0, "Omega": 5.0, "k": 4.0},
                         probe={"G_mu": 1e-3, "k_mu": 4.0, "theta": 0.7},
                         grid={"min": -90.0, "max": 95.0, "count": 149})
    cfg_path = write_config(tmp_path, "strong.json", cfg)
    assert main(["doublet", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "strong_summary.json").read_text())
    assert summary["doublet_resolved"] is True
    centers = [c["center"] for c in summary["components"]]
    assert centers[1] - centers[0] == pytest.approx(math.hypot(5.0, 60.0), abs=0.5)


def triplet_config(**drive):
    return {
        "schema_version": 1,
        "job": "triplet",
        "scheme": {"gamma_m": 1.0, "gamma_n": 1.0, "gamma_l": 1.0},
        "drive": {"G": 120.0, "Omega": 0.0, "k": 6.0, **drive},
        "probe": {"G_mu": 1e-3, "k_mu": 6.0, "theta": 0.4},
        "ensemble": {"vbar": 1.0},
        "grid": {"min": -320.0, "max": 320.0, "count": 161},
    }


def test_triplet_job(tmp_path):
    cfg_path = write_config(tmp_path, "trip.json", triplet_config())
    assert main(["triplet", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "trip_summary.json").read_text())
    labels = [c["label"] for c in summary["components"]]
    assert labels == ["side_low", "center", "side_high"]
    assert summary["notes"]["normalization"] == "unit total area"
    assert "kind" not in summary["notes"]  # the triplet reads no kind
    regime = summary["notes"]["regime"]
    # Omega = 0: G/|Omega| is unbounded, which JSON writes as null
    assert regime.pop("G_over_Omega") is None
    assert all(v >= 10 for v in regime.values())


def test_zero_drive_doppler_ratios_are_unbounded(tmp_path):
    # k = 0: every ratio over the drive Doppler scale is inf, in the
    # summary's regime_ratios and its triplet notes alike, and in certify
    cfg_path = write_config(tmp_path, "trip0.json", triplet_config(Omega=1.0, k=0.0))
    assert main(["triplet", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "trip0_summary.json").read_text())
    assert summary["regime_ratios"]["G_over_drive_doppler"] is None
    assert summary["notes"]["regime"]["G_over_doppler"] is None
    params = {"gamma_m": 1.0, "gamma_n": 1.0, "gamma_l": 1.0, "G": 120.0, "Omega": 1.0,
              "k": 0.0, "k_mu": 6.0, "theta": 0.4, "omega_mu_min": -320.0,
              "omega_mu_max": 320.0, "omega_mu_count": 9}
    report = oracle.certify("eq5_2", params, 1e-8)
    assert report.regime_ratios["G_over_doppler"] == math.inf
    assert report.regime_ok and report.passed


def test_triplet_rejects_kind(tmp_path):
    cfg = {
        "schema_version": 1,
        "job": "triplet",
        "kind": "two_quantum_absorption",
        "scheme": dict(SCHEME),
        "drive": {"G": 120.0, "Omega": 0.0, "k": 6.0},
        "probe": {"G_mu": 1e-3, "k_mu": 6.0},
        "ensemble": {"vbar": 1.0},
        "grid": {"min": -320.0, "max": 320.0, "count": 11},
    }
    cfg_path = write_config(tmp_path, "badtrip.json", cfg)
    assert main(["triplet", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2


def test_scan_job(tmp_path):
    cfg = {
        "schema_version": 1,
        "job": "scan",
        "scheme": dict(SCHEME),
        "drive": {"G": 1.0, "Omega": 500.0, "k": 20.0},
        "probe": {"G_mu": 1e-3, "k_mu": 20.0},
        "ensemble": {"vbar": 1.0},
        "thetas": [0.0, math.pi / 2, math.pi],
        "scan_family": "weak",
    }
    cfg_path = write_config(tmp_path, "sweep.json", cfg)
    one = tmp_path / "t1"
    # --threads is still accepted, and ignored
    assert main(["scan", "--config", str(cfg_path), "--out", str(one),
                 "--threads", "3"]) == 0

    lines = (one / "sweep_scan.csv").read_text().splitlines()
    assert lines[0] == "theta,component,center,fwhm,peak_height,area"
    assert len(lines) == 1 + 3 * 2
    data = json.loads((one / "sweep_scan.json").read_text())
    rows = {(r["theta"], r["component"]): r for r in data["rows"]}
    # forward: correlated component collapses to its natural Lorentzian width
    fwd = rows[(0.0, "raman")]
    assert fwd["fwhm"] == pytest.approx(2 * (0.5 + 2.0), rel=1e-3)
    # backward: correlated Doppler scale doubles the probe's own
    back = rows[(math.pi, "raman")]
    assert back["fwhm"] > 10 * fwd["fwhm"]

    # a row is its component: the center is the component's, the area
    # pi*weight at every angle; only the FWHM is measured, against 40-digit
    # values of the Voigt half-maximum crossings
    exact_fwhm = {"stepwise": {t: 34.930316247890494 for t in cfg["thetas"]},
                  "raman": {0.0: 5.0, math.pi / 2: 49.818980374320863,
                            math.pi: 69.309481294740969}}
    for theta in cfg["thetas"]:
        probe = ProbeField(G_mu=1e-3, k_mu=20.0, theta=theta)
        comps = weak_doublet_components(LevelScheme(**SCHEME),
                                        DriveField(G=1.0, Omega=500.0, k=20.0),
                                        probe, ThermalEnsemble(vbar=1.0))
        for c in comps:
            row = rows[(theta, c.label)]
            assert row["center"] == c.center
            assert row["area"] == pytest.approx(math.pi * c.weight, rel=1e-14)
            assert row["area"] == rows[(0.0, c.label)]["area"]
            assert row["fwhm"] == pytest.approx(exact_fwhm[c.label][theta], rel=1e-7)


def test_scan_without_drive_has_zero_area_and_no_fwhm(tmp_path):
    cfg = {"schema_version": 1, "job": "scan", "scheme": dict(SCHEME),
           "drive": {"G": 0.0, "Omega": 500.0, "k": 20.0},
           "probe": {"G_mu": 1e-3, "k_mu": 20.0}, "ensemble": {"vbar": 1.0},
           "thetas": [0.0, math.pi]}
    cfg_path = write_config(tmp_path, "dark.json", cfg)
    assert main(["scan", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "dark_scan.json").read_text())["rows"]
    assert [(r["component"], r["center"]) for r in rows] == [
        ("stepwise", 0.0), ("raman", 500.0)] * 2
    assert all(r["fwhm"] is None and r["peak_height"] == 0.0 and r["area"] == 0.0
               for r in rows)
    # the CSV writes the FWHM that could not be measured as an empty field
    lines = (tmp_path / "dark_scan.csv").read_text().splitlines()
    assert lines[1:3] == ["0.0,stepwise,0.0,,0.0,0.0", "0.0,raman,500.0,,0.0,0.0"]


def test_zero_height_components_have_no_center(tmp_path):
    # G = 0 leaves both lines at zero height, so no center can be measured;
    # the summary lists them in the order of their predicted centers
    cfg = doppler_config(drive={"G": 0.0, "Omega": -400.0, "k": 20.0},
                         grid={"min": -480.0, "max": 80.0, "count": 113})
    cfg_path = write_config(tmp_path, "dark.json", cfg)
    assert main(["doppler", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "dark_summary.json").read_text())
    assert [(c["label"], c["center"], c["peak_height"]) for c in summary["components"]] == [
        ("raman", None, 0.0), ("stepwise", None, 0.0)]


def test_failed_fwhm_keeps_its_peak(tmp_path, monkeypatch):
    # G = 0: neither line has a half maximum, and fwhm hands the peak it
    # measured to the summary, so each component searches its peak once
    cfg = doppler_config(drive={"G": 0.0, "Omega": 400.0, "k": 20.0})
    cfg_path = write_config(tmp_path, "dark.json", cfg)
    calls = []
    find_peak = cli.dop.find_peak
    monkeypatch.setattr(cli.dop, "find_peak", lambda *a: calls.append(a) or find_peak(*a))
    assert main(["doppler", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert len(calls) == 2
    summary = json.loads((tmp_path / "dark_summary.json").read_text())
    assert summary["components"] == [
        {"label": label, "center": None, "fwhm": None, "peak_height": 0.0, "area": None}
        for label in ("stepwise", "raman")]


def test_only_certify_loads_scipy_integrate_and_optimize(tmp_path):
    # a fresh interpreter, since this process has loaded both; sys.modules
    # only grows, so one that imports cli and then runs every other job in
    # turn checks the import and each job
    configs = {"spectrum": spectrum_config(), "doppler": doppler_config(),
               "doublet": doppler_config(job="doublet",
                                         drive={"G": 30.0, "Omega": 5.0, "k": 4.0}),
               "triplet": triplet_config(), "scan": scan_config([0.0, math.pi])}
    runs = {job: ["--config", str(write_config(tmp_path, f"{job}.json", cfg)),
                  "--out", str(tmp_path), "--format", "both"]
            for job, cfg in configs.items()}
    code = f"""
import json, sys
from dresslines import cli

def loaded():
    return sorted(m for m in sys.modules
                  if m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'optimize']))

seen = {{"import": loaded()}}
for job, args in {runs!r}.items():
    assert cli.main([job, *args]) == 0, job
    seen[job] = loaded()
print(json.dumps(seen))
"""
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {step: [] for step in ["import", *configs]}


@pytest.mark.parametrize("job,cfg", [("spectrum", spectrum_config()),
                                     ("doppler", doppler_config()),
                                     ("doublet", doppler_config(
                                         job="doublet",
                                         drive={"G": 30.0, "Omega": 5.0, "k": 4.0})),
                                     ("triplet", triplet_config())])
def test_csv_format_measures_nothing(tmp_path, monkeypatch, job, cfg):
    cfg_path = write_config(tmp_path, "line.json", cfg)
    both = tmp_path / "both"
    assert main([job, "--config", str(cfg_path), "--out", str(both)]) == 0

    def refuse(*args):
        raise AssertionError("--format csv measured a component")

    monkeypatch.setattr(cli, "_measure_component", refuse)
    only = tmp_path / "csv"
    assert main([job, "--config", str(cfg_path), "--out", str(only), "--format", "csv"]) == 0
    assert sorted(p.name for p in only.iterdir()) == ["line.csv"]
    assert (only / "line.csv").read_bytes() == (both / "line.csv").read_bytes()


def test_certify_job_pass_and_fail(tmp_path):
    ok_cfg = {
        "schema_version": 1,
        "job": "certify",
        "certify": {"ids": ["eq2_6"], "tolerance": 1e-6,
                    "parameters": {"omega_mu_count": 5}},
    }
    cfg_path = write_config(tmp_path, "check.json", ok_cfg)
    assert main(["certify", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "check_certify.json").read_text())
    assert report["all_passed"] is True
    assert report["reports"][0]["closed_form_id"] == "eq2_6"

    bad_cfg = {
        "schema_version": 1,
        "job": "certify",
        "certify": {"ids": ["eq5_2"], "tolerance": 1e-2,
                    "parameters": {"G": 2.0, "omega_mu_count": 5}},
    }
    bad_path = write_config(tmp_path, "viol.json", bad_cfg)
    assert main(["certify", "--config", str(bad_path), "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "viol_certify.json").read_text())
    assert report["all_passed"] is False
    assert "regime violation" in report["reports"][0]["explanation"]


def test_certify_prints_verdict_lines(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "job": "certify",
        "certify": {"ids": ["eq4_2"], "tolerance": 1e-6,
                    "parameters": {"omega_mu_count": 3}},
    }
    cfg_path = write_config(tmp_path, "verdict.json", cfg)
    main(["certify", "--config", str(cfg_path), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert "PASS eq4_2" in out and "regime_ok=True" in out


def test_regime_failure_exit_code(tmp_path):
    cfg = doppler_config(drive={"G": 1.0, "Omega": 0.0, "k": 20.0})
    cfg_path = write_config(tmp_path, "zero.json", cfg)
    assert main(["doppler", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1


def test_certify_without_drive_is_a_regime_failure(tmp_path, capsys):
    # G = 0 emits nothing, so no relative deviation from the reference exists
    cfg = certify_config(ids=["eq2_6"], tolerance=1e-6,
                         parameters={"G": 0.0, "omega_mu_count": 3})
    cfg_path = write_config(tmp_path, "nodrive.json", cfg)
    assert main(["certify", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("physics-regime failure: eq2_6: the reference")
    assert err.count("\n") == 1


@pytest.mark.parametrize("mutate", [
    lambda c: c.update(schema_version=2),
    lambda c: c.update(job="doppler"),
    lambda c: c.update(bogus_key=1),
    lambda c: c.update(kind="sideways"),
    lambda c: c.update(grid={"min": 0.0, "max": 1.0, "count": 1}),
    lambda c: c.update(grid={"min": 5.0, "max": -5.0, "count": 11}),
    lambda c: c.update(scheme={"gamma_m": -1.0, "gamma_n": 2.0, "gamma_l": 0.5}),
    lambda c: c.update(scheme={"gamma_m": 1.0, "gamma_q": 2.0, "gamma_l": 0.5}),
    lambda c: c.pop("grid"),
    lambda c: c.pop("probe"),
])
def test_config_errors_exit_2(tmp_path, mutate):
    cfg = spectrum_config()
    mutate(cfg)
    cfg_path = write_config(tmp_path, "broken.json", cfg)
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2


def test_scan_config_errors(tmp_path):
    base = {
        "schema_version": 1, "job": "scan", "scheme": dict(SCHEME),
        "drive": {"G": 1.0, "Omega": 500.0, "k": 20.0},
        "probe": {"G_mu": 1e-3, "k_mu": 20.0}, "ensemble": {"vbar": 1.0},
    }
    single = dict(base, thetas=[0.5])
    path = write_config(tmp_path, "one_theta.json", single)
    assert main(["scan", "--config", str(path), "--out", str(tmp_path)]) == 2
    out_of_range = dict(base, thetas=[0.5, 4.0])
    path = write_config(tmp_path, "oor.json", out_of_range)
    assert main(["scan", "--config", str(path), "--out", str(tmp_path)]) == 2
    bad_family = dict(base, thetas=[0.5, 1.0], scan_family="huge")
    path = write_config(tmp_path, "fam.json", bad_family)
    assert main(["scan", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_certify_config_errors(tmp_path):
    missing_tol = {"schema_version": 1, "job": "certify",
                   "certify": {"ids": ["eq2_6"]}}
    path = write_config(tmp_path, "notol.json", missing_tol)
    assert main(["certify", "--config", str(path), "--out", str(tmp_path)]) == 2
    bad_id = {"schema_version": 1, "job": "certify",
              "certify": {"ids": ["eq0_0"], "tolerance": 1e-6}}
    path = write_config(tmp_path, "badid.json", bad_id)
    assert main(["certify", "--config", str(path), "--out", str(tmp_path)]) == 2


def scan_config(thetas):
    return {
        "schema_version": 1, "job": "scan", "scheme": dict(SCHEME),
        "drive": {"G": 1.0, "Omega": 500.0, "k": 20.0},
        "probe": {"G_mu": 1e-3, "k_mu": 20.0}, "ensemble": {"vbar": 1.0},
        "thetas": thetas,
    }


def certify_config(**section):
    return {"schema_version": 1, "job": "certify", "certify": section}


@pytest.mark.parametrize("job, cfg, message", [
    ("scan", scan_config(["a", 1.0]), "thetas must be a list of numbers"),
    ("scan", scan_config(5), "thetas must be a list of numbers"),
    ("certify", certify_config(ids=["eq2_6"], tolerance="x"),
     "certify tolerances must be numbers, got 'x'"),
    ("certify", certify_config(ids=["eq2_6"], tolerance=1e-6,
                               parameters={"omega_mu_count": 5, "bogus": 1.0}),
     "unknown parameter keys: ['bogus']"),
    ("certify", certify_config(ids=["eq2_6"], tolerance=1e-6,
                               parameters={"omega_mu_count": 0}),
     "omega_mu_count must be >= 1"),
    ("certify", certify_config(ids="eq2_6", tolerance=1e-6),
     "certify.ids must be a non-empty list"),
    ("spectrum", spectrum_config(label={"name": "x"}), "label must be a string"),
    ("spectrum", spectrum_config(label=7), "label must be a string, got 7"),
    ("spectrum", spectrum_config(grid={"min": -30.0, "max": math.inf, "count": 121}),
     "config number Infinity is not finite"),
    ("certify", certify_config(ids=["eq2_6"], tolerance=1e-6,
                               parameters={"G": -math.inf}),
     "config number -Infinity is not finite"),
    ("certify", certify_config(ids=["eq2_6"], tolerance=math.nan),
     "config number NaN is not finite"),
    ("spectrum", spectrum_config(grid={"min": -30.0, "max": 30.0, "count": 120.9}),
     "grid count must be an integer, got 120.9"),
    ("spectrum", spectrum_config(grid={"min": -30.0, "max": 30.0, "count": "121"}),
     "grid count must be an integer, got '121'"),
    ("spectrum", spectrum_config(grid={"min": -30.0, "max": 30.0, "count": True}),
     "grid count must be an integer, got True"),
    ("spectrum", spectrum_config(grid={"min": "-30", "max": 30.0, "count": 121}),
     "grid min and max must be numbers"),
    ("spectrum", spectrum_config(drive={"G": True, "Omega": 3.0}),
     "G must be a finite number, got True"),
    ("certify", certify_config(ids=["eq2_6"], tolerance=1e-6,
                               parameters={"omega_mu_count": 5.9}),
     "omega_mu_count must be an integer, got 5.9"),
    ("certify", certify_config(ids=["eq2_6"], tolerance=1e-6,
                               parameters={"omega_mu_count": 5, "G": True}),
     "certify parameter G must be a number, got True"),
    ("certify", certify_config(ids=["eq2_6"], tolerance=1e-6,
                               parameters={"omega_mu_count": 5, "vbar": True}),
     "certify parameter vbar must be a number, got True"),
    ("certify", certify_config(ids=["eq2_6"], tolerance=1e-6,
                               parameters={"omega_mu_count": 5, "rtol": 1e-12}),
     "unknown parameter keys: ['rtol']"),
    ("spectrum", spectrum_config(probe={"G_mu": 1e-3, "Omega_mu": 2.0}),
     "unknown keys in 'probe': ['Omega_mu']"),
    ("spectrum", spectrum_config(scheme=dict(SCHEME, omega_mn=5.0e14)),
     "unknown keys in 'scheme': ['omega_mn']"),
    ("scan", {k: v for k, v in scan_config([]).items() if k != "thetas"},
     "config section 'thetas' is required for job 'scan'"),
], ids=["theta-not-a-number", "thetas-not-a-list", "tolerance-not-a-number",
        "unknown-parameter", "empty-grid", "ids-not-a-list", "label-object",
        "label-number", "grid-max-infinity", "parameter-minus-infinity",
        "tolerance-nan", "grid-count-float", "grid-count-string", "grid-count-bool",
        "grid-min-string", "drive-G-bool", "parameter-count-float",
        "parameter-G-bool", "parameter-vbar-bool", "parameter-rtol-unknown",
        "probe-Omega_mu", "scheme-omega_mn",
        "scan-without-thetas"])
def test_malformed_configs_exit_2_with_one_error_line(tmp_path, capsys, job, cfg, message):
    path = write_config(tmp_path, "malformed.json", cfg)
    assert main([job, "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


CERTIFY_SECTION = {"ids": ["eq2_6"], "tolerance": 1e-6, "parameters": {"omega_mu_count": 3}}


@pytest.mark.parametrize("job, cfg, key", [
    ("spectrum", spectrum_config(drive={"G": 8.0, "Omega": 3.0, "k": 20.0},
                                 probe={"G_mu": 1e-3, "k_mu": 20.0},
                                 ensemble={"vbar": 1.0}), "ensemble"),
    ("spectrum", spectrum_config(thetas=[0.0, 1.0]), "thetas"),
    ("spectrum", spectrum_config(certify=CERTIFY_SECTION), "certify"),
    ("scan", dict(scan_config([0.0, math.pi]), grid={"min": -1.0, "max": 1.0, "count": 3}),
     "grid"),
    ("doppler", doppler_config(scan_family="weak"), "scan_family"),
    ("certify", dict(certify_config(**CERTIFY_SECTION), kind="raman_upper_intermediate"),
     "kind"),
    ("certify", dict(certify_config(**CERTIFY_SECTION), scheme=dict(SCHEME)), "scheme"),
], ids=["spectrum-ensemble", "spectrum-thetas", "spectrum-certify", "scan-grid",
        "doppler-scan_family", "certify-kind", "certify-scheme"])
def test_key_the_job_does_not_read_exits_2(tmp_path, capsys, job, cfg, key):
    # each key is valid for some job; a job that would ignore it refuses it
    path = write_config(tmp_path, "unread.json", cfg)
    assert main([job, "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: job {job!r} does not read {key!r}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["unread.json"]


def test_unreadable_and_invalid_configs(tmp_path):
    assert main(["spectrum", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["spectrum", "--config", str(garbled), "--out", str(tmp_path)]) == 2
    # literals beyond the float range: a float parses to inf, an int
    # fails its conversion to float, unless the loader refuses both
    for literal in ("1e999", "1" + "0" * 400):
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(spectrum_config()).replace("30.0", literal))
        assert main(["spectrum", "--config", str(huge), "--out", str(tmp_path)]) == 2


def test_process_kind_flows_through_spectrum(tmp_path):
    # Flipping the probe photon reflects the emission axis, so the resolved
    # component centers change sign relative to the reference process.
    base = spectrum_config(label="ref")
    flipped = spectrum_config(kind="two_quantum_absorption", label="flip")
    p1 = write_config(tmp_path, "ref.json", base)
    p2 = write_config(tmp_path, "flip.json", flipped)
    assert main(["spectrum", "--config", str(p1), "--out", str(tmp_path)]) == 0
    assert main(["spectrum", "--config", str(p2), "--out", str(tmp_path)]) == 0
    ref = json.loads((tmp_path / "ref_summary.json").read_text())
    flip = json.loads((tmp_path / "flip_summary.json").read_text())
    c_ref = [c["center"] for c in ref["components"]]
    c_flip = [c["center"] for c in flip["components"]]
    assert c_flip == pytest.approx([-c_ref[1], -c_ref[0]], abs=1e-6)
    w_ref = np.array([float(l.split(",")[1]) for l in
                      (tmp_path / "ref.csv").read_text().splitlines()[1:]])
    w_flip = np.array([float(l.split(",")[1]) for l in
                       (tmp_path / "flip.csv").read_text().splitlines()[1:]])
    assert np.allclose(w_flip, w_ref[::-1], rtol=1e-12)
