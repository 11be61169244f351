"""Command line jobs: config validation, outputs, determinism, exit codes."""

import copy
import itertools
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
    assert labels == ["dressed2", "dressed1"]
    # overlapping tails pull the two maxima slightly inward, so compare
    # against the dressed splitting only at the few-percent level
    centers = [c["center"] for c in summary["components"]]
    assert centers[1] - centers[0] == pytest.approx(math.hypot(3.0, 16.0), rel=0.04)


def test_tiny_probe_coupling_measures_the_golden_spectrum(tmp_path):
    # w scales as G_mu**2, so at G_mu = 1e-150 the golden line shape is
    # measured near 1e-300, where Brent's interpolation step underflows
    golden = json.loads((Path(__file__).parent / "golden" / "spectrum_golden.json").read_text())
    runs = {}
    for stem, G_mu in (("usual", 1e-3), ("tiny", 1e-150)):
        path = write_config(tmp_path, f"{stem}.json", dict(golden, probe={"G_mu": G_mu}))
        assert main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 0
        runs[stem] = json.loads((tmp_path / f"{stem}_summary.json").read_text())["components"]
    assert len(runs["tiny"]) == len(runs["usual"]) == 2
    for tiny, usual in zip(runs["tiny"], runs["usual"]):
        assert tiny["center"] == pytest.approx(usual["center"], rel=1e-8)
        assert tiny["fwhm"] == pytest.approx(usual["fwhm"], rel=1e-8)
        assert tiny["area"] / 1e-300 == pytest.approx(usual["area"] / 1e-6, rel=1e-12)


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


@pytest.mark.parametrize("k_mu,theta", [(2.0, 0.4), (1.0, 0.0)],
                         ids=["voigt", "lorentzian"])
def test_overflowing_wings_are_silent(tmp_path, capsys, k_mu, theta):
    # with G = 1e200 the side lines' detunings square beyond the float range
    # on the block path, as they do silently on the float path; theta = 0 at
    # k_mu = k gives a zero Doppler scale, a Lorentzian
    cfg = triplet_config(G=1e200, k=1.0)
    cfg["probe"].update(k_mu=k_mu, theta=theta)
    cfg["grid"] = {"min": -80.0, "max": 480.0, "count": 161}
    path = write_config(tmp_path, "far.json", cfg)
    assert main(["triplet", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


def test_huge_grid_span_is_silent(tmp_path, capsys):
    # both edges of the last panels lie near the float limit, where a
    # midpoint written as 0.5 * (a + b) overflows
    cfg = doppler_config(drive={"G": 0.5, "Omega": 30.0, "k": 2.0},
                         probe={"G_mu": 1e-3, "k_mu": 2.0, "theta": 1.0},
                         grid={"min": -80.0, "max": 1.7e308, "count": 101})
    path = write_config(tmp_path, "huge.json", cfg)
    assert main(["doppler", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


def test_regime_ratios_agree_between_jobs_and_certify(tmp_path):
    # the doublet jobs and certify read the same regime ratios
    drive = {"G": 1.0, "Omega": 5.0, "k": 4.0}
    probe = {"G_mu": 1e-3, "k_mu": 4.0, "theta": 0.7}
    grid = {"min": -40.0, "max": 45.0, "count": 101}
    summaries = {}
    for job in ("doppler", "doublet"):
        cfg = doppler_config(job=job, drive=drive, probe=probe, ensemble={"vbar": 1.5},
                             grid=grid)
        path = write_config(tmp_path, f"{job}.json", cfg)
        assert main([job, "--config", str(path), "--out", str(tmp_path)]) == 0
        summaries[job] = json.loads((tmp_path / f"{job}_summary.json").read_text())
    params = {**SCHEME, **drive, **probe, "vbar": 1.5, "omega_mu_min": -5.0,
              "omega_mu_max": 5.0, "omega_mu_count": 3}
    path = write_config(tmp_path, "ratios.json",
                        certify_config(ids=["eq3_2", "eq4_2"], tolerance=1e-6,
                                       parameters=params))
    assert main(["certify", "--config", str(path), "--out", str(tmp_path)]) == 0
    weak, strong = json.loads((tmp_path / "ratios_certify.json").read_text())["reports"]
    assert (summaries["doppler"]["regime_ratios"]["Omega_over_drive_doppler"]
            == weak["regime_ratios"]["Omega_over_drive_doppler"] == 5.0 / 6.0)
    assert (summaries["doublet"]["regime_ratios"]["G_over_drive_doppler"]
            == strong["regime_ratios"]["G_over_drive_doppler"] == 1.0 / 6.0)


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
            assert row["fwhm"] == pytest.approx(exact_fwhm[c.label][theta], rel=1e-13)


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
    # G = 0: neither line has a half maximum, and the components cannot
    # place a line of zero height, so each window searches its peak once,
    # with find_peak, and fwhm and integrated_intensity measure from it
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


@pytest.mark.parametrize("job,cfg", [
    ("doublet", doppler_config(job="doublet", drive={"G": 30.0, "Omega": 5.0, "k": 4.0})),
    ("triplet", triplet_config())])
def test_averaged_lines_are_measured_from_their_components(tmp_path, monkeypatch, job, cfg):
    # each window's peak is searched about its own predicted component, and
    # its isolation checked at the window's edges: no peak-search grid, and
    # no density call on as many points as the 801-point isolation grid
    cfg_path = write_config(tmp_path, "line.json", cfg)
    peaks, sizes = [], []
    find_peak, density_sum = cli.dop.find_peak, cli.dop.density_sum
    monkeypatch.setattr(cli.dop, "find_peak", lambda *a: peaks.append(a) or find_peak(*a))
    monkeypatch.setattr(cli.dop, "density_sum",
                        lambda comps, x: sizes.append(np.size(x)) or density_sum(comps, x))
    assert main([job, "--config", str(cfg_path), "--out", str(tmp_path),
                 "--format", "json"]) == 0
    assert peaks == [] and 0 < max(sizes) < 801
    summary = json.loads((tmp_path / "line_summary.json").read_text())
    assert len(summary["components"]) == (2 if job == "doublet" else 3)
    assert all(v is not None for c in summary["components"] for v in c.values())


def test_no_job_loads_scipy(tmp_path):
    # a fresh interpreter, since this process has loaded scipy; sys.modules
    # only grows, so one that imports cli and then runs every job in turn
    # checks the import and each job: no job loads scipy, and none but
    # certify, which runs last, loads numpy.ma, numpy.polynomial or the oracle
    configs = {"spectrum": spectrum_config(), "doppler": doppler_config(),
               "doublet": doppler_config(job="doublet",
                                         drive={"G": 30.0, "Omega": 5.0, "k": 4.0}),
               "triplet": triplet_config(), "scan": scan_config([0.0, math.pi]),
               "certify": certify_config(ids=["eq2_6", "eq4_2"], tolerance=1e-6,
                                         parameters={"k": 3.0, "k_mu": 3.0,
                                                     "omega_mu_count": 3})}
    runs = {job: ["--config", str(write_config(tmp_path, f"{job}.json", cfg)),
                  "--out", str(tmp_path), "--format", "both"]
            for job, cfg in configs.items()}
    code = f"""
import json, sys
from dresslines import cli

def loaded(prefixes):
    return sorted(m for m in sys.modules if m.startswith(prefixes))

scipy = ("scipy",)
lazy = scipy + ("numpy.ma.", "numpy.polynomial", "dresslines.oracle")
seen = {{"import": loaded(lazy)}}
for job, args in {runs!r}.items():
    assert cli.main([job, *args]) == 0, job
    seen[job] = loaded(scipy if job == "certify" else lazy)
seen["oracle"] = "dresslines.oracle" in sys.modules
print(json.dumps(seen))
"""
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.returncode == 0, out.stderr
    # certify prints its verdict lines first
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen == {**{step: [] for step in ["import", *configs]}, "oracle": True}


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


def test_certify_reads_per_id_tolerances_and_parameters(tmp_path):
    section = {"ids": ["eq2_6", "eq2_7"], "tolerance": 1e-6, "tolerances": {"eq2_7": 1e-4},
               "parameters": {"G": 3.0, "omega_mu_count": 9},
               "parameters_by_id": {"eq2_7": {"G": 0.01, "omega_mu_count": 5}}}
    path = write_config(tmp_path, "per_id.json", certify_config(**section))
    assert main(["certify", "--config", str(path), "--out", str(tmp_path)]) == 0
    exact, weak = json.loads((tmp_path / "per_id_certify.json").read_text())["reports"]
    assert (exact["tolerance"], exact["n_points"], exact["passed"]) == (1e-6, 9, True)
    assert (weak["tolerance"], weak["n_points"], weak["passed"]) == (1e-4, 5, True)

    # without its own parameters eq2_7 runs at G = 3, outside the weak-drive regime
    del section["parameters_by_id"]
    path = write_config(tmp_path, "shared.json", certify_config(**section))
    assert main(["certify", "--config", str(path), "--out", str(tmp_path)]) == 1
    weak = json.loads((tmp_path / "shared_certify.json").read_text())["reports"][1]
    assert weak["regime_ratios"]["G_over_weak_scale"] == pytest.approx(3.0 / math.hypot(4.0, 1.0))
    assert weak["regime_ok"] is False and weak["n_points"] == 9


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


def test_certify_job_above_tolerance_exits_1_and_prints_fail(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "tight.json",
                            certify_config(ids=["eq2_6"], tolerance=1e-300))
    assert main(["certify", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert "FAIL eq2_6" in capsys.readouterr().out


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
    ("spectrum", spectrum_config(grid={"min": -1.7e308, "max": 1.7e308, "count": 121}),
     "grid span max - min overflows the float range"),
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
    # 7.11 PiB, beyond the address space, so the allocation fails at once
    ("spectrum", spectrum_config(grid={"min": -30, "max": 30, "count": 10**15}),
     "Unable to allocate"),
    ("certify", certify_config(ids=["eq2_6"], tolerance=1e-6,
                               parameters={"omega_mu_count": 10**15}),
     "Unable to allocate"),
    ("spectrum", [spectrum_config()], "must be a JSON object"),
    ("spectrum", spectrum_config(scheme=[]), "config section 'scheme' must be an object"),
    ("certify", certify_config(ids=["eq2_6"], tolerance=1e-6, parameters=[]),
     "certify parameters for 'eq2_6' must be objects"),
], ids=["theta-not-a-number", "thetas-not-a-list", "tolerance-not-a-number",
        "unknown-parameter", "empty-grid", "ids-not-a-list", "label-object",
        "label-number", "grid-max-infinity", "parameter-minus-infinity",
        "tolerance-nan", "grid-count-float", "grid-count-string", "grid-count-bool",
        "grid-min-string", "grid-span-overflow", "drive-G-bool", "parameter-count-float",
        "parameter-G-bool", "parameter-vbar-bool", "parameter-rtol-unknown",
        "probe-Omega_mu", "scheme-omega_mn",
        "scan-without-thetas", "grid-count-too-large", "parameter-count-too-large",
        "top-level-array", "scheme-array", "parameters-array"])
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



def test_undecodable_and_deeply_nested_configs_exit_2(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"schema_version": 1, "label": "\xff\xfe"}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    for path, message in ((binary, "is not UTF-8 text"), (deep, "nests too deeply")):
        assert main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1


@pytest.mark.parametrize("where", ["below-a-file", "over-a-directory"])
def test_unwritable_output_exits_2_with_one_error_line(tmp_path, capsys, where):
    cfg_path = write_config(tmp_path, "line.json", spectrum_config())
    if where == "below-a-file":  # --out cannot be created
        (tmp_path / "plain").write_text("")
        out = tmp_path / "plain" / "out"
    else:  # a directory stands where the CSV goes, so it cannot be written
        out = tmp_path / "out"
        (out / "line.csv").mkdir(parents=True)
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output to ")
    assert err.count("\n") == 1


def small_config(job, G, Omega):
    """A doppler, doublet or triplet config: k = k_mu = 2, theta = 1, 41 points."""
    return doppler_config(job=job, drive={"G": G, "Omega": Omega, "k": 2.0},
                          probe={"G_mu": 1e-3, "k_mu": 2.0, "theta": 1.0},
                          grid={"min": -80.0, "max": 80.0, "count": 41})


def small_scan_config(family, G, Omega):
    """A scan of one family at k = k_mu = 2 over theta = 1, 0 and pi, in that
    order, so that a failure at theta = 1 shows before a refusal at 0."""
    return dict(scan_config([1.0, 0.0, math.pi]), scan_family=family,
                drive={"G": G, "Omega": Omega, "k": 2.0}, probe={"G_mu": 1e-3, "k_mu": 2.0})


def with_leaf(cfg, section, key, value):
    cfg = copy.deepcopy(cfg)
    cfg[section][key] = value
    return cfg


# One valid config per job, both scan families: the exit-contract sweep's bases.
SWEEP_BASES = (
    spectrum_config(drive={"G": 3.0, "Omega": 4.0},
                    grid={"min": -80.0, "max": 80.0, "count": 41}),
    small_config("doppler", 0.5, 30.0),
    small_config("doublet", 3.0, 4.0),
    small_config("triplet", 30.0, 4.0),
    small_scan_config("weak", 0.5, 30.0),
    small_scan_config("strong", 3.0, 4.0),
)
SWEEP_VALUES = (0.0, -1.0, 5e-324, 1e-300, 1e300, 1.7e308)


@pytest.mark.parametrize("job,cfg", [
    ("spectrum", spectrum_config(drive={"G": 8.0, "Omega": 1e200})),
    ("spectrum", spectrum_config(scheme={"gamma_m": 1e-300, "gamma_n": 1e-300,
                                         "gamma_l": 1e-300})),
    ("doublet", doppler_config(job="doublet", drive={"G": 1e200, "Omega": 5.0, "k": 4.0})),
    ("certify", certify_config(ids=["eq3_2"], tolerance=1e-6,
                               parameters={"k": 1000.0, "k_mu": 900.0, "theta": 0.5,
                                           "omega_mu_count": 1})),
    ("spectrum", spectrum_config(scheme={**SCHEME, "gamma_m": 1.7e308},
                                 drive={"G": 3.0, "Omega": 4.0})),
    ("doublet", doppler_config(job="doublet", scheme={**SCHEME, "gamma_m": 1.7e308},
                               drive={"G": 3.0, "Omega": 4.0, "k": 4.0})),
    ("scan", {**scan_config([0.5, 1.0]), "ensemble": {"vbar": 5e-324}}),
    ("scan", {**scan_config([0.5, 1.0]), "ensemble": {"vbar": 1.7e308}}),
    ("doublet", with_leaf(small_config("doublet", 3.0, 4.0), "probe", "G_mu", 1.7e308)),
    ("doppler", with_leaf(small_config("doppler", 0.5, 30.0), "scheme", "gamma_m", 5e-324)),
    ("doppler", with_leaf(small_config("doppler", 0.5, 30.0), "scheme", "gamma_n", 5e-324)),
    ("scan", with_leaf(small_scan_config("strong", 3.0, 4.0), "scheme", "gamma_l", 1.7e308)),
    ("scan", with_leaf(dict(scan_config([0.5, 1.0]), scan_family="strong",
                            drive={"G": 3.0, "Omega": 4.0, "k": 20.0}),
                       "scheme", "gamma_l", 1.7e308)),
], ids=["spectrum-Omega-1e200", "spectrum-gammas-1e-300", "doublet-G-1e200",
        "certify-pole-distance-0.00167", "spectrum-gamma_m-1.7e308",
        "doublet-gamma_m-1.7e308", "scan-vbar-5e-324", "scan-vbar-1.7e308",
        "doublet-G_mu-1.7e308", "doppler-gamma_m-5e-324", "doppler-gamma_n-5e-324",
        "scan-strong-gamma_l-1.7e308", "scan-strong-gamma_l-1.7e308-fwhm"])
def test_finite_extreme_values_are_a_regime_failure(tmp_path, capsys, job, cfg):
    # each config is valid, but its arithmetic overflows or divides by zero,
    # its dressed exponents, a component's weight, a Doppler scale's
    # reciprocal, a half-width over its scale or a Voigt's FWHM leave the
    # float range, or its Doppler scale is too wide for the velocity route to
    # resolve
    path = write_config(tmp_path, "extreme.json", cfg)
    assert main([job, "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("physics-regime failure: ")
    assert err.count("\n") == 1


def test_a_drive_wave_vector_of_1e200_gives_a_finite_doppler_scale(tmp_path, capsys):
    # (k_mu - k)**2 overflows, but the Raman line's scale q*vbar, about
    # 1e200, does not; that line is too wide for the window to measure
    cfg = doppler_config(drive={"G": 1.0, "Omega": 400.0, "k": 1e200})
    path = write_config(tmp_path, "wide.json", cfg)
    assert main(["doppler", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "wide_summary.json").read_text())
    raman = summary["notes"]["predicted"][1]
    assert raman["label"] == "raman" and raman["doppler_scale"] == pytest.approx(1e200)
    assert summary["components"][1]["fwhm"] is None and summary["components"][1]["area"] is None


def test_a_doppler_scale_too_small_to_divide_the_detuning_gives_lorentzians(tmp_path):
    # at vbar = 1e-307 the scales are about 2e-307, so x/s overflows at
    # |x| > 36: there the density, once nan, is the sum of the Lorentzians
    cfg = small_config("doppler", 0.5, 30.0)
    cfg["ensemble"]["vbar"] = 1e-307
    path = write_config(tmp_path, "tiny.json", cfg)
    assert main(["doppler", "--config", str(path), "--out", str(tmp_path)]) == 0
    x, w = np.loadtxt(tmp_path / "tiny.csv", delimiter=",", skiprows=1).T
    comps = weak_doublet_components(LevelScheme(**SCHEME), DriveField(G=0.5, Omega=30.0, k=2.0),
                                    ProbeField(G_mu=1e-3, k_mu=2.0, theta=1.0),
                                    ThermalEnsemble(vbar=1e-307))
    lorentzians = sum(c.weight * c.natural_halfwidth / (c.natural_halfwidth ** 2
                                                        + (x - c.center) ** 2) for c in comps)
    assert np.isfinite(w).all()
    assert w == pytest.approx(lorentzians, rel=1e-12)
    summary = json.loads((tmp_path / "tiny_summary.json").read_text())
    assert all(c["area"] > 0.0 for c in summary["components"])


def test_no_float_leaf_breaks_the_exit_contract(tmp_path, capsys):
    # every float leaf of SWEEP_BASES in turn at each of SWEEP_VALUES: main
    # returns 0, 1 or 2, prints one stderr line on failure and none on
    # success, and lets no exception out (pytest makes a RuntimeWarning one)
    breaches, cases = [], 0
    for base in SWEEP_BASES:
        job = base["job"]
        leaves = [(section, key) for section in ("scheme", "drive", "probe", "ensemble", "grid")
                  for key, v in base.get(section, {}).items() if isinstance(v, float)]
        for (section, key), value in itertools.product(leaves, SWEEP_VALUES):
            cases += 1
            case = (job, base.get("scan_family"), f"{section}.{key}", value)
            path = write_config(tmp_path, "sweep.json", with_leaf(base, section, key, value))
            try:
                code = main([job, "--config", str(path), "--out", str(tmp_path),
                             "--format", "both"])
            except Exception as e:
                breaches.append((*case, repr(e)))
                capsys.readouterr()
                continue
            err = capsys.readouterr().err
            if code not in (0, 1, 2) or (err.count("\n") != 1 if code else err):
                breaches.append((*case, code, err))
    assert cases == 372
    assert breaches == []


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
