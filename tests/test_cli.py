"""Command line jobs: config validation, outputs, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

from dresslines import DriveField, LevelScheme, ProbeField, w_mu_exact
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


def test_triplet_job(tmp_path):
    cfg = {
        "schema_version": 1,
        "job": "triplet",
        "scheme": {"gamma_m": 1.0, "gamma_n": 1.0, "gamma_l": 1.0},
        "drive": {"G": 120.0, "Omega": 0.0, "k": 6.0},
        "probe": {"G_mu": 1e-3, "k_mu": 6.0, "theta": 0.4},
        "ensemble": {"vbar": 1.0},
        "grid": {"min": -320.0, "max": 320.0, "count": 161},
    }
    cfg_path = write_config(tmp_path, "trip.json", cfg)
    assert main(["triplet", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "trip_summary.json").read_text())
    labels = [c["label"] for c in summary["components"]]
    assert labels == ["side_low", "center", "side_high"]
    assert summary["notes"]["normalization"] == "unit total area"
    assert all(v >= 10 for v in summary["notes"]["regime"].values())


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


def test_scan_job_and_thread_determinism(tmp_path):
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
    one, two = tmp_path / "t1", tmp_path / "t2"
    assert main(["scan", "--config", str(cfg_path), "--out", str(one)]) == 0
    assert main(["scan", "--config", str(cfg_path), "--out", str(two),
                 "--threads", "3"]) == 0
    assert (one / "sweep_scan.csv").read_bytes() == (two / "sweep_scan.csv").read_bytes()

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
], ids=["theta-not-a-number", "thetas-not-a-list", "tolerance-not-a-number",
        "unknown-parameter", "empty-grid", "ids-not-a-list", "label-object",
        "label-number"])
def test_malformed_configs_exit_2_with_one_error_line(tmp_path, capsys, job, cfg, message):
    path = write_config(tmp_path, "malformed.json", cfg)
    assert main([job, "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


def test_unreadable_and_invalid_configs(tmp_path):
    assert main(["spectrum", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["spectrum", "--config", str(garbled), "--out", str(tmp_path)]) == 2


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
