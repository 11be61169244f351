"""Correctness gates: independent references for every output the benchmark checks.

Run after the timed loop.  Each gate returns a list of failure messages,
empty when the output is right.  The references share no code with the
program's kernels:

* the exact spectrum against a 3x3 Lyapunov solve of the amplitude
  equations (the stationary Gramian of a_m, a_n, a_l);
* every Voigt component against scipy.special.voigt_profile;
* measured line centers against the dressed exponents recomputed from
  their quadratic, or against the component centers the program predicts.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from inputs import KIND_SIGNS, dressed_alphas

EXACT_RTOL = 1e-9        # pointwise, exact spectrum vs Lyapunov
VOIGT_RTOL = 1e-9        # pointwise, Voigt sum vs voigt_profile
WEAK_PEAK_RTOL = 1e-3    # weak-drive form vs exact, relative to the sampled peak
CENTER_FRAC = 0.25       # measured center within this share of (natural + Doppler) width
SCAN_CENTER_FRAC = 1e-3  # a lone component's peak sits on its center


def lyapunov_density(gm, gn, gl, G, Omega, G_mu, omega_mu):
    """Emission density 2*gl*int |a_l|^2 dt from the Gramian of the amplitude equations."""
    from scipy.linalg import solve_continuous_lyapunov

    q = np.zeros((3, 3), dtype=complex)
    q[1, 1] = -1.0                     # start in the lower driven level n
    out = []
    for x in np.atleast_1d(np.asarray(omega_mu, dtype=float)):
        m = np.array([[-gm, 1j * G, 0.0],
                      [1j * G, -(gn + 1j * Omega), 0.0],
                      [1j * G_mu, 0.0, -(gl + 1j * x)]], dtype=complex)
        p = solve_continuous_lyapunov(m, q)
        out.append(2.0 * gl * p[2, 2].real)
    return np.array(out)


def voigt_sum(components, x):
    """Sum of weight * pi * voigt_profile over the program's component list."""
    from scipy.special import voigt_profile

    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for c in components:
        out = out + c.weight * math.pi * voigt_profile(
            x - c.center, c.doppler_scale / math.sqrt(2.0), c.natural_halfwidth)
    return out


def pointwise(got, ref, rtol, what):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if got.shape != ref.shape or not np.all(np.isfinite(got)):
        return [f"{what}: shape or finiteness mismatch"]
    dev = float(np.max(np.abs(got - ref) / np.abs(ref)))
    return [] if dev <= rtol else [f"{what}: max relative deviation {dev:.3g} > {rtol:g}"]


def peak_relative(got, ref, rtol, what):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if got.shape != ref.shape or not np.all(np.isfinite(got)):
        return [f"{what}: shape or finiteness mismatch"]
    dev = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
    return [] if dev <= rtol else [f"{what}: peak-relative deviation {dev:.3g} > {rtol:g}"]


def sample_indices(n: int, k: int = 12) -> np.ndarray:
    """Evenly spread indices, both ends included."""
    return np.unique(np.linspace(0, n - 1, k).round().astype(int))


# --- dense-grid -------------------------------------------------------------

def build(p):
    """Program value types from a flat parameter set."""
    from dresslines.model import DriveField, LevelScheme, ProbeField, ProcessKind, ThermalEnsemble

    return (LevelScheme(p["gamma_m"], p["gamma_n"], p["gamma_l"]),
            DriveField(G=p["G"], Omega=p["Omega"], k=p["k"]),
            ProbeField(G_mu=p["G_mu"], k_mu=p["k_mu"], theta=p["theta"]),
            ThermalEnsemble(vbar=p["vbar"]),
            ProcessKind[p["kind"].upper()])


def components(family, scheme, drive, probe, ens, kind):
    """The program's component list for the weak doublet, strong doublet or triplet."""
    from dresslines import doppler as dop

    if family == "weak":
        return dop.weak_doublet_components(scheme, drive, probe, ens, kind)
    if family == "strong":
        return dop.strong_doublet_components(scheme, drive, probe, ens, kind)
    return dop.triplet_components(scheme, drive, probe, ens)


FAMILY = {"doppler_weak_doublet": "weak", "doppler_strong_doublet": "strong",
          "fluorescence_triplet": "triplet", "doppler": "weak", "doublet": "strong",
          "triplet": "triplet"}


def check_dense(fn, p, x, got):
    """Gate for sampled outputs `got` of one dense-grid call at detunings `x`."""
    what = f"dense-grid {fn}"
    if fn in ("w_mu_exact", "w_mu_weak"):
        ref = lyapunov_density(p["gamma_m"], p["gamma_n"], p["gamma_l"],
                               p["G"], p["Omega"], p["G_mu"], x)
        if fn == "w_mu_exact":
            return pointwise(got, ref, EXACT_RTOL, what)
        return peak_relative(got, ref, WEAK_PEAK_RTOL, what)
    comps = components(FAMILY[fn], *build(p))
    return pointwise(got, voigt_sum(comps, x), VOIGT_RTOL, what)


# --- CLI outputs --------------------------------------------------------------

def _cfg_objects(cfg):
    from dresslines.model import DriveField, LevelScheme, ProbeField, ProcessKind, ThermalEnsemble

    kind = ProcessKind[cfg.get("kind", "raman_upper_intermediate").upper()]
    ens = ThermalEnsemble(**cfg["ensemble"]) if "ensemble" in cfg else None
    return (LevelScheme(**cfg["scheme"]), DriveField(**cfg["drive"]),
            ProbeField(**cfg["probe"]), ens, kind)


def predicted_components(cfg, theta=None, family=None):
    """The program's own component list for an averaged job or one scan angle."""
    from dataclasses import replace

    scheme, drive, probe, ens, kind = _cfg_objects(cfg)
    if theta is not None:
        probe = replace(probe, theta=theta)
    return components(family or FAMILY[cfg["job"]], scheme, drive, probe, ens, kind)


def spectrum_centers(cfg):
    """Predicted (center, emission half-width) of both dressed lines, sorted."""
    s, s_mu = KIND_SIGNS[cfg.get("kind", "raman_upper_intermediate")]
    sch, dr = cfg["scheme"], cfg["drive"]
    a1, a2 = dressed_alphas(sch["gamma_m"], sch["gamma_n"], dr["G"], s * dr["Omega"])
    return sorted((s_mu * a.imag, sch["gamma_l"] + a.real) for a in (a1, a2))


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def check_grid_csv(cfg, text):
    """Sampled rows of a spectrum/doppler/doublet/triplet CSV against the references."""
    header, rows = read_csv(text)
    g = cfg["grid"]
    if header != ["omega_mu_detuning", "w"] or len(rows) != g["count"]:
        return [f"{cfg['label']}: CSV layout"]
    idx = sample_indices(len(rows))
    x = np.array([float(rows[i][0]) for i in idx])
    got = np.array([float(rows[i][1]) for i in idx])
    if cfg["job"] == "spectrum":
        s, s_mu = KIND_SIGNS[cfg.get("kind", "raman_upper_intermediate")]
        sch, dr = cfg["scheme"], cfg["drive"]
        ref = lyapunov_density(sch["gamma_m"], sch["gamma_n"], sch["gamma_l"], dr["G"],
                               s * dr["Omega"], cfg["probe"]["G_mu"], s_mu * x)
        return pointwise(got, ref, EXACT_RTOL, f"{cfg['label']} CSV")
    return pointwise(got, voigt_sum(predicted_components(cfg), x), VOIGT_RTOL,
                     f"{cfg['label']} CSV")


def check_summary(cfg, summary):
    """Measured component centers of a summary JSON against the predicted ones."""
    label = cfg["label"]
    comps = summary["components"]
    if cfg["job"] == "spectrum":
        pred = spectrum_centers(cfg)
        if summary["doublet_resolved"]:
            if len(comps) != 2:
                return [f"{label}: expected two measured dressed lines"]
            return [f"{label}: center {c['center']!r} vs predicted {x0!r}"
                    for c, (x0, w) in zip(comps, pred)
                    if not abs(c["center"] - x0) <= CENTER_FRAC * w]
        lo = pred[0][0] - pred[0][1]
        hi = pred[1][0] + pred[1][1]
        if len(comps) != 1 or not lo <= comps[0]["center"] <= hi:
            return [f"{label}: unresolved line center outside the dressed pair"]
        return []
    by_label = {c.label: c for c in predicted_components(cfg)}
    if sorted(c["label"] for c in comps) != sorted(by_label):
        return [f"{label}: measured components {[c['label'] for c in comps]}"]
    errs = []
    for c in comps:
        p = by_label[c["label"]]
        if not abs(c["center"] - p.center) <= CENTER_FRAC * (p.natural_halfwidth + p.doppler_scale):
            errs.append(f"{label}: {c['label']} center {c['center']!r} vs {p.center!r}")
    return errs


def check_scan_rows(cfg, rows):
    """rows: (theta, label, center) per component and angle."""
    errs = []
    seen = 0
    for theta in cfg["thetas"]:
        comps = predicted_components(cfg, theta=theta, family=cfg["scan_family"])
        for c in comps:
            match = [r for r in rows if r[0] == theta and r[1] == c.label]
            seen += len(match)
            tol = SCAN_CENTER_FRAC * (c.natural_halfwidth + c.doppler_scale)
            if len(match) != 1 or not abs(match[0][2] - c.center) <= tol:
                errs.append(f"{cfg['label']}: scan {c.label} at theta={theta!r}")
    if seen != len(rows):
        errs.append(f"{cfg['label']}: unexpected scan rows")
    return errs


def check_cli_outputs(cfg, fmt, files):
    """Gate for one CLI job; files maps output name suffix -> text."""
    errs = []
    if cfg["job"] == "scan":
        if fmt in ("csv", "both"):
            _, rows = read_csv(files["_scan.csv"])
            errs += check_scan_rows(cfg, [(float(r[0]), r[1], float(r[2])) for r in rows])
        if fmt in ("json", "both"):
            rows = json.loads(files["_scan.json"])["rows"]
            errs += check_scan_rows(cfg, [(r["theta"], r["component"], r["center"]) for r in rows])
        return errs
    if fmt in ("csv", "both"):
        errs += check_grid_csv(cfg, files[".csv"])
    if fmt in ("json", "both"):
        errs += check_summary(cfg, json.loads(files["_summary.json"]))
    return errs


def output_names(job, base, fmt):
    """Files the CLI writes for one job and --format."""
    csv_name, json_name = ("_scan.csv", "_scan.json") if job == "scan" else (".csv", "_summary.json")
    return [base + name for name, kind in ((csv_name, "csv"), (json_name, "json"))
            if fmt in (kind, "both")]


def compare_bytes(got_dir, want_dir, names, what):
    """Byte-for-byte comparison of the named files in two directories."""
    errs = []
    for name in names:
        got, want = got_dir / name, want_dir / name
        if not got.is_file() or not want.is_file() or got.read_bytes() != want.read_bytes():
            errs.append(f"{name} differs from {what}")
    return errs


# --- certify ------------------------------------------------------------------

def check_report(cid, report):
    if report.closed_form_id != cid or not report.passed:
        return [f"certify {cid}: not passed ({report.explanation}; "
                f"max_rel_dev={report.max_rel_dev:.3g})"]
    return []
