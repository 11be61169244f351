"""Config-driven batch front end.

Subcommands: spectrum (atom at rest, exact form), doppler (weak-drive
averaged doublet), doublet (strong-drive averaged doublet), triplet
(driven-transition fluorescence), scan (theta sweep of widths and areas),
certify (closed forms vs brute-force oracles).

Configs are JSON with a mandatory integer schema_version; unknown keys are
errors, not warnings, so pinned experiment files stay reproducible.  CSV
numbers use the shortest round-trip representation; JSON summaries carry
the unit convention, and non-finite values serialize as null.  Exit codes:
0 success, 1 physics-regime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import doppler as dop
from . import oracle
from .dressed import doublet_resolved, dressed_exponents
from .model import (
    DriveField,
    LevelScheme,
    ProbeField,
    ProcessKind,
    RegimeError,
    ThermalEnsemble,
    apply_process_signs,
)
from .stationary import w_mu_exact, weak_field_ratio

SCHEMA_VERSION = 1

UNIT_NOTE = ("all rates, detunings and Doppler scales share one angular "
             "frequency unit; decay rates are amplitude half-widths")

# A physics section's keys are the fields of its model class.
_MODEL_SECTIONS = {"scheme": LevelScheme, "drive": DriveField,
                   "probe": ProbeField, "ensemble": ThermalEnsemble}
_SECTION_KEYS = {
    **{name: {f.name for f in fields(cls)} for name, cls in _MODEL_SECTIONS.items()},
    "grid": {"min", "max", "count"},
    "certify": {"ids", "tolerance", "tolerances", "parameters", "parameters_by_id"},
}
_TOP_KEYS = {"schema_version", "job", "kind", "label",
             "scheme", "drive", "probe", "ensemble", "grid", "thetas",
             "scan_family", "certify"}

JOBS = ("spectrum", "doppler", "doublet", "triplet", "scan", "certify")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class JobConfig:
    """Validated run description, straight from one JSON file."""

    job: str
    kind: ProcessKind
    scheme: LevelScheme | None
    drive: DriveField | None
    probe: ProbeField | None
    ensemble: ThermalEnsemble | None
    grid: np.ndarray | None
    thetas: tuple
    scan_family: str
    certify: dict
    label: str


def _check_keys(name, mapping, allowed):
    if not isinstance(mapping, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_certify(c):
    """Validate the certify section: ids, a numeric tolerance and oracle
    parameters for every id, so that run_certify meets no config error."""
    _check_keys("certify", c, _SECTION_KEYS["certify"])
    ids = c.get("ids")
    if not isinstance(ids, list) or not ids or not all(isinstance(i, str) for i in ids):
        raise ConfigError("certify.ids must be a non-empty list of closed form ids")
    known = set(oracle.CLOSED_FORM_IDS)
    for cid in ids:
        if cid not in known:
            raise ConfigError(f"unknown closed form id {cid!r}")
    tolerances = c.get("tolerances", {})
    _check_keys("certify.tolerances", tolerances, known)
    by_id = c.get("parameters_by_id", {})
    _check_keys("certify.parameters_by_id", by_id, known)
    default_tol = c.get("tolerance")
    for tol in (default_tol, *tolerances.values()):
        if tol is not None and not _is_number(tol):
            raise ConfigError(f"certify tolerances must be numbers, got {tol!r}")
    shared = c.get("parameters", {})
    for cid in ids:
        if tolerances.get(cid, default_tol) is None:
            raise ConfigError(f"no tolerance given for {cid!r}")
        params = by_id.get(cid, {})
        if not isinstance(shared, dict) or not isinstance(params, dict):
            raise ConfigError(f"certify parameters for {cid!r} must be objects")
        try:
            oracle.check_parameters({**shared, **params})
        except (TypeError, ValueError) as e:
            raise ConfigError(f"invalid certify parameters for {cid!r}: {e}") from e


def _finite_number(text):
    """JSON number hook: NaN, Infinity and literals beyond the float range
    are errors; an integer literal stays an int."""
    x = float(text)
    if not math.isfinite(x):
        raise ConfigError(f"config number {text} is not finite")
    return int(text) if text.lstrip("-").isdigit() else x


def load_config(path, job: str) -> JobConfig:
    """Read and validate one JSON config against the declared subcommand."""
    try:
        raw = json.loads(Path(path).read_text(), parse_float=_finite_number,
                         parse_int=_finite_number, parse_constant=_finite_number)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e

    _check_keys("<top level>", raw, _TOP_KEYS)
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"config schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}"
        )
    cfg_job = raw.get("job", job)
    if cfg_job != job:
        raise ConfigError(f"config job {cfg_job!r} does not match subcommand {job!r}")
    if job not in JOBS:
        raise ConfigError(f"unknown job {job!r}")

    kind_name = raw.get("kind", "raman_upper_intermediate")
    try:
        kind = ProcessKind[str(kind_name).upper()]
    except KeyError:
        raise ConfigError(f"unknown process kind {kind_name!r}") from None
    if job == "triplet" and "kind" in raw:
        raise ConfigError("the fluorescence triplet takes no process kind")

    def section(name, required):
        if name not in raw:
            if required:
                raise ConfigError(f"config section {name!r} is required for job {job!r}")
            return None
        _check_keys(name, raw[name], _SECTION_KEYS[name])
        try:
            return _MODEL_SECTIONS[name](**raw[name])
        except (TypeError, ValueError) as e:
            raise ConfigError(f"invalid {name!r} section: {e}") from e

    needs_physics = job != "certify"
    needs_ensemble = job in ("doppler", "doublet", "triplet", "scan")
    scheme = section("scheme", needs_physics)
    drive = section("drive", needs_physics)
    probe = section("probe", needs_physics)
    ensemble = section("ensemble", needs_ensemble)

    grid = None
    if job in ("spectrum", "doppler", "doublet", "triplet"):
        if "grid" not in raw:
            raise ConfigError(f"config section 'grid' is required for job {job!r}")
        g = raw["grid"]
        _check_keys("grid", g, _SECTION_KEYS["grid"])
        lo, hi, count = g.get("min"), g.get("max"), g.get("count")
        if not (_is_number(lo) and _is_number(hi)):
            raise ConfigError(f"grid min and max must be numbers, got {lo!r} and {hi!r}")
        if isinstance(count, bool) or not isinstance(count, int):
            raise ConfigError(f"grid count must be an integer, got {count!r}")
        if count < 2:
            raise ConfigError("grid count must be >= 2")
        if not hi > lo:
            raise ConfigError("grid max must exceed grid min")
        grid = np.linspace(float(lo), float(hi), count)

    thetas = ()
    if job == "scan":
        raw_thetas = raw.get("thetas", [])
        if not isinstance(raw_thetas, list) or not all(map(_is_number, raw_thetas)):
            raise ConfigError("thetas must be a list of numbers")
        thetas = tuple(float(t) for t in raw_thetas)
        if len(thetas) < 2:
            raise ConfigError("a theta scan needs at least 2 theta values")
        if any(not 0.0 <= t <= math.pi for t in thetas):
            raise ConfigError("theta values must lie in [0, pi]")

    scan_family = raw.get("scan_family", "weak")
    if scan_family not in ("weak", "strong"):
        raise ConfigError("scan_family must be 'weak' or 'strong'")

    label = raw.get("label", "")
    if not isinstance(label, str):
        raise ConfigError(f"label must be a string, got {label!r}")

    certify_cfg = {}
    if job == "certify":
        if "certify" not in raw:
            raise ConfigError("config section 'certify' is required for job 'certify'")
        certify_cfg = raw["certify"]
        _check_certify(certify_cfg)

    return JobConfig(job=job, kind=kind, scheme=scheme, drive=drive, probe=probe,
                     ensemble=ensemble, grid=grid, thetas=thetas,
                     scan_family=scan_family, certify=certify_cfg,
                     label=label)


def _sanitize(obj):
    """Make an object JSON-safe and deterministic: non-finite floats -> null."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (bool, str, int)) or obj is None:
        return obj
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else None
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"unserializable value {obj!r}")


def _write_json(path: Path, obj):
    path.write_text(json.dumps(_sanitize(obj), indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                              else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _measure_component(density, window, label):
    """Numeric peak/FWHM/area of one component of `density` inside `window`."""
    lo, hi = window
    try:
        width, x0, h = dop.fwhm(density, lo, hi)
    except ValueError:
        x0, h = dop.find_peak(density, lo, hi)
        width = None
    try:
        area = dop.integrated_intensity(density, (lo, hi))
    except ValueError:
        area = None
    return {"label": label, "center": x0, "fwhm": width, "peak_height": h,
            "area": area}


def _component_windows(centers, lo, hi):
    """Split [lo, hi] at midpoints between sorted component centers."""
    order = np.argsort(centers)
    bounds = [lo]
    cs = [centers[i] for i in order]
    for a, b in zip(cs[:-1], cs[1:]):
        bounds.append(0.5 * (a + b))
    bounds.append(hi)
    return {int(order[i]): (bounds[i], bounds[i + 1]) for i in range(len(cs))}


def _regime_ratios(cfg) -> dict:
    drive, scheme, probe = cfg.drive, cfg.scheme, cfg.probe
    out = {"G_over_weak_scale": weak_field_ratio(scheme, drive)}
    kv = drive.k * cfg.ensemble.vbar if cfg.ensemble else 0.0
    out["Omega_over_drive_doppler"] = dop.regime_ratio(abs(drive.Omega), kv)
    out["G_over_drive_doppler"] = dop.regime_ratio(drive.G, kv)
    return out


def _write_line(cfg, out_dir, base, fmt, density, components, **summary):
    """Write density on the grid as CSV and its measured summary as JSON.

    Only the summary is measured, so --format csv measures nothing.
    components lists (label, center) pairs; if every center lies strictly
    inside the grid and no two coincide, the grid is split at the midpoints
    and each piece measured under its label, else the whole grid is measured
    as "total".  summary holds the regime_ratios, doublet_resolved and notes.
    """
    if fmt in ("csv", "both"):
        w = np.atleast_1d(density(cfg.grid))
        _write_csv(out_dir / f"{base}.csv", ("omega_mu_detuning", "w"),
                   zip(cfg.grid.tolist(), w.tolist()))
    if fmt == "csv":
        return 0

    lo, hi = float(cfg.grid[0]), float(cfg.grid[-1])
    centers = [c for _, c in components]
    if centers and all(lo < c < hi for c in centers) and len(set(centers)) == len(centers):
        windows = _component_windows(centers, lo, hi)
        measured = [_measure_component(density, windows[i], label)
                    for i, (label, _) in enumerate(components)]
    else:
        measured = [_measure_component(density, (lo, hi), "total")]
    measured.sort(key=lambda c: (c["center"], c["label"]))
    _write_json(out_dir / f"{base}_summary.json",
                {"job": cfg.job, "schema_version": SCHEMA_VERSION, "label": cfg.label,
                 "components": measured, **summary})
    return 0


def run_spectrum_job(cfg: JobConfig, out_dir: Path, base: str, fmt: str) -> int:
    """Atom-at-rest exact spectrum: CSV scan plus JSON line summary."""
    signed_drive, s_mu, _ = apply_process_signs(cfg.kind, cfg.drive, cfg.probe.theta)
    pair = dressed_exponents(cfg.scheme, signed_drive)

    def density(x):
        return w_mu_exact(cfg.scheme, signed_drive, cfg.probe,
                          s_mu * np.asarray(x, dtype=float))

    resolved = doublet_resolved(pair, cfg.scheme.gamma_l)
    centers = sorted([s_mu * pair.alpha1.imag, s_mu * pair.alpha2.imag])
    return _write_line(
        cfg, out_dir, base, fmt, density,
        [(f"dressed{i + 1}", c) for i, c in enumerate(centers)] if resolved else [],
        regime_ratios={"G_over_weak_scale": weak_field_ratio(cfg.scheme, signed_drive)},
        doublet_resolved=bool(resolved),
        notes={"unit_convention": UNIT_NOTE,
               "normalization": "density as defined by the emission integral, "
                                "no rescaling",
               "kind": cfg.kind.name.lower()},
    )


# The doublet builders, looked up on doppler by name at call time so that a
# rebound builder (a profiler's wrapper, say) is the one called.  The doppler
# and doublet jobs, and a scan's scan_family, are the weak and strong families.
_DOUBLET_BUILDERS = {"weak": "weak_doublet_components", "strong": "strong_doublet_components"}
_JOB_FAMILY = {"doppler": "weak", "doublet": "strong", "triplet": "triplet"}


def _averaged_components(cfg, family, probe):
    args = (cfg.scheme, cfg.drive, probe, cfg.ensemble)
    if family == "triplet":
        return dop.triplet_components(*args)
    return getattr(dop, _DOUBLET_BUILDERS[family])(*args, cfg.kind)


def run_averaged_job(cfg: JobConfig, out_dir: Path, base: str, fmt: str) -> int:
    """Any velocity-averaged family: CSV scan plus JSON component summary."""
    comps = _averaged_components(cfg, _JOB_FAMILY[cfg.job], cfg.probe)

    def density(x):
        return dop.density_sum(comps, x)

    resolved = None
    if cfg.job == "doublet":
        sep = abs(comps[0].center - comps[1].center)
        resolved = bool(sep > comps[0].natural_halfwidth + comps[1].natural_halfwidth)

    notes = {"unit_convention": UNIT_NOTE, "kind": cfg.kind.name.lower(),
             "normalization": ("unit total area" if cfg.job == "triplet" else
                               "density as defined by the emission integral, "
                               "no rescaling"),
             "predicted": [
                 {"label": c.label, "center": c.center,
                  "natural_halfwidth": c.natural_halfwidth,
                  "doppler_scale": c.doppler_scale, "memory": c.memory}
                 for c in comps
             ]}
    if cfg.job == "triplet":
        notes["regime"] = dop.triplet_regime_ratios(cfg.scheme, cfg.drive, cfg.ensemble)

    return _write_line(cfg, out_dir, base, fmt, density,
                       [(c.label, c.center) for c in comps],
                       regime_ratios=_regime_ratios(cfg), doublet_resolved=resolved,
                       notes=notes)


def run_theta_scan(cfg: JobConfig, out_dir: Path, base: str, fmt: str) -> int:
    """Sweep theta: each component's center, FWHM, peak height and area.

    A row is its component: its center, its density there and pi*weight
    (voigt_density has area pi), an area no direction changes.  Only the
    FWHM is measured, within 2(a + s) of the center: a Voigt's half width
    lies between max(a, s*sqrt(ln 2)) and a + s*sqrt(ln 2)."""
    rows = []
    for theta in cfg.thetas:
        comps = _averaged_components(cfg, cfg.scan_family, replace(cfg.probe, theta=theta))
        for c in sorted(comps, key=lambda c: (c.center, c.label)):
            x0 = float(c.center)
            r = 2.0 * (c.natural_halfwidth + c.doppler_scale)
            try:
                width = dop.fwhm(c.density, x0 - r, x0 + r)[0]
            except ValueError:  # a zero weight has no half maximum
                width = None
            rows.append((theta, c.label, x0, width, c.density(x0), math.pi * c.weight))

    if fmt in ("csv", "both"):
        _write_csv(out_dir / f"{base}_scan.csv",
                   ("theta", "component", "center", "fwhm", "peak_height", "area"),
                   rows)
    if fmt in ("json", "both"):
        _write_json(out_dir / f"{base}_scan.json",
                    {"job": "scan", "schema_version": SCHEMA_VERSION,
                     "label": cfg.label, "family": cfg.scan_family,
                     "kind": cfg.kind.name.lower(),
                     "unit_convention": UNIT_NOTE,
                     "rows": [{"theta": r[0], "component": r[1], "center": r[2],
                               "fwhm": r[3], "peak_height": r[4], "area": r[5]}
                              for r in rows]})
    return 0


def run_certify(cfg: JobConfig, out_dir: Path, base: str, fmt: str) -> int:
    """Drive oracle.certify over the configured ids; exit 1 on any failure."""
    c = cfg.certify
    ids = c["ids"]
    tolerances = c.get("tolerances", {})
    default_tol = c.get("tolerance")
    shared = c.get("parameters", {})
    by_id = c.get("parameters_by_id", {})

    reports = []
    for cid in ids:
        params = {**shared, **by_id.get(cid, {})}
        reports.append(oracle.certify(cid, params, float(tolerances.get(cid, default_tol))))

    for r in reports:
        verdict = "PASS" if r.passed else "FAIL"
        print(f"{verdict} {r.closed_form_id}: max_rel_dev={r.max_rel_dev:.3e} "
              f"tol={r.tolerance:.1e} regime_ok={r.regime_ok}")
    all_passed = all(r.passed for r in reports)
    _write_json(out_dir / f"{base}_certify.json",
                {"job": "certify", "schema_version": SCHEMA_VERSION,
                 "label": cfg.label,
                 "reports": [r.to_dict() for r in reports],
                 "all_passed": all_passed})
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dresslines",
        description="Emission line shapes of a resonantly driven three-level gas",
    )
    sub = ap.add_subparsers(dest="job", required=True)
    for job, help_text in (
        ("spectrum", "exact atom-at-rest probe spectrum"),
        ("doppler", "velocity-averaged weak-drive doublet"),
        ("doublet", "velocity-averaged strong-drive doublet"),
        ("triplet", "velocity-averaged fluorescence triplet"),
        ("scan", "theta sweep of component widths and areas"),
        ("certify", "closed forms vs brute-force oracles"),
    ):
        p = sub.add_parser(job, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON job config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("csv", "json", "both"), default="both")
        # accepted and ignored: the scan ran on threads once, and scripts still pass it
        p.add_argument("--threads", type=int, default=1, help=argparse.SUPPRESS)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.job)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = Path(args.config).stem
    try:
        if cfg.job == "spectrum":
            return run_spectrum_job(cfg, out_dir, base, args.format)
        if cfg.job in ("doppler", "doublet", "triplet"):
            return run_averaged_job(cfg, out_dir, base, args.format)
        if cfg.job == "scan":
            return run_theta_scan(cfg, out_dir, base, args.format)
        return run_certify(cfg, out_dir, base, args.format)
    except (RegimeError, oracle.ConvergenceError) as e:
        print(f"physics-regime failure: {e}", file=sys.stderr)
        return 1
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
