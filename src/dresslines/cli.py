"""Config-driven batch front end.

JOB_TABLE declares each job once: its runner, its help line and the
top-level config keys it reads.  A config is a JSON object with an integer
schema_version, an optional job and label, and exactly the keys its job
reads, all required but kind and scan_family; any other key is an error,
not a warning, so pinned experiment files stay reproducible.  CSV numbers
use the shortest round-trip representation and leave a field that could
not be measured empty; JSON summaries carry the unit convention, and
non-finite or unmeasured values serialize as null.  Exit codes: 0 success,
1 physics-regime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

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

# The doublet builders, looked up on doppler by name at call time so that a
# rebound builder (a profiler's wrapper, say) is the one called.  The doppler
# and doublet jobs, and a scan's scan_family, are the weak and strong families.
_DOUBLET_BUILDERS = {"weak": "weak_doublet_components", "strong": "strong_doublet_components"}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class JobConfig:
    """Validated run description, straight from one JSON file.

    A field holds the config key of its name, or its default where the job
    does not read that key; certify holds (id, parameters, tolerance) runs.
    """

    job: str
    label: str = ""
    kind: ProcessKind = ProcessKind.RAMAN_UPPER_INTERMEDIATE
    scheme: LevelScheme | None = None
    drive: DriveField | None = None
    probe: ProbeField | None = None
    ensemble: ThermalEnsemble | None = None
    grid: np.ndarray | None = None
    thetas: tuple = ()
    scan_family: str = "weak"
    certify: tuple = ()


def _check_keys(name, mapping, allowed):
    if not isinstance(mapping, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_model(name, cls, section):
    """A physics section: its keys are the fields of its model class."""
    _check_keys(name, section, {f.name for f in fields(cls)})
    try:
        return cls(**section)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid {name!r} section: {e}") from e


def _parse_kind(name):
    try:
        return ProcessKind[str(name).upper()]
    except KeyError:
        raise ConfigError(f"unknown process kind {name!r}") from None


def _parse_grid(g):
    _check_keys("grid", g, {"min", "max", "count"})
    lo, hi, count = g.get("min"), g.get("max"), g.get("count")
    if not (_is_number(lo) and _is_number(hi)):
        raise ConfigError(f"grid min and max must be numbers, got {lo!r} and {hi!r}")
    if isinstance(count, bool) or not isinstance(count, int):
        raise ConfigError(f"grid count must be an integer, got {count!r}")
    if count < 2:
        raise ConfigError("grid count must be >= 2")
    if not hi > lo:
        raise ConfigError("grid max must exceed grid min")
    return np.linspace(float(lo), float(hi), count)


def _parse_thetas(raw_thetas):
    if not isinstance(raw_thetas, list) or not all(map(_is_number, raw_thetas)):
        raise ConfigError("thetas must be a list of numbers")
    thetas = tuple(float(t) for t in raw_thetas)
    if len(thetas) < 2:
        raise ConfigError("a theta scan needs at least 2 theta values")
    if any(not 0.0 <= t <= math.pi for t in thetas):
        raise ConfigError("theta values must lie in [0, pi]")
    return thetas


def _parse_scan_family(family):
    if family not in _DOUBLET_BUILDERS:
        raise ConfigError("scan_family must be 'weak' or 'strong'")
    return family


def _check_certify(c):
    """Validate the certify section into its (id, parameters, tolerance)
    runs: known ids, a numeric tolerance and oracle parameters for each id,
    so that run_certify meets no config error."""
    _check_keys("certify", c, {"ids", "tolerance", "tolerances", "parameters",
                               "parameters_by_id"})
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
    runs = []
    for cid in ids:
        tol = tolerances.get(cid, default_tol)
        if tol is None:
            raise ConfigError(f"no tolerance given for {cid!r}")
        params = by_id.get(cid, {})
        if not isinstance(shared, dict) or not isinstance(params, dict):
            raise ConfigError(f"certify parameters for {cid!r} must be objects")
        params = {**shared, **params}
        try:
            oracle._build(params)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"invalid certify parameters for {cid!r}: {e}") from e
        runs.append((cid, params, float(tol)))
    return tuple(runs)


# Every top-level key a job may read, and the function that validates it
# into the JobConfig field of the same name.
_PARSERS = {
    "kind": _parse_kind,
    "scheme": partial(_parse_model, "scheme", LevelScheme),
    "drive": partial(_parse_model, "drive", DriveField),
    "probe": partial(_parse_model, "probe", ProbeField),
    "ensemble": partial(_parse_model, "ensemble", ThermalEnsemble),
    "grid": _parse_grid,
    "thetas": _parse_thetas,
    "scan_family": _parse_scan_family,
    "certify": _check_certify,
}
_OPTIONAL_KEYS = ("kind", "scan_family")


def _finite_number(text):
    """JSON number hook: NaN, Infinity and literals beyond the float range
    are errors; an integer literal stays an int."""
    x = float(text)
    if not math.isfinite(x):
        raise ConfigError(f"config number {text} is not finite")
    return int(text) if text.lstrip("-").isdigit() else x


def load_config(path, job: str) -> JobConfig:
    """Read and validate one JSON config against the declared subcommand
    and the keys JOB_TABLE lists for it."""
    try:
        raw = json.loads(Path(path).read_text(), parse_float=_finite_number,
                         parse_int=_finite_number, parse_constant=_finite_number)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e

    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"config schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}"
        )
    cfg_job = raw.get("job", job)
    if cfg_job != job:
        raise ConfigError(f"config job {cfg_job!r} does not match subcommand {job!r}")
    if job not in JOB_TABLE:
        raise ConfigError(f"unknown job {job!r}")
    reads = JOB_TABLE[job].reads

    unread = sorted(set(raw) - {"schema_version", "job", "label", *reads})
    if unread:
        raise ConfigError(f"job {job!r} does not read {', '.join(map(repr, unread))}")
    for key in reads:
        if key not in raw and key not in _OPTIONAL_KEYS:
            raise ConfigError(f"config section {key!r} is required for job {job!r}")
    label = raw.get("label", "")
    if not isinstance(label, str):
        raise ConfigError(f"label must be a string, got {label!r}")
    return JobConfig(job=job, label=label,
                     **{key: _PARSERS[key](raw[key]) for key in reads if key in raw})


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
    """A None field, which could not be measured, is empty: JSON's null."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None
                              else repr(float(v)) if isinstance(v, (float, np.floating))
                              else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _measure_component(density, window, label):
    """Numeric peak/FWHM/area of one component of `density` inside `window`.

    A component of zero height has no center: its center is None."""
    lo, hi = window
    try:
        width, x0, h = dop.fwhm(density, lo, hi)
    except dop.NoHalfMaximum as e:
        width, x0, h = None, e.x_peak, e.height
    try:
        area = dop.integrated_intensity(density, (lo, hi))
    except ValueError:
        area = None
    return {"label": label, "center": x0 if h > 0 else None, "fwhm": width,
            "peak_height": h, "area": area}


def _regime_ratios(cfg) -> dict:
    drive = cfg.drive
    kv = drive.k * cfg.ensemble.vbar
    return {"G_over_weak_scale": weak_field_ratio(cfg.scheme, drive),
            "Omega_over_drive_doppler": dop.regime_ratio(abs(drive.Omega), kv),
            "G_over_drive_doppler": dop.regime_ratio(drive.G, kv)}


def _write_line(cfg, out_dir, base, fmt, density, components, **summary):
    """Write density on the grid as CSV and its measured summary as JSON.

    Only the summary is measured, so --format csv measures nothing.
    components lists (label, predicted center) pairs, and the summary lists
    them in the order of those centers.  If every center lies strictly
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
    components = sorted(components, key=lambda c: c[1])
    centers = [c for _, c in components]
    if centers and all(lo < c < hi for c in centers) and len(set(centers)) == len(centers):
        bounds = [lo, *(0.5 * (a + b) for a, b in zip(centers, centers[1:])), hi]
        measured = [_measure_component(density, (bounds[i], bounds[i + 1]), label)
                    for i, (label, _) in enumerate(components)]
    else:
        measured = [_measure_component(density, (lo, hi), "total")]
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


def _averaged_components(cfg, family, probe):
    args = (cfg.scheme, cfg.drive, probe, cfg.ensemble)
    if family == "triplet":
        return dop.triplet_components(*args)
    return getattr(dop, _DOUBLET_BUILDERS[family])(*args, cfg.kind)


def run_averaged_job(family: str, cfg: JobConfig, out_dir: Path, base: str,
                     fmt: str) -> int:
    """A velocity-averaged family (weak, strong or triplet): CSV scan plus
    JSON component summary."""
    comps = _averaged_components(cfg, family, cfg.probe)

    def density(x):
        return dop.density_sum(comps, x)

    resolved = None
    if family == "strong":
        resolved = doublet_resolved(dressed_exponents(cfg.scheme, cfg.drive),
                                    cfg.scheme.gamma_l)

    notes = {"unit_convention": UNIT_NOTE,
             "normalization": ("unit total area" if family == "triplet" else
                               "density as defined by the emission integral, "
                               "no rescaling"),
             "predicted": [
                 {"label": c.label, "center": c.center,
                  "natural_halfwidth": c.natural_halfwidth,
                  "doppler_scale": c.doppler_scale, "memory": c.memory}
                 for c in comps
             ]}
    if family == "triplet":  # the triplet reads no kind
        notes["regime"] = dop.triplet_regime_ratios(cfg.scheme, cfg.drive, cfg.ensemble)
    else:
        notes["kind"] = cfg.kind.name.lower()

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
    """Drive oracle.certify over the configured runs; exit 1 on any failure."""
    reports = [oracle.certify(cid, params, tol) for cid, params, tol in cfg.certify]
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


class Job(NamedTuple):
    run: Callable[[JobConfig, Path, str, str], int]
    help: str
    reads: tuple  # top-level keys besides schema_version, job and label


_AVERAGED_KEYS = ("kind", "scheme", "drive", "probe", "ensemble", "grid")
JOB_TABLE = {
    "spectrum": Job(run_spectrum_job, "exact atom-at-rest probe spectrum",
                    ("kind", "scheme", "drive", "probe", "grid")),
    "doppler": Job(partial(run_averaged_job, "weak"),
                   "velocity-averaged weak-drive doublet", _AVERAGED_KEYS),
    "doublet": Job(partial(run_averaged_job, "strong"),
                   "velocity-averaged strong-drive doublet", _AVERAGED_KEYS),
    "triplet": Job(partial(run_averaged_job, "triplet"),
                   "velocity-averaged fluorescence triplet",
                   ("scheme", "drive", "probe", "ensemble", "grid")),
    "scan": Job(run_theta_scan, "theta sweep of component widths and areas",
                ("kind", "scheme", "drive", "probe", "ensemble", "thetas", "scan_family")),
    "certify": Job(run_certify, "closed forms vs brute-force oracles", ("certify",)),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dresslines",
        description="Emission line shapes of a resonantly driven three-level gas",
    )
    sub = ap.add_subparsers(dest="job", required=True)
    for job, spec in JOB_TABLE.items():
        p = sub.add_parser(job, help=spec.help)
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
        return JOB_TABLE[cfg.job].run(cfg, out_dir, base, args.format)
    except (RegimeError, oracle.ConvergenceError) as e:
        print(f"physics-regime failure: {e}", file=sys.stderr)
        return 1
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
