"""Config-driven batch front end.

JOB_TABLE declares each job once: its runner, its help line and the
top-level config keys it reads.  A config is a JSON object with an integer
schema_version, an optional job and label, and exactly the keys its job
reads, all required but kind and scan_family; any other key is an error,
not a warning, so pinned experiment files stay reproducible.  A JSON
summary measures every line window one way: find its peak, from the
predicted components where they can place it and by find_peak
otherwise, then one fwhm and one integrated_intensity call from that
peak.  CSV numbers use the shortest round-trip representation and leave
a field that could not be measured empty; JSON summaries carry the unit
convention, and non-finite or unmeasured values serialize as null.  Exit
codes, each failure with one line on stderr: 0 success, 1 physics-regime
failure (a closed form outside its regime, or arithmetic that leaves the
float range), 2 usage error (a config that cannot be read or is invalid or
asks for a grid too large to allocate, an --out that cannot be created or
written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import doppler as dop
from .dressed import doublet_resolved, dressed_exponents
from .model import (
    ConvergenceError,
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
    if not math.isfinite(float(hi) - float(lo)):
        raise ConfigError(f"grid span max - min overflows the float range: {lo!r} to {hi!r}")
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
    from . import oracle  # loaded only by a certify job

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
    """Read and validate one JSON config against the job named on the
    command line and the keys JOB_TABLE lists for it."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"), parse_float=_finite_number,
                         parse_int=_finite_number, parse_constant=_finite_number)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"config {path} is not UTF-8 text: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    except RecursionError:
        raise ConfigError(f"config {path} nests too deeply") from None

    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"config schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}"
        )
    cfg_job = raw.get("job", job)
    if cfg_job != job:
        raise ConfigError(f"config job {cfg_job!r} does not match the command-line job {job!r}")
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
    if isinstance(obj, float):
        x = float(obj)
        return x if math.isfinite(x) else None
    raise TypeError(f"unserializable value {obj!r}")


def _write_json(path: Path, obj):
    path.write_text(json.dumps(_sanitize(obj), indent=2, sort_keys=True) + "\n")


def _csv_column(values):
    """The CSV fields of one column: a float in its shortest round-trip
    repr (str of a float is its repr), a None, which could not be measured,
    empty (JSON's null), anything else as str."""
    return [str(v) if v is not None else "" for v in values]


def _write_csv(path: Path, header, columns):
    fields = zip(*(_csv_column(c) for c in columns))
    path.write_text("\n".join([",".join(header), *map(",".join, fields)]) + "\n")


class _Line(NamedTuple):
    """A line measured without components: a line the spectrum job
    predicts, or a whole grid as "total", which has no center."""

    label: str
    center: float


def _measure_component(density, window, line, components=()):
    """Peak/FWHM/area of `line` of `density` inside `window`.

    An averaged density is the density_sum of its DopplerComponents,
    `components`, and line is one of them: the window's peak is
    doppler.component_peak's, unless they cannot show that it is the
    window's maximum.  Every other window takes find_peak's.  From that
    peak, fwhm measures the width and integrated_intensity the area, split
    at the component's half-width bound or else at half the measured FWHM;
    each is None where it fails.  A component of zero height has no center:
    its center is None."""
    lo, hi = window
    got = dop.component_peak(components, line, lo, hi) if components else None
    x0, h = got[:2] if got else dop.find_peak(density, lo, hi)
    try:
        width = dop.fwhm(density, lo, hi, (x0, h))
    except ValueError:
        width = None
    halfwidth = got[2] if got else 0.5 * (width or 0.0)
    try:
        area = dop.integrated_intensity(density, window, (x0, h), halfwidth)
    except ValueError:
        area = None
    return {"label": line.label, "center": x0 if h > 0 else None, "fwhm": width,
            "peak_height": h, "area": area}


def _write_line(cfg, out_dir, base, fmt, density, lines, components=(), **summary):
    """Write density on the grid as CSV and its measured summary as JSON.

    Only the summary is measured, so --format csv measures nothing.  lines
    lists the predicted lines, each with a label and a center, and the
    summary lists them in the order of those centers.  For an averaged job,
    components are the DopplerComponents that density sums, and the lines
    are they.  If every center lies strictly inside the grid and no two
    coincide, the grid is split at the midpoints and each piece measured
    under its label, else the whole grid is measured as "total".  summary
    holds the regime_ratios, doublet_resolved and notes.
    """
    if fmt in ("csv", "both"):
        w = np.atleast_1d(density(cfg.grid))
        _write_csv(out_dir / f"{base}.csv", ("omega_mu_detuning", "w"),
                   (cfg.grid.tolist(), w.tolist()))
    if fmt == "csv":
        return 0

    lo, hi = float(cfg.grid[0]), float(cfg.grid[-1])
    lines = sorted(lines, key=lambda line: line.center)
    centers = [line.center for line in lines]
    if centers and all(lo < c < hi for c in centers) and len(set(centers)) == len(centers):
        bounds = [lo, *(0.5 * (a + b) for a, b in zip(centers, centers[1:])), hi]
        measured = [_measure_component(density, (bounds[i], bounds[i + 1]), line, components)
                    for i, line in enumerate(lines)]
    else:
        measured = [_measure_component(density, (lo, hi), _Line("total", math.nan))]
    _write_json(out_dir / f"{base}_summary.json",
                {"job": cfg.job, "schema_version": SCHEMA_VERSION, "label": cfg.label,
                 "components": measured, **summary})
    return 0


def run_spectrum_job(cfg: JobConfig, out_dir: Path, base: str, fmt: str) -> int:
    """Atom-at-rest exact spectrum: CSV scan plus JSON line summary."""
    signed_drive, s_mu, _ = apply_process_signs(cfg.kind, cfg.drive, cfg.probe.theta)
    pair = dressed_exponents(cfg.scheme, signed_drive)

    def density(x):
        return w_mu_exact(cfg.scheme, signed_drive, cfg.probe, s_mu * x)

    resolved = doublet_resolved(pair, cfg.scheme.gamma_l)
    lines = [_Line("dressed1", s_mu * pair.alpha1.imag),
             _Line("dressed2", s_mu * pair.alpha2.imag)]
    return _write_line(
        cfg, out_dir, base, fmt, density, lines if resolved else [],
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

    regime = dop.doublet_regime_ratios(cfg.scheme, cfg.drive, cfg.ensemble)
    return _write_line(cfg, out_dir, base, fmt, density, comps, components=comps,
                       regime_ratios=regime, doublet_resolved=resolved, notes=notes)


def run_theta_scan(cfg: JobConfig, out_dir: Path, base: str, fmt: str) -> int:
    """Sweep theta: each component's center, FWHM, peak height and area.

    A row is its component, one Voigt: its center, its density there and
    pi*weight (voigt_density has area pi), an area no direction changes.
    Its FWHM is doppler.voigt_fwhm of its natural half-width and Doppler
    scale, a root search on the bracket that bounds every Voigt's half
    width; a component of zero weight has none."""
    rows = []
    for theta in cfg.thetas:
        comps = _averaged_components(cfg, cfg.scan_family, replace(cfg.probe, theta=theta))
        for c in sorted(comps, key=lambda c: (c.center, c.label)):
            x0 = float(c.center)
            width = (dop.voigt_fwhm(c.natural_halfwidth, c.doppler_scale)
                     if c.weight > 0 else None)
            rows.append((theta, c.label, x0, width, c.density(x0), math.pi * c.weight))

    header = ("theta", "component", "center", "fwhm", "peak_height", "area")
    if fmt in ("csv", "both"):
        _write_csv(out_dir / f"{base}_scan.csv", header, list(zip(*rows)))
    if fmt in ("json", "both"):
        _write_json(out_dir / f"{base}_scan.json",
                    {"job": "scan", "schema_version": SCHEMA_VERSION,
                     "label": cfg.label, "family": cfg.scan_family,
                     "kind": cfg.kind.name.lower(),
                     "unit_convention": UNIT_NOTE,
                     "rows": [dict(zip(header, r)) for r in rows]})
    return 0


def run_certify(cfg: JobConfig, out_dir: Path, base: str, fmt: str) -> int:
    """Drive oracle.certify over the configured runs; exit 1 on any failure."""
    from . import oracle

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


@cache  # built once per process: main runs many jobs in one survey
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dresslines",
        description="Emission line shapes of a resonantly driven three-level gas",
        epilog="jobs:\n" + "\n".join(f"  {job:<10}{spec.help}"
                                       for job, spec in JOB_TABLE.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("job", choices=JOB_TABLE, metavar="job", help="one of the jobs below")
    ap.add_argument("--config", required=True, help="path to a JSON job config")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--format", choices=("csv", "json", "both"), default="both")
    # accepted and ignored: the scan ran on threads once, and scripts still pass it
    ap.add_argument("--threads", type=int, default=1, help=argparse.SUPPRESS)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        cfg = load_config(args.config, args.job)
        out_dir.mkdir(parents=True, exist_ok=True)
        return JOB_TABLE[cfg.job].run(cfg, out_dir, Path(args.config).stem, args.format)
    except (ConfigError, MemoryError) as e:  # MemoryError: a grid too large to allocate
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RegimeError, ConvergenceError) as e:
        print(f"physics-regime failure: {e}", file=sys.stderr)
        return 1
    except ArithmeticError as e:  # finite inputs whose arithmetic leaves the float range
        print(f"physics-regime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: cannot write output to {out_dir}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
