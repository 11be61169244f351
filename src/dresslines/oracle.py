"""Brute-force validators for every closed form in the package.

Two independent routes:

* Time domain: integrate the rotating-frame amplitude equations directly
  with an adaptive Runge-Kutta method and accumulate the emission integral
  2*gamma_l * int |a_l|^2 dt.  No dressed-state algebra enters; agreement
  with the closed forms certifies them.
* Velocity space: the tensor-product trapezoidal rule over the (at most
  two) velocity projections a pointwise spectrum depends on, with a step
  worked out from the distance of the nearest line-shape pole, against
  which the erfcx-based averaged forms are certified.

`certify` runs one row of a table of closed forms, keyed by identifier:
the form, its reference route, a deviation measure and a regime check.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import doppler as dop
from .dressed import dressed_exponents, memory_factors
from .model import DriveField, LevelScheme, ProbeField, RegimeError, ThermalEnsemble
from .stationary import w_mu_exact, w_mu_weak, weak_field_ratio

_SQRT_PI = math.sqrt(math.pi)

# Trapezoidal rule for the Maxwellian weight exp(-x^2)/sqrt(pi): points j*h
# on |x| <= _HALF_SPAN drop a Gaussian tail of _EPS, and the step from
# _trapezoid_step keeps the aliasing error near _EPS for an integrand
# analytic in the strip |Im x| < d (Trefethen & Weideman, SIAM Rev. 56
# (2014) 385).  _EPS sits at double precision because a polynomial factor
# multiplies the aliasing error of a smooth integrand: at _EPS = 1e-14 the
# second moment would come out 1.3e-12 off.
_EPS = 1e-16
_LOG_INV_EPS = math.log(1.0 / _EPS)
_HALF_SPAN = math.sqrt(_LOG_INV_EPS)
# _MAX_POINTS per axis bounds one average at about 7e7 evaluations of the
# 2-D grid, which is evaluated _BLOCK_ROWS rows at a time to bound memory.
_MAX_POINTS = 8400
_BLOCK_ROWS = 64
# The time-domain route stops at _HORIZON_FACTOR slowest decay times, where
# the dropped tail exp(-2*_HORIZON_FACTOR) lies far below 1e-10, and steps
# DOP853 at _RTOL and _ATOL.
_HORIZON_FACTOR = 40.0
_ODE_METHOD = "DOP853"
_RTOL = 1e-11
_ATOL = 1e-13


class ConvergenceError(RuntimeError):
    """An oracle failed its self-consistency (tolerance or step halving) check."""


def solve_ivp(*args, **kwargs):
    """scipy's solve_ivp, imported on first use: only certify loads scipy.integrate."""
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


def _solve_emission(scheme, drive, probe, Omega_mu_grid, rtol, atol):
    gm, gn, gl = scheme.gamma_m, scheme.gamma_n, scheme.gamma_l
    Om = drive.Omega
    Omu = np.asarray(Omega_mu_grid, dtype=float)
    n = Omu.size

    pair = dressed_exponents(scheme, drive)
    min_rate = min(pair.alpha1.real, pair.alpha2.real, gl)
    T = _HORIZON_FACTOR / min_rate

    G = drive.G
    G_mu = probe.G_mu
    decay_l = gl + 1j * Omu

    def rhs(t, y):
        am = y[0]
        bn = y[1]
        bl = y[2:2 + n]
        dy = np.empty_like(y)
        dy[0] = -gm * am + 1j * G * bn
        dy[1] = -(gn + 1j * Om) * bn + 1j * G * am
        dy[2:2 + n] = -decay_l * bl + 1j * G_mu * am
        dy[2 + n:] = 2.0 * gl * (bl.real**2 + bl.imag**2)
        return dy

    y0 = np.zeros(2 + 2 * n, dtype=complex)
    y0[1] = 1.0
    sol = solve_ivp(rhs, (0.0, T), y0, method=_ODE_METHOD, rtol=rtol, atol=atol)
    if not sol.success:
        raise ConvergenceError(f"time-domain integration failed: {sol.message}")
    return sol.y[2 + n:, -1].real.copy()


def w_mu_time_domain_grid(scheme, drive, probe, grid, *, halving_check: bool = False):
    """Emission density of an atom at rest at each probe detuning in grid,
    by direct integration.

    The drive pair (a_m, a_n) evolves exactly; each probed amplitude a_l is
    carried to first order in G_mu and 2*gamma_l*int|a_l|^2 dt accumulated
    to the horizon T = 40 / min(Re alpha_1, Re alpha_2, gamma_l), one DOP853
    solve at rtol 1e-11, atol 1e-13 shared by all grid points.  For an atom
    moving at v, pass drive.Omega - k.v and the grid less k_mu.v.  With
    halving_check the run is repeated at halved tolerances, a disagreement
    beyond 100x rtol at any point raises ConvergenceError, and the tighter
    run is returned.
    """
    w = _solve_emission(scheme, drive, probe, grid, _RTOL, _ATOL)
    if halving_check:
        w2 = _solve_emission(scheme, drive, probe, grid, _RTOL / 2.0, _ATOL / 2.0)
        moved = np.abs(w - w2) > 100.0 * _RTOL * np.maximum(np.abs(w), np.abs(w2))
        if np.any(moved):
            i = int(np.argmax(moved))
            raise ConvergenceError(
                f"tolerance halving moved the result at grid point {i}: "
                f"{w[i]!r} vs {w2[i]!r}"
            )
        w = w2
    return w


def _trapezoid_step(d: float) -> float:
    # The weight grows as exp(y^2) at Im x = y, so a pole at distance d
    # gives an aliasing error near exp(d^2 - 2*pi*d/h); this step holds it
    # at _EPS.  Beyond d = _HALF_SPAN the Gaussian, not the pole, limits the
    # step, which there is pi/_HALF_SPAN.
    d = min(d, _HALF_SPAN)
    return 2.0 * math.pi * d / (_LOG_INV_EPS + d * d)


def _trapezoid_points(h):
    n = int(_HALF_SPAN / h)
    x = h * np.arange(-n, n + 1)
    return x, (h / _SQRT_PI) * np.exp(-(x * x))


def _average_1d(fn, scale_k, scale_kmu, h):
    x, wx = _trapezoid_points(h)
    return float(np.sum(wx * fn(scale_k * x, scale_kmu * x)))


def _average_2d(fn, kv, kmuv, theta, h):
    x, wx = _trapezoid_points(h)
    ct, st = math.cos(theta), math.sin(theta)
    total = 0.0
    for i in range(0, x.size, _BLOCK_ROWS):
        X = x[i:i + _BLOCK_ROWS, None]
        vals = fn(kv * X, kmuv * (X * ct + x[None, :] * st))
        total += float(np.sum((wx[i:i + _BLOCK_ROWS, None] * wx[None, :]) * vals))
    return total


def velocity_average(pointwise_fn, ensemble, k, k_mu, theta, *,
                     pole_distance: float | None = None,
                     doubling_check: bool = False) -> float:
    """Maxwellian average of pointwise_fn(k.v, k_mu.v).

    pointwise_fn must be vectorized over numpy arrays of the two Doppler
    projections and, apart from its poles, bounded off the real axis, as
    the Lorentzian line shapes here are.  The average runs over the plane
    spanned by the two wave vectors, or along one axis when they are
    collinear (theta = 0 or pi exactly) or one vanishes; the orthogonal
    velocity component integrates out exactly.  Each axis is
    summed by the trapezoidal rule on |x| <= L = sqrt(ln(1/eps)), eps =
    1e-16, with weights h*exp(-x^2)/sqrt(pi) and step
    h = 2*pi*d/(ln(1/eps) + d^2) for d = min(pole_distance, L), where
    pole_distance is the smallest natural width over the largest Doppler
    scale (math.inf when every Doppler scale vanishes).  A pole distance
    that needs more than 8400 points per axis (d below about 0.0085) raises
    ValueError.  With doubling_check the average is repeated at h/2, a
    relative shift above 1e-9 raises ConvergenceError carrying both
    estimates, and the finer estimate is returned.
    """
    kv = k * ensemble.vbar
    kmuv = k_mu * ensemble.vbar
    if kv == 0.0 and kmuv == 0.0:
        return float(np.asarray(pointwise_fn(np.zeros(1), np.zeros(1)))[0])
    if pole_distance is None:
        raise ValueError("pole_distance is required when a wave vector is nonzero")
    h = _trapezoid_step(pole_distance)
    # 2*floor(L/h) + 1 points per axis; written so that d <= 0 or NaN fails too
    if not _HALF_SPAN < 0.5 * _MAX_POINTS * h:
        raise ValueError(
            f"pole distance {pole_distance:.3g} is not positive or needs more "
            f"than {_MAX_POINTS} trapezoidal points per axis"
        )

    def run(step):
        if kv == 0.0:
            # Only the probe direction carries Doppler structure.
            return _average_1d(pointwise_fn, 0.0, kmuv, step)
        if kmuv == 0.0 or theta in (0.0, math.pi):
            return _average_1d(pointwise_fn, kv, kmuv * math.cos(theta), step)
        return _average_2d(pointwise_fn, kv, kmuv, theta, step)

    val = run(h)
    if doubling_check:
        val2 = run(0.5 * h)
        denom = max(abs(val), abs(val2), 1e-300)
        if abs(val - val2) / denom > 1e-9:
            raise ConvergenceError(
                f"halving the step moved the average beyond 1e-9: {val!r} vs {val2!r}"
            )
        val = val2
    return val


def weak_pointwise(scheme, drive, probe, Omega_mu):
    """Pointwise no-interference weak-drive spectrum as f(k.v, k_mu.v).

    The velocity class sees the stepwise resonance shifted by k_mu.v and
    the correlated resonance shifted by (k_mu - k).v; averaging this is the
    definition the closed-form doublet must reproduce.
    """
    gm, gn, gl = scheme.gamma_m, scheme.gamma_n, scheme.gamma_l
    Om = drive.Omega
    pref = abs(drive.G * probe.G_mu) ** 2 / Om**2

    def fn(kdotv, kmudotv):
        t1 = (1.0 / gm) * ((gl + gm) / ((gl + gm) ** 2 + (Omega_mu - kmudotv) ** 2))
        x2 = (Omega_mu - Om) - (kmudotv - kdotv)
        t2 = (1.0 / gn) * ((gl + gn) / ((gl + gn) ** 2 + x2**2))
        return pref * (t1 + t2)

    return fn


def strong_pointwise(scheme, drive, probe, Omega_mu):
    """Pointwise no-interference strong-drive doublet as f(k.v, k_mu.v).

    Component j keeps the memory fraction M_j of the drive shift, so its
    resonance moves with (k_mu - M_j k).v while its exponents stay at the
    zero-velocity values.
    """
    pair = dressed_exponents(scheme, drive)
    if pair.is_degenerate:
        raise RegimeError("degenerate dressed pair has no doublet decomposition")
    M1, M2 = memory_factors(drive)
    gl = scheme.gamma_l
    pref = 2.0 * abs(drive.G * probe.G_mu) ** 2 / abs(pair.splitting) ** 2
    terms = []
    for alpha, M in ((pair.alpha1, M1), (pair.alpha2, M2)):
        a = gl + alpha.real
        c = Omega_mu - alpha.imag
        terms.append((1.0 / (2.0 * alpha.real), a, c, M))

    def fn(kdotv, kmudotv):
        out = 0.0
        for wgt, a, c, M in terms:
            x = c - (kmudotv - M * kdotv)
            out = out + wgt * (a / (a * a + x * x))
        return pref * out

    return fn


def triplet_pointwise(scheme, drive, probe, Omega_mu):
    """Pointwise strong-drive triplet as f(k.v, k_mu.v), unit total area."""
    Gamma = scheme.gamma_sum
    G = drive.G
    Om = drive.Omega
    comps = ((1.0, -2.0 * G), (2.0, 0.0), (1.0, 2.0 * G))

    def fn(kdotv, kmudotv):
        out = 0.0
        for mult, shift in comps:
            x = (Omega_mu - Om - shift) - (kmudotv - kdotv)
            out = out + mult * (Gamma / (Gamma * Gamma + x * x))
        return out / (4.0 * math.pi)

    return fn


@dataclass(frozen=True)
class CertifyReport:
    """Outcome of one closed-form certification run."""

    closed_form_id: str
    max_rel_dev: float
    tolerance: float
    n_points: int
    regime_ratios: dict
    regime_ok: bool
    passed: bool
    explanation: str

    def to_dict(self):
        return asdict(self)


_DEFAULTS = {
    "gamma_m": 1.0, "gamma_n": 2.0, "gamma_l": 0.5,
    "G": 3.0, "Omega": 4.0, "G_mu": 1e-3,
    "k": 0.0, "k_mu": 0.0, "theta": 0.0, "vbar": 1.0,
    "omega_mu_min": -20.0, "omega_mu_max": 20.0, "omega_mu_count": 33,
}


def _build(parameter_set):
    """(p, scheme, drive, probe, ensemble, grid) of a certify parameter set.

    Raises ValueError or TypeError where certify would reject the set:
    unknown keys, non-numeric values and values that the physics objects
    refuse.  It runs no oracle, so the CLI validates a config with it.
    """
    p = dict(_DEFAULTS)
    unknown = set(parameter_set) - set(p)
    if unknown:
        raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
    for key, value in parameter_set.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError(f"certify parameter {key} must be a number, got {value!r}")
    p.update(parameter_set)
    scheme = LevelScheme(gamma_m=p["gamma_m"], gamma_n=p["gamma_n"], gamma_l=p["gamma_l"])
    drive = DriveField(G=p["G"], Omega=p["Omega"], k=p["k"])
    probe = ProbeField(G_mu=p["G_mu"], k_mu=p["k_mu"], theta=p["theta"])
    ensemble = ThermalEnsemble(vbar=p["vbar"])
    count = p["omega_mu_count"]
    if not isinstance(count, numbers.Integral):
        raise TypeError(f"omega_mu_count must be an integer, got {count!r}")
    if count < 1:
        raise ValueError("omega_mu_count must be >= 1")
    grid = np.linspace(p["omega_mu_min"], p["omega_mu_max"], count)
    return p, scheme, drive, probe, ensemble, grid


def _pole_distance(widths, scales):
    """Smallest natural width over the largest Doppler scale.

    math.inf when every Doppler scale vanishes even though a wave vector
    may not: the velocity projections then cancel inside the line shape
    and the integrand is constant along the quadrature axes.
    """
    scales = [s for s in scales if s > 0.0]
    if not scales:
        return math.inf
    return min(widths) / max(scales)


def _auto_nodes(d: float) -> int:
    """Gauss-Hermite order the velocity route took for pole distance d
    before the trapezoidal rule replaced it.

    The oracle no longer uses it.  The benchmark's certify cycle
    (perfbench/inputs.py) is laid out over these tiers, and its test
    checks each set against this table; both go together.
    """
    if d >= 0.5:
        return 600
    if d >= 0.3:
        return 1200
    if d >= 0.2:
        return 2500
    if d >= 0.15:
        return 4200
    if d >= 0.1:
        return 8400
    raise ValueError(f"pole distance {d:.3g} lies below the lowest tier (0.1)")


# Reference routes, (name, route): route(closed, scheme, drive, probe,
# ensemble, grid) returns a row's closed form and its reference on grid.
def _reference(name, reference):
    """Route that evaluates a closed form and reference alike on the grid."""
    def route(closed, *case):
        return np.atleast_1d(closed(*case)), np.atleast_1d(reference(*case))

    return name, route


def _velocity_quadrature(pointwise):
    """Route of an averaged form given as its components builder: their
    density sum, and the velocity average of pointwise at each detuning
    with the pole distance of the same components."""
    def route(components, scheme, drive, probe, ensemble, grid):
        comps = components(scheme, drive, probe, ensemble)
        d = _pole_distance([c.natural_halfwidth for c in comps],
                           [c.doppler_scale for c in comps])
        ref = np.array([
            velocity_average(pointwise(scheme, drive, probe, x), ensemble,
                             drive.k, probe.k_mu, probe.theta, pole_distance=d)
            for x in grid
        ])
        return np.atleast_1d(dop.density_sum(comps, grid)), ref

    return "trapezoidal quadrature", route


_TIME_DOMAIN = _reference("time-domain integration",
                          lambda s, d, p, e, g: w_mu_time_domain_grid(s, d, p, g))
_FULL_AVERAGE = _reference("full averaged doublet", lambda *c: dop.doppler_weak_doublet(*c))

# Deviation measures, (name, measure): measure(closed, ref) returns an
# error and the scale it is relative to; the deviation is their largest ratio.
_POINTWISE = ("pointwise relative",
              lambda closed, ref: (np.abs(closed - ref), np.abs(ref)))
_PEAK = ("peak relative",
         lambda closed, ref: (np.max(np.abs(closed - ref)), np.max(np.abs(ref))))


# Regime checks: (scheme, drive, probe, ensemble) -> (ratios, verdict, what
# the regime needs).  The ratios' key order is the report's.
def _weak_drive_regime(scheme, drive, probe, ensemble):
    ratio = weak_field_ratio(scheme, drive)
    return ({"G_over_weak_scale": ratio}, ratio <= 0.01,
            "weak-drive expansion needs G/|Omega - i(gamma_n-gamma_m)| <= 0.01")


def _weak_doublet_regime(scheme, drive, probe, ensemble):
    ratio = dop.regime_ratio(abs(drive.Omega), drive.k * ensemble.vbar)
    return {"Omega_over_drive_doppler": ratio}, True, ""


def _gaussian_regime(scheme, drive, probe, ensemble):
    ratios, _, _ = _weak_doublet_regime(scheme, drive, probe, ensemble)
    comps = dop.weak_doublet_components(scheme, drive, probe, ensemble)
    ratios["doppler_over_width"] = min(
        dop.regime_ratio(c.doppler_scale, c.natural_halfwidth) for c in comps)
    return (ratios, ratios["doppler_over_width"] >= 100.0,
            "Gaussian form needs every Doppler scale >= 100x its natural width")


def _strong_doublet_regime(scheme, drive, probe, ensemble):
    ratio = dop.regime_ratio(drive.G, drive.k * ensemble.vbar)
    return {"G_over_drive_doppler": ratio}, True, ""


def _triplet_regime(scheme, drive, probe, ensemble):
    ratios = dop.triplet_regime_ratios(scheme, drive, ensemble)
    return (ratios, all(v >= 10.0 for v in ratios.values()),
            "strong-drive triplet limit needs G at least 10x each of |Omega|, Gamma, k*vbar")


# The certified closed forms, id -> (name in the explanation, closed form,
# reference route, deviation measure, regime check).  A closed form looks its
# builder up by module-level name at each call, so that a wrapper bound to
# that name sees certify's calls.
_FORMS = {
    "eq2_6": ("exact form", lambda s, d, p, e, g: w_mu_exact(s, d, p, g),
              _TIME_DOMAIN, _POINTWISE, lambda *_: ({}, True, "")),
    "eq2_7": ("weak-drive form", lambda s, d, p, e, g: w_mu_weak(s, d, p, g)[0],
              _TIME_DOMAIN, _PEAK, _weak_drive_regime),
    "eq3_2": ("averaged doublet", lambda *a: dop.weak_doublet_components(*a),
              _velocity_quadrature(weak_pointwise), _POINTWISE, _weak_doublet_regime),
    "eq3_3": ("Gaussian approximation", lambda *a: dop.weak_doublet_gaussian(*a),
              _FULL_AVERAGE, _PEAK, _gaussian_regime),
    "eq4_2": ("averaged dressed doublet", lambda *a: dop.strong_doublet_components(*a),
              _velocity_quadrature(strong_pointwise), _POINTWISE, _strong_doublet_regime),
    "eq5_2": ("averaged triplet", lambda *a: dop.triplet_components(*a),
              _velocity_quadrature(triplet_pointwise), _POINTWISE, _triplet_regime),
}

CLOSED_FORM_IDS = tuple(_FORMS)


def certify(closed_form_id: str, parameter_set: dict, tolerance: float) -> CertifyReport:
    """Check one closed form against its brute-force route on a grid.

    parameter_set uses flat keys (gamma_m, gamma_n, gamma_l, G, Omega, G_mu,
    k, k_mu, theta, vbar, omega_mu_min/max/count); absent keys fall back to
    documented defaults, other keys are refused.  The id's row in _FORMS
    gives the form, reference route, deviation measure and regime check.
    A regime violation fails the run with an explanation even when the
    numbers agree, because agreement outside the regime does not certify
    the physics claim; a reference that is zero where the measure divides
    by it raises RegimeError.
    """
    if closed_form_id not in CLOSED_FORM_IDS:
        raise ValueError(f"unknown closed_form_id {closed_form_id!r}; "
                         f"expected one of {CLOSED_FORM_IDS}")
    name, closed, (route_name, route), (measure_name, measure), regime = _FORMS[closed_form_id]
    _, scheme, drive, probe, ensemble, grid = _build(parameter_set)
    ratios, regime_ok, regime_note = regime(scheme, drive, probe, ensemble)
    error, scale = measure(*route(closed, scheme, drive, probe, ensemble, grid))
    if np.any(scale == 0.0):
        raise RegimeError(f"{closed_form_id}: the reference ({route_name}) is zero, "
                          f"so the {measure_name} deviation is undefined")
    dev = float(np.max(error / scale))
    note = f"{name} vs {route_name}, {measure_name}"

    passed = bool(dev <= tolerance) and regime_ok
    if not regime_ok:
        explanation = (f"regime violation, not a code defect: {regime_note}; "
                       f"ratios {ratios}; deviation measure: {note}")
    elif dev > tolerance:
        explanation = f"deviation above tolerance; measure: {note}"
    else:
        explanation = f"pass; measure: {note}"
    return CertifyReport(
        closed_form_id=closed_form_id,
        max_rel_dev=dev,
        tolerance=float(tolerance),
        n_points=int(grid.size),
        regime_ratios=ratios,
        regime_ok=bool(regime_ok),
        passed=passed,
        explanation=explanation,
    )
