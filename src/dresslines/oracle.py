"""Brute-force validators for every closed form in the package.

Two independent routes:

* Time domain: integrate the rotating-frame amplitude equations directly
  with an adaptive Runge-Kutta method and accumulate the emission integral
  2*gamma_l * int |a_l|^2 dt.  No dressed-state algebra enters; agreement
  with the closed forms certifies them.
* Velocity space: tensor-product Gauss-Hermite quadrature over the (at most
  two) velocity projections a pointwise spectrum depends on, against which
  the erfcx-based averaged forms are certified.

The `certify` entry point packages both routes behind stable identifiers
and reports deviations together with regime diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import roots_hermite

from . import doppler as dop
from .dressed import dressed_exponents, memory_factors
from .model import DriveField, LevelScheme, ProbeField, RegimeError, ThermalEnsemble
from .stationary import w_mu_exact, w_mu_weak, weak_field_ratio

_SQRT_PI = math.sqrt(math.pi)


class ConvergenceError(RuntimeError):
    """An oracle failed its self-consistency (tolerance or node doubling) check."""


@dataclass(frozen=True)
class OdeSettings:
    """Step control and horizon policy for the time-domain route.

    horizon_factor sets T = horizon_factor / min(Re alpha_1, Re alpha_2,
    gamma_l) unless an explicit horizon is given; the factor must keep the
    tail bound exp(-2*min_rate*T) below 1e-10.
    """

    rtol: float = 1e-11
    atol: float = 1e-13
    horizon: float | None = None
    horizon_factor: float = 40.0
    method: str = "DOP853"
    check: bool = False

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be > 0")
        if self.horizon is not None and self.horizon <= 0:
            raise ValueError("horizon must be > 0 when given")
        if math.exp(-2.0 * self.horizon_factor) >= 1e-10:
            raise ValueError("horizon_factor too small for the 1e-10 tail bound")


@dataclass(frozen=True)
class QuadratureSettings:
    """Gauss-Hermite controls for the velocity route."""

    nodes: int = 0          # 0 = choose from the pole-distance heuristic
    doubling_check: bool = False
    chunk: int = 64

    def __post_init__(self):
        if self.nodes and self.nodes < 8:
            raise ValueError("quadrature order must be >= 8")
        if self.chunk < 1:
            raise ValueError("chunk must be >= 1")


def _doppler_shifts(drive, probe, velocity):
    vx, vy, _ = (float(v) for v in velocity)
    kdotv = drive.k * vx
    kmudotv = probe.k_mu * (vx * math.cos(probe.theta) + vy * math.sin(probe.theta))
    return kdotv, kmudotv


def _solve_emission(scheme, drive, probe, Omega_mu_grid, velocity, settings):
    gm, gn, gl = scheme.gamma_m, scheme.gamma_n, scheme.gamma_l
    kdotv, kmudotv = _doppler_shifts(drive, probe, velocity)
    Om = drive.Omega - kdotv
    Omu = np.asarray(Omega_mu_grid, dtype=float) - kmudotv
    n = Omu.size

    pair = dressed_exponents(scheme, DriveField(G=drive.G, Omega=Om))
    min_rate = min(pair.alpha1.real, pair.alpha2.real, gl)
    T = settings.horizon if settings.horizon is not None else settings.horizon_factor / min_rate

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
    sol = solve_ivp(rhs, (0.0, T), y0, method=settings.method,
                    rtol=settings.rtol, atol=settings.atol)
    if not sol.success:
        raise ConvergenceError(f"time-domain integration failed: {sol.message}")
    return sol.y[2 + n:, -1].real.copy()


def w_mu_time_domain(scheme, drive, probe, velocity=(0.0, 0.0, 0.0),
                     settings: OdeSettings | None = None) -> float:
    """Emission density at probe.Omega_mu by direct integration.

    The drive pair (a_m, a_n) evolves exactly; the probed amplitude a_l is
    carried to first order in G_mu and 2*gamma_l*int|a_l|^2 dt accumulated
    to the horizon.  Velocity enters only through the two Doppler shifts.
    With settings.check the run is repeated at halved tolerances and a
    disagreement beyond 100x rtol raises ConvergenceError.
    """
    settings = settings or OdeSettings()
    w = _solve_emission(scheme, drive, probe, [probe.Omega_mu], velocity, settings)[0]
    if settings.check:
        tighter = OdeSettings(rtol=settings.rtol / 2.0, atol=settings.atol / 2.0,
                              horizon=settings.horizon,
                              horizon_factor=settings.horizon_factor,
                              method=settings.method, check=False)
        w2 = _solve_emission(scheme, drive, probe, [probe.Omega_mu], velocity, tighter)[0]
        if abs(w - w2) > 100.0 * settings.rtol * max(abs(w), abs(w2)):
            raise ConvergenceError(
                f"tolerance halving moved the result: {w!r} vs {w2!r}"
            )
        w = w2
    return float(w)


def w_mu_time_domain_grid(scheme, drive, probe, grid, velocity=(0.0, 0.0, 0.0),
                          settings: OdeSettings | None = None):
    """Vectorized w_mu_time_domain: one drive solve shared by all grid points."""
    settings = settings or OdeSettings()
    return _solve_emission(scheme, drive, probe, grid, velocity, settings)


def drive_trajectory(scheme, drive, times, velocity=(0.0, 0.0, 0.0),
                     settings: OdeSettings | None = None):
    """Rotating-frame (a_m, a_n) sampled at `times` by direct integration."""
    settings = settings or OdeSettings()
    gm, gn = scheme.gamma_m, scheme.gamma_n
    kdotv = drive.k * float(velocity[0])
    Om = drive.Omega - kdotv
    G = drive.G

    def rhs(t, y):
        return [-gm * y[0] + 1j * G * y[1], -(gn + 1j * Om) * y[1] + 1j * G * y[0]]

    times = np.asarray(times, dtype=float)
    sol = solve_ivp(rhs, (0.0, float(times[-1])), np.array([0, 1], dtype=complex),
                    t_eval=times, method=settings.method,
                    rtol=settings.rtol, atol=settings.atol)
    if not sol.success:
        raise ConvergenceError(f"trajectory integration failed: {sol.message}")
    return sol.y[0], sol.y[1]


def _auto_nodes(d: float) -> int:
    # Empirical Gauss-Hermite orders for a Lorentzian pole at distance d
    # (natural width over Doppler scale) to reach ~1e-10 relative.
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
    raise ValueError(
        f"pole distance {d:.3g} too small for reliable Gauss-Hermite averaging; "
        "supply explicit QuadratureSettings.nodes"
    )


def _gh_average_1d(fn, scale_k, scale_kmu, nodes):
    x, wx = roots_hermite(nodes)
    return float(np.sum(wx * fn(scale_k * x, scale_kmu * x))) / _SQRT_PI


def _gh_average_2d(fn, kv, kmuv, theta, nodes, chunk):
    x, wx = roots_hermite(nodes)
    ct, st = math.cos(theta), math.sin(theta)
    total = 0.0
    for i in range(0, nodes, chunk):
        X = x[i:i + chunk, None]
        vals = fn(kv * X, kmuv * (X * ct + x[None, :] * st))
        total += float(np.sum((wx[i:i + chunk, None] * wx[None, :]) * vals))
    return total / math.pi


def velocity_average(pointwise_fn, ensemble, k, k_mu, theta,
                     settings: QuadratureSettings | None = None,
                     pole_distance: float | None = None) -> float:
    """Maxwellian average of pointwise_fn(k.v, k_mu.v).

    pointwise_fn must be vectorized over numpy arrays of the two Doppler
    projections.  The average runs over the plane spanned by the two wave
    vectors (one axis when they are collinear or one vanishes); the
    orthogonal velocity component integrates out exactly.  Node count comes
    from settings.nodes or, when 0, from a pole-distance heuristic
    (pole_distance = smallest natural width over largest Doppler scale).
    With settings.doubling_check the count is doubled and a relative shift
    above 1e-9 raises ConvergenceError carrying both estimates.
    """
    settings = settings or QuadratureSettings()
    kv = k * ensemble.vbar
    kmuv = k_mu * ensemble.vbar
    if kv == 0.0 and kmuv == 0.0:
        return float(np.asarray(pointwise_fn(np.zeros(1), np.zeros(1)))[0])

    if settings.nodes:
        nodes = settings.nodes
    else:
        if pole_distance is None:
            raise ValueError("either settings.nodes or pole_distance is required")
        nodes = _auto_nodes(pole_distance)

    def run(n):
        if kv == 0.0:
            # Only the probe direction carries Doppler structure.
            return _gh_average_1d(pointwise_fn, 0.0, kmuv, n)
        if kmuv == 0.0 or math.sin(theta) == 0.0:
            return _gh_average_1d(pointwise_fn, kv, kmuv * math.cos(theta), n)
        return _gh_average_2d(pointwise_fn, kv, kmuv, theta, n, settings.chunk)

    val = run(nodes)
    if settings.doubling_check:
        val2 = run(2 * nodes)
        denom = max(abs(val), abs(val2), 1e-300)
        if abs(val - val2) / denom > 1e-9:
            raise ConvergenceError(
                f"node doubling moved the average beyond 1e-9: {val!r} vs {val2!r}"
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


CLOSED_FORM_IDS = ("eq2_6", "eq2_7", "eq3_2", "eq3_3", "eq4_2", "eq5_2")


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
        return {
            "closed_form_id": self.closed_form_id,
            "max_rel_dev": self.max_rel_dev,
            "tolerance": self.tolerance,
            "n_points": self.n_points,
            "regime_ratios": dict(self.regime_ratios),
            "regime_ok": self.regime_ok,
            "passed": self.passed,
            "explanation": self.explanation,
        }


_DEFAULTS = {
    "gamma_m": 1.0, "gamma_n": 2.0, "gamma_l": 0.5,
    "G": 3.0, "Omega": 4.0, "G_mu": 1e-3,
    "k": 0.0, "k_mu": 0.0, "theta": 0.0, "vbar": 1.0,
    "omega_mu_min": -20.0, "omega_mu_max": 20.0, "omega_mu_count": 33,
    "nodes": 0, "rtol": 1e-11, "atol": 1e-13,
}


def check_parameters(parameter_set: dict) -> None:
    """Raise ValueError or TypeError where certify would reject parameter_set.

    Catches unknown keys, non-numeric values and values that the physics
    objects or the oracle settings refuse, without running any oracle.
    """
    _settings(_build(parameter_set)[0])


def _build(parameter_set):
    p = dict(_DEFAULTS)
    unknown = set(parameter_set) - set(p)
    if unknown:
        raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
    p.update(parameter_set)
    scheme = LevelScheme(gamma_m=p["gamma_m"], gamma_n=p["gamma_n"], gamma_l=p["gamma_l"])
    drive = DriveField(G=p["G"], Omega=p["Omega"], k=p["k"])
    probe = ProbeField(G_mu=p["G_mu"], k_mu=p["k_mu"], theta=p["theta"])
    ensemble = ThermalEnsemble(vbar=p["vbar"])
    count = int(p["omega_mu_count"])
    if count < 1:
        raise ValueError("omega_mu_count must be >= 1")
    grid = np.linspace(p["omega_mu_min"], p["omega_mu_max"], count)
    return p, scheme, drive, probe, ensemble, grid


def _settings(p):
    return OdeSettings(rtol=p["rtol"], atol=p["atol"]), QuadratureSettings(nodes=int(p["nodes"]))


def _pole_distance(widths, scales):
    scales = [s for s in scales if s > 0.0]
    if not scales:
        return None
    return min(widths) / max(scales)


def _resolve_quadrature(settings, d):
    """Pick quadrature settings for a component set with pole distance d.

    d is None when every closed-form Doppler scale vanishes even though a
    wave vector may not: the sampled velocity projections then cancel
    inside the line shape, the integrand is constant along the quadrature
    axes, and a token node count reproduces it exactly.
    """
    if settings.nodes or d is not None:
        return settings, d
    token = QuadratureSettings(nodes=64, doubling_check=settings.doubling_check,
                               chunk=settings.chunk)
    return token, None


def certify(closed_form_id: str, parameter_set: dict, tolerance: float) -> CertifyReport:
    """Check one closed form against its brute-force route on a grid.

    parameter_set uses flat keys (gamma_m, gamma_n, gamma_l, G, Omega, G_mu,
    k, k_mu, theta, vbar, omega_mu_min/max/count, nodes, rtol, atol); absent
    keys fall back to documented defaults.  The report records the maximum
    relative deviation, regime diagnostics, and the pass verdict; a regime
    violation fails the run with an explanation even when the numbers agree,
    because agreement outside the regime does not certify the physics claim.
    """
    if closed_form_id not in CLOSED_FORM_IDS:
        raise ValueError(f"unknown closed_form_id {closed_form_id!r}; "
                         f"expected one of {CLOSED_FORM_IDS}")
    p, scheme, drive, probe, ensemble, grid = _build(parameter_set)
    ode, quad_settings = _settings(p)

    ratios: dict = {}
    regime_ok = True
    regime_note = ""

    if closed_form_id == "eq2_6":
        closed = np.atleast_1d(w_mu_exact(scheme, drive, probe, grid))
        ref = w_mu_time_domain_grid(scheme, drive, probe, grid, settings=ode)
        dev = float(np.max(np.abs(closed - ref) / np.abs(ref)))
        note = "exact form vs time-domain integration, pointwise relative"

    elif closed_form_id == "eq2_7":
        closed, _ = w_mu_weak(scheme, drive, probe, grid)
        closed = np.atleast_1d(closed)
        ref = w_mu_time_domain_grid(scheme, drive, probe, grid, settings=ode)
        dev = float(np.max(np.abs(closed - ref)) / np.max(np.abs(ref)))
        ratios["G_over_weak_scale"] = weak_field_ratio(scheme, drive)
        regime_ok = ratios["G_over_weak_scale"] <= 0.01
        regime_note = "weak-drive expansion needs G/|Omega - i(gamma_n-gamma_m)| <= 0.01"
        note = "weak-drive form vs time-domain integration, peak relative"

    elif closed_form_id in ("eq3_2", "eq3_3"):
        comps = dop.weak_doublet_components(scheme, drive, probe, ensemble)
        widths = [c.natural_halfwidth for c in comps]
        scales = [c.doppler_scale for c in comps]
        ratios["Omega_over_drive_doppler"] = abs(drive.Omega) / max(drive.k * ensemble.vbar, 1e-300)
        closed_full = np.atleast_1d(dop.doppler_weak_doublet(scheme, drive, probe, ensemble, grid))
        if closed_form_id == "eq3_2":
            qs, d = _resolve_quadrature(quad_settings, _pole_distance(widths, scales))
            ref = np.array([
                velocity_average(weak_pointwise(scheme, drive, probe, x), ensemble,
                                 drive.k, probe.k_mu, probe.theta,
                                 settings=qs, pole_distance=d)
                for x in grid
            ])
            dev = float(np.max(np.abs(closed_full - ref) / np.abs(ref)))
            note = "averaged doublet vs Gauss-Hermite quadrature, pointwise relative"
        else:
            approx = np.atleast_1d(dop.weak_doublet_gaussian(scheme, drive, probe, ensemble, grid))
            dev = float(np.max(np.abs(approx - closed_full)) / np.max(np.abs(closed_full)))
            ratios["doppler_over_width"] = min(
                s / w for s, w in zip(scales, widths)) if all(s > 0 for s in scales) else 0.0
            regime_ok = ratios["doppler_over_width"] >= 100.0
            regime_note = "Gaussian form needs every Doppler scale >= 100x its natural width"
            note = "Gaussian approximation vs full averaged doublet, peak relative"

    elif closed_form_id == "eq4_2":
        comps = dop.strong_doublet_components(scheme, drive, probe, ensemble)
        widths = [c.natural_halfwidth for c in comps]
        scales = [c.doppler_scale for c in comps]
        ratios["G_over_drive_doppler"] = drive.G / max(drive.k * ensemble.vbar, 1e-300)
        qs, d = _resolve_quadrature(quad_settings, _pole_distance(widths, scales))
        closed = np.atleast_1d(dop.doppler_strong_doublet(scheme, drive, probe, ensemble, grid))
        ref = np.array([
            velocity_average(strong_pointwise(scheme, drive, probe, x), ensemble,
                             drive.k, probe.k_mu, probe.theta,
                             settings=qs, pole_distance=d)
            for x in grid
        ])
        dev = float(np.max(np.abs(closed - ref) / np.abs(ref)))
        note = "averaged dressed doublet vs Gauss-Hermite quadrature, pointwise relative"

    else:  # eq5_2
        ratios.update(dop.triplet_regime_ratios(scheme, drive, ensemble))
        regime_ok = all(v >= 10.0 for v in ratios.values())
        regime_note = ("strong-drive triplet limit needs G at least 10x each of "
                       "|Omega|, Gamma, k*vbar")
        comps = dop.triplet_components(scheme, drive, probe, ensemble)
        widths = [c.natural_halfwidth for c in comps]
        scales = [c.doppler_scale for c in comps]
        qs, d = _resolve_quadrature(quad_settings, _pole_distance(widths, scales))
        closed = np.atleast_1d(dop.fluorescence_triplet(scheme, drive, probe, ensemble, grid))
        ref = np.array([
            velocity_average(triplet_pointwise(scheme, drive, probe, x), ensemble,
                             drive.k, probe.k_mu, probe.theta,
                             settings=qs, pole_distance=d)
            for x in grid
        ])
        dev = float(np.max(np.abs(closed - ref) / np.abs(ref)))
        note = "averaged triplet vs Gauss-Hermite quadrature, pointwise relative"

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
