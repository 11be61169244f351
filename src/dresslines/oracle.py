"""Brute-force validators for every closed form in the package.

Two independent routes:

* Time domain: propagate the rotating-frame amplitude equations, linear
  with constant coefficients, by a block matrix exponential and repeated
  doubling of its step, accumulating the emission integral
  2*gamma_l * int |a_l|^2 dt until the amplitudes have decayed.  numpy
  alone, no step-size control and no dressed-state algebra; agreement with
  the closed forms certifies them.
* Velocity space: the tensor-product trapezoidal rule over the (at most
  two) velocity projections a pointwise spectrum depends on, with a step
  worked out from the distance of the nearest line-shape pole.  An
  averaged form is checked on its own components: each, as the Lorentzian
  an atom moving at v emits, shifted by M*k.v - k_mu.v, must average to
  the Voigt of scale q(M, theta)*vbar that the form sums.  This certifies
  the Doppler integral, not the line table; the tests check the table
  against w_mu_exact at k = k_mu = 0.

`certify` runs one row of a table of closed forms, keyed by identifier:
the form, its reference route, a deviation measure and a regime check.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import doppler as dop
from .model import (
    ConvergenceError,
    DriveField,
    LevelScheme,
    ProbeField,
    RegimeError,
    ThermalEnsemble,
)
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
# _MAX_POINTS per axis, checked against the finest step an average runs,
# bounds it at about 7e7 evaluations of the 2-D grid.  The grid is taken
# _SLAB_ROWS rows at a time, so memory stays bounded by one slab: k_mu.v is
# formed for a slab in one broadcast pass, and the slab is contracted with
# the weights as w_rows @ (vals @ w), a gemv and a dot, with no weight matrix.
_MAX_POINTS = 8400
_SLAB_ROWS = 64
# The time-domain route, w_mu_time_domain_grid.  Van Loan's block
# [[-A^H, Q], [0, A]]*h has inf-norm at most 3*_STEP_NORM, so _TAYLOR_TERMS
# terms leave a remainder below 1.5**25/25!*e**1.5 < 1e-20.  The propagator
# is carried as D = Phi - 1: a decay rate far below ||A||_inf leaves Phi(h)
# within rate*h of 1, and Phi itself would keep only a relative
# eps/(rate*h) of that difference.  _MAX_DOUBLINGS reaches 2**64 steps, a
# ratio ||A||_inf/(slowest decay rate) up to about 5e17.
_STEP_NORM = 0.5
_TAYLOR_TERMS = 24
_TAIL = 1e-17
_MAX_DOUBLINGS = 64
_HALVING_RTOL = 1e-10


def _generator(scheme, drive, grid):
    """The 3x3 generator A of y = (a_m, a_n, a_l) at each detuning in grid,
    with a_m feeding a_l to first order at the rate gamma_l, not G_mu."""
    A = np.zeros((grid.size, 3, 3), dtype=complex)
    A[:, 0, 0] = -scheme.gamma_m
    A[:, 0, 1] = A[:, 1, 0] = 1j * drive.G
    A[:, 1, 1] = -complex(scheme.gamma_n, drive.Omega)
    A[:, 2, 0] = 1j * scheme.gamma_l
    A[:, 2, 2] = -scheme.gamma_l
    A[:, 2, 2].imag = -grid      # -1j*grid would have a nan real part at an infinite detuning
    return A


def _emission(A, gamma_l, h):
    """W[n, n] of the emission Gramian of each generator in A, stepped at h
    and doubled, the whole grid together, until every ||Phi||_F^2 <= _TAIL."""
    with np.errstate(over="ignore", invalid="ignore"):
        M = np.zeros((len(A), 6, 6), dtype=complex)
        M[:, :3, :3] = -A.conj().swapaxes(1, 2)
        M[:, 2, 5] = 2.0 * gamma_l
        M[:, 3:, 3:] = A
        M *= h[:, None, None]
        eye = np.eye(6)
        E = eye
        for k in range(_TAYLOR_TERMS, 1, -1):
            E = eye + (M @ E) / k
        E = M @ E                       # exp(M) - 1
        D = E[:, 3:, 3:]
        W = (np.eye(3) + D).conj().swapaxes(1, 2) @ E[:, :3, 3:]
        for _ in range(_MAX_DOUBLINGS + 1):
            phi = D + np.eye(3)
            # a nan tail holds nothing back, for the finiteness check to report
            above = np.sum(phi.real**2 + phi.imag**2, axis=(1, 2)) > _TAIL
            if not above.any():
                return W[:, 1, 1].real
            DH, WD = D.conj().swapaxes(1, 2), W @ D
            W = 2.0 * W + DH @ W + WD + DH @ WD
            D = 2.0 * D + D @ D
    raise ConvergenceError(
        f"the propagator at grid point {np.argmax(above)} did not decay to {_TAIL:g} "
        f"within {_MAX_DOUBLINGS} doublings")


def _halved(run, h, rtol):
    """run(h/2), once it agrees with run(h) to rtol at every point; a point
    that moved further raises ConvergenceError naming it."""
    coarse, fine = run(h), run(0.5 * h)
    a, b = np.atleast_1d(coarse), np.atleast_1d(fine)
    moved = np.abs(a - b) > rtol * np.maximum(np.abs(a), np.abs(b))
    if np.any(moved):
        i = int(np.argmax(moved))
        raise ConvergenceError(f"step halving moved the result at point {i} beyond "
                               f"{rtol:g}: {float(a[i])!r} vs {float(b[i])!r}")
    return fine


def w_mu_time_domain_grid(scheme, drive, probe, grid, *, halving_check: bool = False):
    """Emission density of an atom at rest at each probe detuning in grid,
    from the amplitude equations propagated in time.

    At each detuning y = (a_m, a_n, a_l) obeys y' = A*y from y = e_n, and
    the density is 2*gamma_l*int|a_l|^2 dt over all t >= 0.  To first order
    it is exactly quadratic in G_mu, so A feeds a_l at the rate gamma_l and
    the result is scaled by (G_mu/gamma_l)^2: the probe sets no step.  The
    integral is W[n, n] of the Gramian of A: one 24-term Taylor series of
    Van Loan's 6x6 block exponential gives the propagator Phi and W over a
    step h = 0.5/||A||_inf of each point, and doubling the whole grid
    (W <- W + Phi^H W Phi, Phi <- Phi^2) carries both out until every point
    has ||Phi||_F^2 <= 1e-17, which bounds ||Phi||_2^2.  More than 64
    doublings, or a scaled value that is not finite, raises
    ConvergenceError.  No dressed-state algebra enters.  Rounding grows as
    eps times |Omega_mu|/gamma_l, the probed amplitude's rotation over its
    decay: near 1e-10 relative at a ratio of 1e6, where the halving check
    can fail.  For an atom moving at v, pass drive.Omega - k.v and the grid
    less k_mu.v.  With halving_check the run is repeated at h/2, a relative
    disagreement beyond 1e-10 at any point raises ConvergenceError, and the
    finer run is returned.
    """
    grid = np.asarray(grid, dtype=float).reshape(-1)
    A = _generator(scheme, drive, grid)
    h = _STEP_NORM / np.max(np.sum(np.abs(A), axis=2), axis=1)
    run = partial(_emission, A, scheme.gamma_l)
    w = _halved(run, h, _HALVING_RTOL) if halving_check else run(h)
    r = probe.G_mu / scheme.gamma_l
    with np.errstate(over="ignore", invalid="ignore"):
        w = w * r * r
    bad = ~np.isfinite(w)
    if bad.any():
        raise ConvergenceError(
            f"the time-domain density is not finite at grid point {np.argmax(bad)}")
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
    # a pointwise function may return a scalar; @ needs the full axis
    return float(wx @ np.broadcast_to(fn(scale_k * x, scale_kmu * x), x.shape))


def _average_2d(fn, kv, kmuv, theta, h):
    x, wx = _trapezoid_points(h)
    kmu_rows = (kmuv * math.cos(theta)) * x
    kmu_cols = (kmuv * math.sin(theta)) * x
    total = 0.0
    for i in range(0, x.size, _SLAB_ROWS):
        rows = slice(i, i + _SLAB_ROWS)
        kmudotv = kmu_rows[rows, None] + kmu_cols
        # a pointwise function may return a (rows, 1) column or a scalar
        vals = np.broadcast_to(fn(kv * x[rows, None], kmudotv), kmudotv.shape)
        total += float(wx[rows] @ (vals @ wx))
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
    whose finest step needs more than 8400 points per axis raises
    ValueError: d below about 0.0085, or 0.017 with doubling_check.  With
    doubling_check the average is repeated at h/2 by the same rule as the
    time-domain halving check: a relative shift above 1e-9 raises
    ConvergenceError carrying both estimates, and the finer estimate is
    returned.
    """
    kv = k * ensemble.vbar
    kmuv = k_mu * ensemble.vbar
    if kv == 0.0 and kmuv == 0.0:
        return float(np.asarray(pointwise_fn(np.zeros(1), np.zeros(1)))[0])
    if pole_distance is None:
        raise ValueError("pole_distance is required when a wave vector is nonzero")
    h = _trapezoid_step(pole_distance)
    finest = 0.5 * h if doubling_check else h
    # 2*floor(L/h) + 1 points per axis; written so that d <= 0 or NaN fails too
    if not _HALF_SPAN < 0.5 * _MAX_POINTS * finest:
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

    return _halved(run, h, 1e-9) if doubling_check else run(h)


def _lorentzian_sum(components, Omega_mu):
    """f(k.v, k_mu.v) of the components at probe detuning Omega_mu: each is
    the Lorentzian weight*a/(a^2 + (Omega_mu - center + M*k.v - k_mu.v)^2)
    of its natural half-width a and memory M, the line an atom moving at v
    emits.  Its velocity average checks each component's Voigt and Doppler
    scale, read from the same table; the table itself is checked against
    w_mu_exact in the tests.  Weight and half-width are folded into one
    numerator, and each shifted detuning is a column term less k_mu.v,
    formed, squared and divided in place on one slab."""
    lines = [(c.weight * c.natural_halfwidth, c.natural_halfwidth * c.natural_halfwidth,
              Omega_mu - c.center, c.memory) for c in components]

    def fn(kdotv, kmudotv):
        out = None
        for num, a2, c, M in lines:
            # an array even for float projections, for the in-place steps
            x = np.asarray((c + M * kdotv) - kmudotv, dtype=float)
            x *= x
            x += a2
            np.divide(num, x, out=x)
            if out is None:
                out = x
            else:
                out += x
        return out

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


def _velocity_route(components, scheme, drive, probe, ensemble, grid):
    """Route of an averaged form given as its components builder: their
    density sum, and at each detuning the velocity average of the same
    components as Lorentzians at explicit k.v and k_mu.v shifts, with the
    components' pole distance."""
    comps = components(scheme, drive, probe, ensemble)
    d = _pole_distance([c.natural_halfwidth for c in comps],
                       [c.doppler_scale for c in comps])
    closed, ref = zip(*[(dop.density_sum(comps, float(x)),
                         velocity_average(_lorentzian_sum(comps, x), ensemble, drive.k,
                                          probe.k_mu, probe.theta, pole_distance=d))
                        for x in grid])
    return np.array(closed), np.array(ref)


_VELOCITY = ("trapezoidal quadrature", _velocity_route)

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


def _doublet_regime(key, scheme, drive, probe, ensemble):
    """One of doppler.doublet_regime_ratios, reported without a gate."""
    return {key: dop.doublet_regime_ratios(scheme, drive, ensemble)[key]}, True, ""


def _gaussian_regime(scheme, drive, probe, ensemble):
    ratios, _, _ = _doublet_regime("Omega_over_drive_doppler", scheme, drive, probe, ensemble)
    comps = dop.weak_doublet_components(scheme, drive, probe, ensemble)
    ratios["doppler_over_width"] = min(
        dop.regime_ratio(c.doppler_scale, c.natural_halfwidth) for c in comps)
    return (ratios, ratios["doppler_over_width"] >= 100.0,
            "Gaussian form needs every Doppler scale >= 100x its natural width")


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
              _VELOCITY, _POINTWISE, partial(_doublet_regime, "Omega_over_drive_doppler")),
    "eq3_3": ("Gaussian approximation", lambda *a: dop.weak_doublet_gaussian(*a),
              _FULL_AVERAGE, _PEAK, _gaussian_regime),
    "eq4_2": ("averaged dressed doublet", lambda *a: dop.strong_doublet_components(*a),
              _VELOCITY, _POINTWISE, partial(_doublet_regime, "G_over_drive_doppler")),
    "eq5_2": ("averaged triplet", lambda *a: dop.triplet_components(*a),
              _VELOCITY, _POINTWISE, _triplet_regime),
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
    the physics claim.  A form or route that refuses the set (ValueError),
    or a reference that is zero where the measure divides by it, raises
    RegimeError naming the id.
    """
    if closed_form_id not in CLOSED_FORM_IDS:
        raise ValueError(f"unknown closed_form_id {closed_form_id!r}; "
                         f"expected one of {CLOSED_FORM_IDS}")
    name, closed, (route_name, route), (measure_name, measure), regime = _FORMS[closed_form_id]
    _, scheme, drive, probe, ensemble, grid = _build(parameter_set)
    ratios, regime_ok, regime_note = regime(scheme, drive, probe, ensemble)
    try:
        error, scale = measure(*route(closed, scheme, drive, probe, ensemble, grid))
    except ValueError as e:  # e.g. a pole distance the velocity route cannot resolve
        raise RegimeError(f"{closed_form_id}: {e}") from e
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
