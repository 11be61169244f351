"""Velocity-averaged line shapes and their direction-dependent widths.

Every averaged component here is a Voigt-type profile: a Lorentzian of some
natural half-width convolved with a Gaussian whose scale is an effective
wave vector times the thermal speed.  The effective wave vector

    q(M, theta) = |k_mu - M*k|  (vector sense)
                = sqrt((k_mu - M*k)**2 + 4*M*k*k_mu*sin(theta/2)**2)

interpolates between a stepwise line (M = 0, full probe Doppler width
k_mu*vbar) and a fully correlated two-photon line (M = 1, width |k_mu - k|
vbar, vanishing for forward observation at k_mu = k).  The three family
builders write their lines as tables, and one constructor gives each
component the Doppler scale q(M, theta)*vbar of its own memory fraction.

Every profile is the real part of the Faddeeva function w(z), from the
package's own numpy kernel in faddeeva.py.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial, reduce
from operator import add

import numpy as np

from .dressed import dressed_exponents, memory_factors
from .faddeeva import elementwise, w_block, w_scalar
from .model import (
    DriveField,
    LevelScheme,
    ProbeField,
    ProcessKind,
    RegimeError,
    ThermalEnsemble,
    apply_process_signs,
    regime_ratio,
)
from .stationary import weak_field_ratio

_SQRT_PI = math.sqrt(math.pi)
_SQRT_LN2 = math.sqrt(math.log(2.0))
_SCALAR = (int, float)  # np.float64 is a float


def effective_q(k: float, k_mu: float, theta: float, M: float) -> float:
    """Effective wave vector controlling one component's Doppler width."""
    if not k >= 0 or not k_mu >= 0:
        raise ValueError("k and k_mu must be >= 0")
    if not 0.0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi]")
    if not 0.0 <= M <= 1.0:
        raise ValueError("M must lie in [0, 1]")
    d, half = k_mu - M * k, math.sin(theta / 2.0)
    try:
        q = math.sqrt(d ** 2 + 4.0 * M * k * k_mu * half ** 2)
    except OverflowError:  # d**2 leaves the float range, where q need not
        q = math.inf
    return q if q < math.inf else math.hypot(d, 2.0 * half * math.sqrt(M * k) * math.sqrt(k_mu))


def voigt_density(natural_halfwidth, detuning, doppler_scale):
    """Lorentzian of half-width a convolved with a Gaussian of 1/e half-width s.

    Normalized so the area over detuning is pi, matching the bare Lorentzian
    a/(a**2 + x**2).  doppler_scale = 0 returns that Lorentzian exactly.
    Vectorized over detuning; three scalar arguments (int, float or
    np.float64) return a Python float, bit-identical to the array path at
    any finite detuning.  Any of the three may be an array, and they
    broadcast against each other, such as one (k, 1) row per component
    against a (k, n) detuning, so that one call evaluates k components;
    faddeeva.elementwise then copies each (k, 1) column to (k, n) once.
    """
    if (isinstance(natural_halfwidth, _SCALAR) and isinstance(detuning, _SCALAR)
            and isinstance(doppler_scale, _SCALAR)):
        a, s = float(natural_halfwidth), float(doppler_scale)
        if not a > 0:
            raise ValueError("natural_halfwidth must be > 0")
        if not s >= 0:
            raise ValueError("doppler_scale must be >= 0")
        return _voigt(a, float(detuning), s)
    a = np.asarray(natural_halfwidth, dtype=float)
    s = np.asarray(doppler_scale, dtype=float)
    if not (a > 0).all():
        raise ValueError("natural_halfwidth must be > 0")
    if not (s >= 0).all():
        raise ValueError("doppler_scale must be >= 0")
    return elementwise(_voigt_block, a, detuning, s)


def _voigt(a: float, x: float, s: float) -> float:
    """voigt_density for Python floats: where x/s or a/s is not finite (s = 0
    too), the Lorentzian a/(a**2 + x**2), which the Gaussian moves by far less
    than rounding there."""
    inv = 1.0 / s if s else math.inf
    u, y = x * inv, a * inv
    if math.isfinite(u) and math.isfinite(y):
        return (_SQRT_PI / s) * w_scalar(u, y)[0]
    return a / (a * a + x * x)


def _voigt_block(a, x, s):
    """voigt_density for 1-D float arrays, with the operations of _voigt."""
    with np.errstate(divide="ignore"):  # a zero scale's inverse is inf, as in _voigt
        inv = 1.0 / s
    u, y = x * inv, a * inv
    ok = np.isfinite(u) & np.isfinite(y)
    if ok.all():
        return (_SQRT_PI / s) * w_block(u, y)[0]
    out = a / (a * a + x * x)
    out[ok] = (_SQRT_PI / s[ok]) * w_block(u[ok], y[ok])[0]
    return out


@dataclass(frozen=True)
class DopplerComponent:
    """One Voigt component of an averaged spectrum, prefactor folded in.

    center is expressed in the caller's Omega_mu coordinates (process-kind
    sign already applied); density(Omega_mu) evaluates just this component.
    """

    label: str
    center: float
    natural_halfwidth: float
    doppler_scale: float
    weight: float
    memory: float

    def density(self, Omega_mu):
        return density_sum([self], Omega_mu)


def _column(components, field):
    """One field of every component as a (k, 1) column, a row each."""
    return np.reshape([getattr(c, field) for c in components], (len(components), 1))


def density_sum(components, Omega_mu):
    """Sum of the components' densities at Omega_mu, added left to right.

    A float Omega_mu (np.float64 included) returns a Python float.  An
    array goes through faddeeva.elementwise, whose blocks take one
    voigt_density call for all components, a (k, block) row each, with the
    operations of the float sum.
    """
    if isinstance(Omega_mu, float):
        return _float_sum(components, float(Omega_mu))
    return elementwise(partial(_block_sum, components), Omega_mu)


def _float_sum(components, x):
    """density_sum at a Python float x."""
    return reduce(add, [c.weight * voigt_density(c.natural_halfwidth, x - c.center,
                                                 c.doppler_scale) for c in components])


def _block_sum(components, x):
    """density_sum at a 1-D array x, with the operations of _float_sum."""
    rows = voigt_density(_column(components, "natural_halfwidth"),
                         x - _column(components, "center"),
                         _column(components, "doppler_scale"))
    return reduce(add, [c.weight * row for c, row in zip(components, rows)])


def _components(drive, probe, ensemble, theta, lines):
    """The DopplerComponents of a line table.

    Each line (label, center, natural half-width, weight, memory M) gets the
    Doppler scale q(M, theta)*vbar of its own memory fraction, with the drive
    and probe wave vectors and the ensemble's thermal speed.  A weight that
    is not finite, or a nonzero scale without a finite reciprocal or whose
    half-width over it is not finite, raises RegimeError naming its line.
    """
    comps = [DopplerComponent(label, center, halfwidth,
                              effective_q(drive.k, probe.k_mu, theta, M) * ensemble.vbar,
                              weight, M)
             for label, center, halfwidth, weight, M in lines]
    for c in comps:
        s = c.doppler_scale
        if not math.isfinite(c.weight):
            raise RegimeError(f"{c.label}: weight {c.weight!r} is not finite")
        if s and not (math.isfinite(s) and math.isfinite(1.0 / s)):
            raise RegimeError(f"{c.label}: Doppler scale {s!r} has no finite reciprocal")
        if s and not math.isfinite(c.natural_halfwidth * (1.0 / s)):
            raise RegimeError(f"{c.label}: half-width {c.natural_halfwidth!r} over Doppler "
                              f"scale {s!r} is not finite")
    return comps


def weak_doublet_components(
    scheme: LevelScheme,
    drive: DriveField,
    probe: ProbeField,
    ensemble: ThermalEnsemble,
    kind: ProcessKind = ProcessKind.RAMAN_UPPER_INTERMEDIATE,
):
    """The stepwise and Raman components of the weak-drive averaged doublet."""
    signed_drive, s_mu, theta_eff = apply_process_signs(kind, drive, probe.theta)
    Om_s = signed_drive.Omega
    if Om_s == 0.0:
        raise RegimeError("weak-drive doublet undefined at Omega = 0")
    gm, gn, gl = scheme.gamma_m, scheme.gamma_n, scheme.gamma_l
    pref = abs(drive.G * probe.G_mu) ** 2 / Om_s**2
    return _components(drive, probe, ensemble, theta_eff, [
        ("stepwise", 0.0, gl + gm, pref / gm, 0.0),
        ("raman", s_mu * Om_s, gl + gn, pref / gn, 1.0),
    ])


def doppler_weak_doublet(
    scheme,
    drive,
    probe,
    ensemble,
    Omega_mu,
    kind: ProcessKind = ProcessKind.RAMAN_UPPER_INTERMEDIATE,
):
    """Velocity-averaged weak-drive doublet (interference neglected).

    Sum of a stepwise Voigt component centered at Omega_mu = 0 (Doppler
    scale k_mu*vbar) and a correlated two-photon component centered at the
    drive detuning (Doppler scale q*vbar, direction dependent).  Scalar or
    array Omega_mu.
    """
    return density_sum(weak_doublet_components(scheme, drive, probe, ensemble, kind), Omega_mu)


def weak_doublet_gaussian(
    scheme,
    drive,
    probe,
    ensemble,
    Omega_mu,
    kind: ProcessKind = ProcessKind.RAMAN_UPPER_INTERMEDIATE,
):
    """Doppler-dominated approximation: both components as pure Gaussians.

    Valid when every Doppler scale far exceeds the natural widths; provided
    for regime studies and certified against the full form at the percent
    level in its domain.  Omega_mu goes through faddeeva.elementwise, block
    by block, so a float returns a Python float, a one-point block.
    """
    comps = weak_doublet_components(scheme, drive, probe, ensemble, kind)
    if any(c.doppler_scale == 0.0 for c in comps):
        raise RegimeError("Gaussian form undefined for a zero Doppler scale")
    return elementwise(partial(_gaussian_sum, comps), Omega_mu)


def _gaussian_sum(components, x):
    """The components as pure Gaussians, at a 1-D array x."""
    out = 0.0
    for c in components:
        u = (x - c.center) / c.doppler_scale
        out = out + c.weight * (_SQRT_PI / c.doppler_scale) * np.exp(-(u * u))
    return out


def strong_doublet_components(
    scheme: LevelScheme,
    drive: DriveField,
    probe: ProbeField,
    ensemble: ThermalEnsemble,
    kind: ProcessKind = ProcessKind.RAMAN_UPPER_INTERMEDIATE,
):
    """The two dressed components of the strong-drive averaged doublet.

    Component j sits at the exponent's oscillation frequency Im(alpha_j),
    has natural half-width gamma_l + Re(alpha_j), Doppler scale q_j*vbar
    with memory weight M_j, and statistical weight 1/(2*Re(alpha_j)); the
    common prefactor 2|G*G_mu|^2/|alpha_1-alpha_2|^2 is folded in.  In the
    weak-drive limit the weights carry |Omega - i*(gamma_n - gamma_m)|^2
    where the stepwise/Raman pair has Omega^2, so the two agree only for
    |Omega| >> |gamma_n - gamma_m|.
    """
    signed_drive, s_mu, theta_eff = apply_process_signs(kind, drive, probe.theta)
    pair = dressed_exponents(scheme, signed_drive)
    if pair.is_degenerate:
        raise RegimeError(
            "dressed exponents collapse; averaged doublet form not applicable"
        )
    M1, M2 = memory_factors(signed_drive)
    pref = 2.0 * abs(drive.G * probe.G_mu) ** 2 / abs(pair.splitting) ** 2
    return _components(drive, probe, ensemble, theta_eff, [
        (f"dressed{j}", s_mu * alpha.imag, scheme.gamma_l + alpha.real,
         pref / (2.0 * alpha.real), M)
        for j, (alpha, M) in enumerate(((pair.alpha1, M1), (pair.alpha2, M2)), start=1)
    ])


def doppler_strong_doublet(
    scheme,
    drive,
    probe,
    ensemble,
    Omega_mu,
    kind: ProcessKind = ProcessKind.RAMAN_UPPER_INTERMEDIATE,
):
    """Velocity-averaged strong-drive doublet (interference neglected).

    Two Voigt components at the dressed frequencies, separated by
    sqrt(Omega**2 + 4G**2), each with its own direction-dependent Doppler
    scale q_j*vbar.  Scalar or array Omega_mu.
    """
    return density_sum(strong_doublet_components(scheme, drive, probe, ensemble, kind), Omega_mu)


def triplet_components(
    scheme: LevelScheme,
    drive: DriveField,
    probe: ProbeField,
    ensemble: ThermalEnsemble,
):
    """The three components of the strong-drive fluorescence triplet.

    Emission on the driven transition itself: components at the drive
    frequency and shifted by +-2G, weights 1:2:1, common natural half-width
    Gamma = gamma_m + gamma_n, common correlated Doppler scale q*vbar with
    q = |k_mu - k| geometry.  Weights normalized to unit total area.
    """
    if drive.G <= 0:
        raise RegimeError("triplet requires a nonzero drive")
    return _components(drive, probe, ensemble, probe.theta, [
        (label, drive.Omega + shift, scheme.gamma_sum, mult / (4.0 * math.pi), 1.0)
        for mult, shift, label in ((1.0, -2.0 * drive.G, "side_low"),
                                   (2.0, 0.0, "center"),
                                   (1.0, +2.0 * drive.G, "side_high"))
    ])


def fluorescence_triplet(scheme, drive, probe, ensemble, Omega_mu):
    """Velocity-averaged fluorescence triplet on the driven transition.

    Valid in the strong-drive limit G >> |Omega|, Gamma, k*vbar (regime
    reported by triplet_regime_ratios, not enforced).  Normalized to unit
    total area in Omega_mu.  Scalar or array Omega_mu.
    """
    return density_sum(triplet_components(scheme, drive, probe, ensemble), Omega_mu)


def doublet_regime_ratios(scheme, drive, ensemble) -> dict:
    """How deeply the doublets' limits are satisfied: the weak-drive
    expansion parameter and the drive's detuning and strength over its
    Doppler scale k*vbar."""
    kv = drive.k * ensemble.vbar
    return {"G_over_weak_scale": weak_field_ratio(scheme, drive),
            "Omega_over_drive_doppler": regime_ratio(abs(drive.Omega), kv),
            "G_over_drive_doppler": regime_ratio(drive.G, kv)}


def triplet_regime_ratios(scheme, drive, ensemble) -> dict:
    """How deeply the strong-drive triplet limit is satisfied (larger is better)."""
    return {
        "G_over_Omega": regime_ratio(drive.G, abs(drive.Omega)),
        "G_over_Gamma": regime_ratio(drive.G, scheme.gamma_sum),
        "G_over_doppler": regime_ratio(drive.G, drive.k * ensemble.vbar),
    }


# The constants of scipy's Brent routines, which the ports below follow.
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_RTOL = 4.0 * sys.float_info.epsilon


def _brent_minimize(f, a: float, b: float, xatol: float) -> float:
    """Minimizer of f on [a, b] by Brent's golden-section and parabolic steps.

    Brent, Algorithms for Minimization without Derivatives (1973), ch. 5,
    step for step as scipy's bounded minimize_scalar: the same floating
    point operations in the same order, so the same abscissae and result,
    and like it at most 500 calls of f.
    """
    fulc = nfc = xf = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = -tol1 if xm - xf < 0 else tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        step = max(abs(rat), tol1)
        x = xf - step if rat < 0 else xf + step
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf


def _brent_root(f, xa: float, xb: float, xtol: float) -> float:
    """Root of f bracketed by [xa, xb], by Brent's method.

    Brent (1973), ch. 4, step for step as scipy's brentq (brentq.c) at its
    default rtol of 4 eps and 100 steps: the same iterates and result.  A
    nan value of f, a bracket without a sign change or 100 steps without
    convergence raise ValueError.
    """
    def g(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function is nan at x={x}")
        return fx

    xpre, xcur = xa, xb
    fpre, fcur = g(xpre), g(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)  # cubic in f: 0 once |f| < ~1e-100
                # where it underflows, brentq.c's quotient is inf or nan, and it bisects
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = g(xcur)
    raise ValueError("root search did not converge in 100 steps")


# The 16-point Gauss-Legendre rule on [-1, 1], numpy's leggauss(16) written
# out: the call would import numpy.polynomial and run an eigen-solve in every
# process that imports this module.
_GL_HALF_NODES = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
                  0.6178762444026438, 0.755404408355003, 0.8656312023878318,
                  0.9445750230732326, 0.9894009349916499)
_GL_HALF_WEIGHTS = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                    0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                    0.062253523938647456, 0.027152459411754176)
_GL_NODES = np.array([-x for x in reversed(_GL_HALF_NODES)] + list(_GL_HALF_NODES))
_GL_WEIGHTS = np.array(list(reversed(_GL_HALF_WEIGHTS)) + list(_GL_HALF_WEIGHTS))
# quad's partition may hold at most _MAX_PANELS panels, as QUADPACK's limit
# bounds its subintervals: an integrand that never converges (a nan) would
# otherwise double its open panels, and the points of f's call, every level.
_MAX_PANELS = 1000
# quad's relative tolerance.  At 1e-8 a wide panel beside a Lorentzian
# (a = 1, centers 0 and 26.8125, weights 0.5 and 2, window [-1, 27.8125])
# closed before its rule converged, 5e-9 off a tight reference; at 1e-10
# random Lorentzian and Voigt pairs stay within 1e-10 of it.
_EPSREL = 1e-10
# find_peak's coarse grid, one array call of f before Brent's refinement.
_PEAK_GRID = 2001
# voigt_fwhm widens its bracket by this fraction against rounding.
_BRACKET_MARGIN = 1e-9


def _panel_sums(f, a, b):
    """16-point Gauss-Legendre sums of f over the panels [a_i, b_i], from one
    array call of f."""
    half = 0.5 * (b - a)
    x = (0.5 * a + 0.5 * b)[:, None] + half[:, None] * _GL_NODES
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    return (y * _GL_WEIGHTS).sum(axis=1) * half


def _edges(lo: float, hi: float, points):
    """The sorted distinct values of lo, hi and the points strictly inside
    (lo, hi), as np.unique sorts and drops repeats; np.unique itself would
    import numpy.ma on its first call."""
    edges = np.sort([lo, hi, *(p for p in points if lo < p < hi)])
    return edges[np.r_[True, edges[1:] != edges[:-1]]]


def quad(f, lo: float, hi: float, points=()) -> float:
    """Integral of f over [lo, hi] on adaptive 16-point Gauss-Legendre panels.

    The panels start split at the points inside (lo, hi).  Each level makes
    one array call of f, on the nodes of both halves of every open panel.  A
    panel is closed with its halves' sum once halving moves its sum by at
    most its share of _EPSREL: _EPSREL times the integral's current estimate
    times the panel's fraction of hi - lo.  Every other panel is halved.
    Raises ValueError once the partition exceeds _MAX_PANELS panels.
    """
    edges = _edges(lo, hi, points)
    a, b = edges[:-1], edges[1:]
    m = 0.5 * a + 0.5 * b
    whole, left, right = np.split(_panel_sums(f, np.r_[a, a, m], np.r_[b, m, b]), 3)
    closed, n_closed = 0.0, 0
    share = _EPSREL / (hi - lo)
    while True:
        halves = left + right
        done = np.abs(halves - whole) <= share * abs(closed + halves.sum()) * (b - a)
        closed += halves[done].sum()
        n_closed += int(done.sum())
        if done.all():
            return float(closed)
        op = ~done
        a, b, whole = np.r_[a[op], m[op]], np.r_[m[op], b[op]], np.r_[left[op], right[op]]
        if n_closed + a.size > _MAX_PANELS:
            raise ValueError(f"quadrature did not converge within {_MAX_PANELS} panels")
        m = 0.5 * a + 0.5 * b
        left, right = np.split(_panel_sums(f, np.r_[a, m], np.r_[m, b]), 2)


def find_peak(f, lo: float, hi: float):
    """Locate the maximum of f on [lo, hi]: coarse grid plus local refinement.

    Brent's bounded search refines the maximum of a _PEAK_GRID-point grid
    between its neighbours, on scalar calls of f.
    """
    xs = np.linspace(lo, hi, _PEAK_GRID)
    ys = np.asarray(f(xs), dtype=float)
    i = int(np.argmax(ys))
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, _PEAK_GRID - 1)])
    return _refine(lambda x: float(f(x)), a, b)


def _refine(f, a: float, b: float):
    """(x0, f(x0)) at the maximum of f on [a, b], by Brent's bounded search
    to 1e-12 of the bracket's scale."""
    x0 = _brent_minimize(lambda x: -f(x), a, b, xatol=1e-12 * max(abs(a), abs(b), 1.0))
    return x0, f(x0)


def fwhm(f, lo: float, hi: float, peak) -> float:
    """Full width at half maximum of a single-peaked f on [lo, hi] about its
    peak = (x0, h), as find_peak or component_peak finds it.

    Half-crossings are bracketed by outward march from the peak, which tests
    the window's edge once it steps past it, and polished by Brent's root
    search to 1e-9 of the window.  Raises ValueError if a crossing is not
    found inside the window.
    """
    x0, h = peak
    half = 0.5 * h
    span = hi - lo

    def crossing(direction, edge):
        step = span / 400.0
        a = x0
        b = x0 + direction * step
        while True:
            if not lo <= b <= hi:
                b = edge
            if float(f(b)) < half:
                return _brent_root(lambda x: float(f(x)) - half, min(a, b), max(a, b),
                                   xtol=1e-9 * span)
            if b == edge:
                raise ValueError("half-maximum crossing not inside the window")
            a = b
            step *= 1.6
            b = x0 + direction * (abs(a - x0) + step)

    return crossing(+1.0, hi) - crossing(-1.0, lo)


def integrated_intensity(spectrum, window, peak, halfwidth: float) -> float:
    """Area of the resolved line at peak = (x0, h) under `spectrum` over
    window = (lo, hi).

    The window must isolate the line: h > 0 and both edge values at most
    h/4, otherwise the caller is directed to integrate the full spectrum.
    quad at relative 1e-10, split at x0, x0 +- halfwidth and
    x0 +- 4*halfwidth, which place panel edges at the line's shoulders.
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("window must satisfy hi > lo")
    x0, h = peak
    q = 0.25 * h
    if not (h > 0 and float(spectrum(lo)) <= q and float(spectrum(hi)) <= q):
        raise ValueError(
            "window does not isolate a resolved component; "
            "integrate the full spectrum instead"
        )
    return quad(spectrum, lo, hi, points=(x0 - 4.0 * halfwidth, x0 - halfwidth, x0,
                                          x0 + halfwidth, x0 + 4.0 * halfwidth))


def voigt_fwhm(natural_halfwidth: float, doppler_scale: float) -> float:
    """Full width at half maximum of voigt_density(a, x, s) over x.

    Twice the root of V(x) - V(0)/2 by Brent's method on the bracket
    max(a, s*sqrt(ln 2)) <= x <= a + s*sqrt(ln 2), which holds for every
    Voigt (Olivero & Longbothum, JQSRT 17 (1977) 233), widened by
    _BRACKET_MARGIN against rounding.  s = 0, a Lorentzian, gives 2a.
    Raises OverflowError where the width leaves the float range.
    """
    a, s = float(natural_halfwidth), float(doppler_scale)
    half = 0.5 * voigt_density(a, 0.0, s)  # validates a and s
    g = s * _SQRT_LN2
    lo, hi = max(a, g) * (1.0 - _BRACKET_MARGIN), (a + g) * (1.0 + _BRACKET_MARGIN)
    if s == 0.0:
        width = 2.0 * a
    elif math.isinf(hi):  # then 2*max(a, g) <= width is within 2e-9 of the float range's top
        width = math.inf
    else:
        width = 2.0 * _brent_root(lambda x: voigt_density(a, x, s) - half, lo, hi, xtol=0.0)
    if math.isinf(width):
        raise OverflowError(f"the FWHM of the Voigt of half-width {a!r} and Doppler "
                            f"scale {s!r} leaves the float range")
    return width


def component_peak(components, own, lo: float, hi: float):
    """Peak of the line of `own` in density_sum(components) on [lo, hi], from
    the predicted components, where they show that it is the window's
    maximum; None where they do not.

    Returns (x0, h, r).  Brent's bounded search looks for the peak within r
    of own's center, clipped to the window, where r = a + s*sqrt(ln 2)
    bounds the half width of own's Voigt.  Every Voigt falls off from its
    center, so on each side of that bracket the sum is at most the sum of
    each component's value (weight taken as >= 0) at the point of the side
    nearest its center; both bounds must be below the peak, which also puts
    the peak inside its bracket.
    """
    def f(x):
        return density_sum(components, x)

    c = own.center
    r = own.natural_halfwidth + _SQRT_LN2 * own.doppler_scale
    left, right = max(lo, c - r), min(hi, c + r)
    x0, h = _refine(f, left, right)

    def bound(start, end):  # on [start, end], each component at its nearest point
        return reduce(add, [max(c.weight, 0.0) * voigt_density(
            c.natural_halfwidth, min(max(c.center, start), end) - c.center, c.doppler_scale)
            for c in components])

    return (x0, h, r) if bound(lo, left) < h and bound(right, hi) < h else None
