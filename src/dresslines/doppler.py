"""Velocity-averaged line shapes and their direction-dependent widths.

Every averaged component here is a Voigt-type profile: a Lorentzian of some
natural half-width convolved with a Gaussian whose scale is an effective
wave vector times the thermal speed.  The effective wave vector

    q(M, theta) = |k_mu - M*k|  (vector sense)
                = sqrt((k_mu - M*k)**2 + 4*M*k*k_mu*sin(theta/2)**2)

interpolates between a stepwise line (M = 0, full probe Doppler width
k_mu*vbar) and a fully correlated two-photon line (M = 1, width |k_mu - k|
vbar, vanishing for forward observation at k_mu = k).

All profiles are expressed through the scaled complementary error function
of complex argument, erfcx(z) = exp(z**2)*erfc(z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import wofz

from .dressed import dressed_exponents, memory_factors
from .model import (
    DriveField,
    LevelScheme,
    ProbeField,
    ProcessKind,
    RegimeError,
    ThermalEnsemble,
    apply_process_signs,
)

_SQRT_PI = math.sqrt(math.pi)


def erfcx_complex(z):
    """Scaled complementary error function exp(z^2)*erfc(z) for Re(z) >= 0.

    Evaluated through the Faddeeva function, erfcx(z) = w(i*z), which is
    numerically stable in the closed right half plane.  Arguments with
    Re(z) < 0 are rejected: the line-shape formulas never produce them and
    the reflection formula would reintroduce the exp(z^2) growth.
    Scalar in, scalar out; arrays pass through elementwise.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.real < 0):
        raise ValueError("erfcx_complex requires Re(z) >= 0")
    out = wofz(1j * z)
    return out if out.shape else complex(out)


def effective_q(k: float, k_mu: float, theta: float, M: float) -> float:
    """Effective wave vector controlling one component's Doppler width."""
    if k < 0 or k_mu < 0:
        raise ValueError("k and k_mu must be >= 0")
    if not 0.0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi]")
    if not 0.0 <= M <= 1.0:
        raise ValueError("M must lie in [0, 1]")
    return math.sqrt((k_mu - M * k) ** 2 + 4.0 * M * k * k_mu * math.sin(theta / 2.0) ** 2)


def voigt_density(natural_halfwidth: float, detuning, doppler_scale: float):
    """Lorentzian of half-width a convolved with a Gaussian of 1/e half-width s.

    Normalized so the area over detuning is pi, matching the bare Lorentzian
    a/(a**2 + x**2).  doppler_scale = 0 returns that Lorentzian exactly.
    Vectorized over detuning; a float detuning (np.float64 included) returns
    a Python float, bit-identical to the array path at any finite detuning.
    """
    a = float(natural_halfwidth)
    if a <= 0:
        raise ValueError("natural_halfwidth must be > 0")
    # one expression for a Python float and an array, so both round alike
    x = float(detuning) if isinstance(detuning, float) else np.asarray(detuning, dtype=float)
    s = doppler_scale
    if s == 0.0:
        out = a / (a * a + x * x)
    else:
        inv = 1.0 / s
        out = (_SQRT_PI / s) * wofz(-x * inv + 1j * (a * inv)).real
    return out if isinstance(out, np.ndarray) else float(out)


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
        if isinstance(Omega_mu, float):
            x = float(Omega_mu) - self.center
        else:
            x = np.asarray(Omega_mu, dtype=float) - self.center
        return self.weight * voigt_density(self.natural_halfwidth, x, self.doppler_scale)


def density_sum(components, Omega_mu):
    """Sum of the components' densities at Omega_mu, added left to right."""
    out = components[0].density(Omega_mu)
    for c in components[1:]:
        out = out + c.density(Omega_mu)
    return out


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
    q_step = effective_q(drive.k, probe.k_mu, theta_eff, 0.0)
    q_raman = effective_q(drive.k, probe.k_mu, theta_eff, 1.0)
    return [
        DopplerComponent(
            label="stepwise",
            center=0.0,
            natural_halfwidth=gl + gm,
            doppler_scale=q_step * ensemble.vbar,
            weight=pref / gm,
            memory=0.0,
        ),
        DopplerComponent(
            label="raman",
            center=s_mu * Om_s,
            natural_halfwidth=gl + gn,
            doppler_scale=q_raman * ensemble.vbar,
            weight=pref / gn,
            memory=1.0,
        ),
    ]


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
    level in its domain.
    """
    comps = weak_doublet_components(scheme, drive, probe, ensemble, kind)
    x = np.asarray(Omega_mu, dtype=float)
    out = np.zeros_like(x)
    for c in comps:
        if c.doppler_scale == 0.0:
            raise RegimeError("Gaussian form undefined for a zero Doppler scale")
        u = (x - c.center) / c.doppler_scale
        out = out + c.weight * (_SQRT_PI / c.doppler_scale) * np.exp(-(u * u))
    return out if out.shape else float(out)


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
    weak-drive limit this reduces exactly to the stepwise/Raman pair.
    """
    signed_drive, s_mu, theta_eff = apply_process_signs(kind, drive, probe.theta)
    pair = dressed_exponents(scheme, signed_drive)
    if pair.is_degenerate:
        raise RegimeError(
            "dressed exponents collapse; averaged doublet form not applicable"
        )
    M1, M2 = memory_factors(signed_drive)
    pref = 2.0 * abs(drive.G * probe.G_mu) ** 2 / abs(pair.splitting) ** 2
    comps = []
    for j, (alpha, M) in enumerate(((pair.alpha1, M1), (pair.alpha2, M2)), start=1):
        qj = effective_q(drive.k, probe.k_mu, theta_eff, M)
        comps.append(
            DopplerComponent(
                label=f"dressed{j}",
                center=s_mu * alpha.imag,
                natural_halfwidth=scheme.gamma_l + alpha.real,
                doppler_scale=qj * ensemble.vbar,
                weight=pref / (2.0 * alpha.real),
                memory=M,
            )
        )
    return comps


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
    Gamma = scheme.gamma_sum
    scale = effective_q(drive.k, probe.k_mu, probe.theta, 1.0) * ensemble.vbar
    comps = []
    for mult, shift, label in (
        (1.0, -2.0 * drive.G, "side_low"),
        (2.0, 0.0, "center"),
        (1.0, +2.0 * drive.G, "side_high"),
    ):
        comps.append(
            DopplerComponent(
                label=label,
                center=drive.Omega + shift,
                natural_halfwidth=Gamma,
                doppler_scale=scale,
                weight=mult / (4.0 * math.pi),
                memory=1.0,
            )
        )
    return comps


def fluorescence_triplet(scheme, drive, probe, ensemble, Omega_mu):
    """Velocity-averaged fluorescence triplet on the driven transition.

    Valid in the strong-drive limit G >> |Omega|, Gamma, k*vbar (regime
    reported by triplet_regime_ratios, not enforced).  Normalized to unit
    total area in Omega_mu.  Scalar or array Omega_mu.
    """
    return density_sum(triplet_components(scheme, drive, probe, ensemble), Omega_mu)


def regime_ratio(numerator: float, scale: float) -> float:
    """numerator/scale for a regime diagnostic; math.inf when scale is zero.

    The one zero-scale rule for every ratio over a Doppler scale or a rate:
    a vanishing scale satisfies any "much larger than" limit without bound.
    """
    return numerator / scale if scale != 0.0 else math.inf


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
_RTOL = 4.0 * np.finfo(float).eps


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
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
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


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
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


def _panel_sums(f, a, b):
    """16-point Gauss-Legendre sums of f over the panels [a_i, b_i], from one
    array call of f."""
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    return (y * _GL_WEIGHTS).sum(axis=1) * half


def quad(f, lo: float, hi: float, points=()) -> float:
    """Integral of f over [lo, hi] on adaptive 16-point Gauss-Legendre panels.

    The panels start split at the points inside (lo, hi).  Each level makes
    one array call of f, on the nodes of both halves of every open panel.  A
    panel is closed with its halves' sum once halving moves its sum by at
    most its share of _EPSREL: _EPSREL times the integral's current estimate
    times the panel's fraction of hi - lo.  Every other panel is halved.
    Raises ValueError once the partition exceeds _MAX_PANELS panels.
    """
    edges = np.unique([lo, hi, *(p for p in points if lo < p < hi)])
    a, b = edges[:-1], edges[1:]
    m = 0.5 * (a + b)
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
        m = 0.5 * (a + b)
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
    if a == b:
        return a, float(ys[i])
    x0 = _brent_minimize(lambda x: -float(f(x)), a, b,
                         xatol=1e-12 * max(abs(a), abs(b), 1.0))
    return x0, float(f(x0))


class NoHalfMaximum(ValueError):
    """fwhm found no half-maximum crossing; x_peak and height are the peak
    it measured first, so that a caller need not search for it again."""

    def __init__(self, message, x_peak, height):
        super().__init__(message)
        self.x_peak, self.height = x_peak, height


def fwhm(f, lo: float, hi: float):
    """Full width at half maximum of a single-peaked f on [lo, hi].

    Returns (width, x_peak, peak_height).  Half-crossings are bracketed by
    outward march from the peak and polished by Brent's root search to
    1e-9 of the window.  Raises NoHalfMaximum, carrying the peak, if a
    crossing is not found inside the window.
    """
    x0, h = find_peak(f, lo, hi)
    half = 0.5 * h
    span = hi - lo

    def crossing(direction):
        step = span / 400.0
        a = x0
        b = x0 + direction * step
        while lo <= b <= hi:
            if float(f(b)) < half:
                return _brent_root(lambda x: float(f(x)) - half, min(a, b), max(a, b),
                                   xtol=1e-9 * span)
            a = b
            step *= 1.6
            b = x0 + direction * (abs(a - x0) + step)
        raise ValueError("half-maximum crossing not inside the window")

    try:
        xr = crossing(+1.0)
        xl = crossing(-1.0)
    except ValueError as e:
        raise NoHalfMaximum(str(e), x0, h) from e
    return xr - xl, x0, h


def integrated_intensity(spectrum, window):
    """Area of one resolved component under `spectrum` over window = (lo, hi).

    quad at relative 1e-10, split at the maximum of an 801-point grid.  The
    window must isolate the component: the grid's edge values have to be
    below a quarter of that maximum, otherwise the caller is directed to
    integrate the full spectrum.
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("window must satisfy hi > lo")
    xs = np.linspace(lo, hi, 801)
    ys = np.asarray(spectrum(xs), dtype=float)
    i = int(np.argmax(ys))
    if ys[i] <= 0 or max(ys[0], ys[-1]) > 0.25 * ys[i]:
        raise ValueError(
            "window does not isolate a resolved component; "
            "integrate the full spectrum instead"
        )
    return quad(spectrum, lo, hi, points=(float(xs[i]),))
