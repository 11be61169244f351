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
from scipy.integrate import quad
from scipy.special import wofz

from .dressed import dressed_exponents, memory_factors
from .model import (
    DriveField,
    LevelScheme,
    ProbeField,
    ProcessKind,
    RegimeError,
    ThermalEnsemble,
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
    if isinstance(detuning, float):
        # Scalar path in Python floats, rounded exactly as the array path
        # below: numpy divides a complex by a real through the reciprocal.
        x = float(detuning)
        s = doppler_scale
        if s == 0.0:
            return a / (a * a + x * x)
        inv = 1.0 / s
        return float((_SQRT_PI / s) * wofz(complex(0.0 - x * inv, a * inv)).real)
    x = np.asarray(detuning, dtype=float)
    if doppler_scale == 0.0:
        out = a / (a * a + x * x)
    else:
        p = (a + 1j * x) / doppler_scale
        out = (_SQRT_PI / doppler_scale) * np.real(wofz(1j * p))
    return out if out.shape else float(out)


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


def _signed_geometry(kind, drive, probe):
    s, s_mu = kind.signs
    Om_s = s * drive.Omega
    theta_eff = probe.theta if s * s_mu == 1 else math.pi - probe.theta
    return s, s_mu, Om_s, theta_eff


def weak_doublet_components(
    scheme: LevelScheme,
    drive: DriveField,
    probe: ProbeField,
    ensemble: ThermalEnsemble,
    kind: ProcessKind = ProcessKind.RAMAN_UPPER_INTERMEDIATE,
):
    """The stepwise and Raman components of the weak-drive averaged doublet."""
    s, s_mu, Om_s, theta_eff = _signed_geometry(kind, drive, probe)
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
    s, s_mu, Om_s, theta_eff = _signed_geometry(kind, drive, probe)
    signed_drive = DriveField(G=drive.G, Omega=Om_s, k=drive.k)
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


def triplet_regime_ratios(scheme, drive, ensemble) -> dict:
    """How deeply the strong-drive triplet limit is satisfied (larger is better)."""
    Gamma = scheme.gamma_sum
    kv = drive.k * ensemble.vbar
    tiny = 1e-300
    return {
        "G_over_Omega": drive.G / max(abs(drive.Omega), tiny),
        "G_over_Gamma": drive.G / Gamma,
        "G_over_doppler": drive.G / max(kv, tiny),
    }


def find_peak(f, lo: float, hi: float, n: int = 2001):
    """Locate the maximum of f on [lo, hi]: coarse grid plus local refinement."""
    from scipy.optimize import minimize_scalar

    xs = np.linspace(lo, hi, n)
    ys = np.asarray(f(xs), dtype=float)
    i = int(np.argmax(ys))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, n - 1)]
    if a == b:
        return float(xs[i]), float(ys[i])
    res = minimize_scalar(lambda x: -float(f(x)), bounds=(a, b), method="bounded",
                          options={"xatol": 1e-12 * max(abs(a), abs(b), 1.0)})
    x0 = float(res.x)
    return x0, float(f(x0))


def fwhm(f, lo: float, hi: float):
    """Full width at half maximum of a single-peaked f on [lo, hi].

    Returns (width, x_peak, peak_height).  Half-crossings are bracketed by
    outward march from the peak and polished by bisection to relative 1e-6.
    Raises if a crossing does not lie inside the window.
    """
    from scipy.optimize import brentq

    x0, h = find_peak(f, lo, hi)
    half = 0.5 * h
    span = hi - lo

    def crossing(direction):
        step = span / 400.0
        a = x0
        b = x0 + direction * step
        while lo <= b <= hi:
            if float(f(b)) < half:
                return brentq(lambda x: float(f(x)) - half, min(a, b), max(a, b),
                              xtol=1e-9 * span)
            a = b
            step *= 1.6
            b = x0 + direction * (abs(a - x0) + step)
        raise ValueError("half-maximum crossing not inside the window")

    xr = crossing(+1.0)
    xl = crossing(-1.0)
    return xr - xl, x0, h


def integrated_intensity(spectrum, window):
    """Area of one resolved component under `spectrum` over window = (lo, hi).

    Adaptive quadrature at relative 1e-8.  The window must isolate the
    component: the spectrum at both edges has to be below a quarter of the
    in-window peak, otherwise the component is judged unresolved and the
    caller is directed to integrate the full spectrum.
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("window must satisfy hi > lo")
    x0, h = find_peak(spectrum, lo, hi, n=801)
    edge = max(float(spectrum(lo)), float(spectrum(hi)))
    if h <= 0 or edge > 0.25 * h:
        raise ValueError(
            "window does not isolate a resolved component; "
            "integrate the full spectrum instead"
        )
    val, _ = quad(lambda x: float(spectrum(x)), lo, hi,
                  epsrel=1e-8, epsabs=0.0, limit=200, points=[x0])
    return val
