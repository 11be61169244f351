"""Probe emission spectrum of an atom at rest.

w(Omega_mu) is the total probability density, per unit probe detuning, that
the probe photon is emitted on the m-l transition while the m-n pair is
driven.  It is built as 2*gamma_l * integral |a_l(t)|^2 dt with a_l taken to
first order in the probe coupling, which closes in terms of the dressed
exponents alpha_1, alpha_2.

Everything here is for a single velocity class; Doppler averaging lives in
the doppler module, brute-force validation in the oracle module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dressed import DressedPair, dressed_exponents
from .model import DriveField, LevelScheme, ProbeField, RegimeError


@dataclass(frozen=True)
class SpectrumPoint:
    """One sample of the emission spectrum: probe detuning and density."""

    Omega_mu: float
    w: float


@dataclass(frozen=True)
class WeakFieldBreakdown:
    """Term-by-term decomposition of the weak-drive spectrum.

    stepwise: complex contribution of the cascade line centered at
        Omega_mu = 0 (half-width gamma_l + gamma_m), interference part
        included when requested.
    raman: complex contribution of the correlated two-photon line centered
        at Omega_mu = Omega (half-width gamma_l + gamma_n).
    stepwise_interference, raman_interference: the interference corrections
        contained in (or dropped from) the two terms, retrievable either way.
    coupling_ratio: G / |Omega - i*(gamma_n - gamma_m)|, the small parameter
        of the expansion.  The density is Re(stepwise + raman).
    """

    stepwise: complex
    raman: complex
    stepwise_interference: complex
    raman_interference: complex
    include_interference: bool
    coupling_ratio: float


def weak_field_ratio(scheme: LevelScheme, drive: DriveField) -> float:
    """Expansion parameter G/|Omega - i*(gamma_n - gamma_m)| of the weak-drive form."""
    denom = abs(complex(drive.Omega, -scheme.gamma_diff))
    if denom == 0.0:
        return math.inf
    return drive.G / denom


def w_mu_exact(scheme, drive, probe, Omega_mu):
    """Exact emission density at probe detuning Omega_mu (scalar or array).

    Valid for any drive strength.  The two-exponential form is replaced by
    its analytic confluent limit when the dressed exponents collapse (which
    happens only at Omega = 0 with |gamma_n - gamma_m| = 2G).
    """
    pair = dressed_exponents(scheme, drive)
    return w_mu_from_pair(pair, scheme.gamma_l, drive.G, probe.G_mu, Omega_mu)


def w_mu_from_pair(pair: DressedPair, gamma_l: float, G: float, G_mu: float, Omega_mu):
    """Same as w_mu_exact but reusing an already computed dressed pair.

    A float Omega_mu (np.float64 included) returns a Python float computed
    in Python complex arithmetic, bit-identical to the array path.
    """
    if pair.is_degenerate:
        out = _w_confluent(pair, gamma_l, G, G_mu, np.asarray(Omega_mu, dtype=float))
        return out if out.shape else float(out)
    a1 = pair.alpha1
    a2 = pair.alpha2
    pref = 2.0 * abs(G * G_mu) ** 2 / abs(a1 - a2) ** 2
    c1 = 1.0 / (a1 + a1.conjugate()) - 1.0 / (a2 + a1.conjugate())
    c2 = 1.0 / (a2 + a2.conjugate()) - 1.0 / (a1 + a2.conjugate())
    b1 = gamma_l + a1.conjugate()
    b2 = gamma_l + a2.conjugate()
    if isinstance(Omega_mu, float):
        x = float(Omega_mu)
        jx = complex(0.0 * x - 0.0, 0.0 + x)  # 1j*x, signed zeros as numpy forms it
        return pref * (_cdiv(c1, b1 + jx).real + _cdiv(c2, b2 + jx).real)
    Omu = np.asarray(Omega_mu, dtype=float)
    out = pref * (c1 / (b1 + 1j * Omu) + c2 / (b2 + 1j * Omu)).real
    return out if out.shape else float(out)


def _cdiv(num: complex, den: complex) -> complex:
    """num/den rounded as numpy's complex128 division loop.

    Smith's ratio, then a multiply by the reciprocal of the scaled
    denominator.  Python's own complex division rounds differently.  The
    denominator must be nonzero.
    """
    nr, ni = num.real, num.imag
    dr, di = den.real, den.imag
    if abs(dr) >= abs(di):
        rat = di / dr
        scl = 1.0 / (dr + di * rat)
        return complex((nr + ni * rat) * scl, (ni - nr * rat) * scl)
    rat = dr / di
    scl = 1.0 / (di + dr * rat)
    return complex((nr * rat + ni) * scl, (ni * rat - nr) * scl)


def _w_confluent(pair, gamma_l, G, G_mu, Omu):
    # Both exponents collapse to alpha; the upper-state amplitude acquires a
    # t*exp(-alpha*t) factor and the frequency integral develops a double
    # pole.  Evaluated by residues of the closed contour in the upper half
    # plane; cross-validated against the time-domain oracle.
    alpha = 0.5 * (pair.alpha1 + pair.alpha2)
    bp = alpha.real
    bpp = alpha.imag - Omu
    w0 = bpp + 1j * bp
    w1 = bpp - 1j * bp
    P = (1j * gamma_l - bpp) ** 2 + bp**2
    res_a = 1.0 / (2j * gamma_l * P**2)
    denom = w0**2 + gamma_l**2
    res_0 = -(2.0 * w0 / denom + 2.0 / (w0 - w1)) / (denom * (w0 - w1) ** 2)
    I = 2j * np.pi * (res_a + res_0)
    return (gamma_l * abs(G * G_mu) ** 2 / np.pi * I).real


def w_mu_weak(scheme, drive, probe, Omega_mu, include_interference: bool = True):
    """Weak-drive spectrum, valid for G << |Omega - i*(gamma_n - gamma_m)|.

    Returns (density, WeakFieldBreakdown).  The formula is evaluated
    regardless of regime; callers judge validity through the breakdown's
    coupling_ratio.  Raises RegimeError only where the expression itself is
    singular (gamma_m = gamma_n and Omega = 0).
    """
    gm, gn, gl = scheme.gamma_m, scheme.gamma_n, scheme.gamma_l
    Om = drive.Omega
    Gamma = scheme.gamma_sum
    gd = scheme.gamma_diff

    denom2 = gd * gd + Om * Om
    if denom2 == 0.0:
        raise RegimeError(
            "weak-drive form singular at gamma_m = gamma_n, Omega = 0; "
            "use the exact spectrum"
        )

    Omu = np.asarray(Omega_mu, dtype=float)
    pref = abs(drive.G * probe.G_mu) ** 2 / denom2

    d_step = gl + gm + 1j * Omu
    d_raman = gl + gn + 1j * (Omu - Om)
    step_direct = pref / gm / d_step
    step_intf = pref * (-2.0 / (Gamma + 1j * Om)) / d_step
    raman_direct = pref / gn / d_raman
    raman_intf = pref * (-2.0 / (Gamma - 1j * Om)) / d_raman

    if include_interference:
        stepwise = step_direct + step_intf
        raman = raman_direct + raman_intf
    else:
        stepwise = step_direct
        raman = raman_direct

    w = (stepwise + raman).real
    breakdown = WeakFieldBreakdown(
        stepwise=stepwise if stepwise.shape else complex(stepwise),
        raman=raman if raman.shape else complex(raman),
        stepwise_interference=step_intf if step_intf.shape else complex(step_intf),
        raman_interference=raman_intf if raman_intf.shape else complex(raman_intf),
        include_interference=include_interference,
        coupling_ratio=weak_field_ratio(scheme, drive),
    )
    return (w if w.shape else float(w)), breakdown


def scan_spectrum(scheme, drive, probe, grid):
    """Exact spectrum sampled on a strictly increasing Omega_mu grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty Omega_mu grid")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("Omega_mu grid must be strictly increasing")
    w = np.atleast_1d(w_mu_exact(scheme, drive, probe, grid))
    return [SpectrumPoint(float(x), float(v)) for x, v in zip(grid, w)]


def predicted_peaks(pair: DressedPair) -> tuple[float, float]:
    """Resolved-regime peak positions: the exponents' imaginary parts."""
    return pair.alpha1.imag, pair.alpha2.imag
