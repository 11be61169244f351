"""Probe emission spectrum of an atom at rest.

w(Omega_mu) is the total probability density, per unit probe detuning, that
the probe photon is emitted on the m-l transition while the m-n pair is
driven.  It is built as 2*gamma_l * integral |a_l(t)|^2 dt with a_l taken to
first order in the probe coupling, which closes through the stationary
Gramian of the driven m-n pair: no exponents, hence no confluent case.

Everything here is for a single velocity class; Doppler averaging lives in
the doppler module, brute-force validation in the oracle module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DriveField, LevelScheme, RegimeError


@dataclass(frozen=True)
class WeakFieldBreakdown:
    """Term-by-term decomposition of the weak-drive spectrum.

    stepwise: complex contribution of the cascade line centered at
        Omega_mu = 0 (half-width gamma_l + gamma_m), interference included.
    raman: complex contribution of the correlated two-photon line centered
        at Omega_mu = Omega (half-width gamma_l + gamma_n), interference
        included.
    stepwise_interference, raman_interference: the interference parts
        contained in the two terms; subtracting them leaves the
        no-interference doublet.
    coupling_ratio: G / |Omega - i*(gamma_n - gamma_m)|, the small parameter
        of the expansion.  The density is Re(stepwise + raman).
    """

    stepwise: complex
    raman: complex
    stepwise_interference: complex
    raman_interference: complex
    coupling_ratio: float


def weak_field_ratio(scheme: LevelScheme, drive: DriveField) -> float:
    """Expansion parameter G/|Omega - i*(gamma_n - gamma_m)| of the weak-drive form."""
    denom = abs(complex(drive.Omega, -scheme.gamma_diff))
    if denom == 0.0:
        return math.inf
    return drive.G / denom


def w_mu_exact(scheme, drive, probe, Omega_mu):
    """Exact emission density at probe detuning Omega_mu (scalar or array).

    Valid for any drive strength, the confluent point of the dressed
    exponents included.  With A the generator of (a_m, a_n), a_n(0) = 1,
    and P the stationary Gramian, A P + P A^H = -e_n e_n^H,

        w = -2 |G_mu|^2 Re[((A + (-gamma_l + i*Omega_mu) I)^-1 P)_mm],

    solved in closed form and evaluated in real arithmetic.  The 2x2
    determinant has its roots at real part -gamma_l - Re(alpha_j) < 0, so it
    never vanishes for a real Omega_mu and no case is special.  A float
    Omega_mu (np.float64 included) runs the same expression in Python floats
    and returns a Python float, bit-identical to the array path, since every
    step is one correctly rounded float64 operation on either path.
    """
    gm, gn, gl = scheme.gamma_m, scheme.gamma_n, scheme.gamma_l
    G2 = drive.G * drive.G
    Om = drive.Omega
    Gamma = gm + gn
    s2 = Gamma * Gamma + Om * Om
    K = G2 * Gamma / s2
    D = 2.0 * (Gamma * K + gm * gn)
    p = K / D                  # P_mm, the integral of |a_m|^2
    c = G2 * gm / (D * s2)     # i*G*P_nm = c*(Gamma - i*Omega)
    r1 = -gm - gl
    r2 = -gn - gl
    nr = p * r2 - c * Gamma
    if isinstance(Omega_mu, float):
        x = float(Omega_mu)
    else:
        x = np.asarray(Omega_mu, dtype=float)
    y = x - Om
    # det = (r1 + i*x)(r2 + i*y) + G^2 = dr + i*di;
    # numerator (r2 + i*y)*p - c*(Gamma - i*Omega) = nr + i*ni.
    dr = r1 * r2 - x * y + G2
    di = r1 * y + r2 * x
    ni = p * y + c * Om
    w = -2.0 * abs(probe.G_mu) ** 2 * (nr * dr + ni * di) / (dr * dr + di * di)
    return w if isinstance(w, np.ndarray) else float(w)


def w_mu_weak(scheme, drive, probe, Omega_mu):
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
    step_intf = pref * (-2.0 / (Gamma + 1j * Om)) / d_step
    raman_intf = pref * (-2.0 / (Gamma - 1j * Om)) / d_raman
    stepwise = pref / gm / d_step + step_intf
    raman = pref / gn / d_raman + raman_intf

    w = (stepwise + raman).real
    breakdown = WeakFieldBreakdown(
        stepwise=stepwise if stepwise.shape else complex(stepwise),
        raman=raman if raman.shape else complex(raman),
        stepwise_interference=step_intf if step_intf.shape else complex(step_intf),
        raman_interference=raman_intf if raman_intf.shape else complex(raman_intf),
        coupling_ratio=weak_field_ratio(scheme, drive),
    )
    return (w if w.shape else float(w)), breakdown
