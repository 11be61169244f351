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
from functools import partial

import numpy as np

from .faddeeva import elementwise
from .model import DriveField, LevelScheme, RegimeError, regime_ratio


@dataclass(frozen=True)
class WeakFieldBreakdown:
    """Term-by-term decomposition of the weak-drive spectrum.

    The density is the real part of two complex residues over their poles,

        Re(stepwise/(gamma_l + gamma_m + i*Omega_mu)
           + raman/(gamma_l + gamma_n + i*(Omega_mu - Omega))),

    and the fields hold those residues, not the terms on a grid.

    stepwise: residue of the cascade line centered at Omega_mu = 0
        (half-width gamma_l + gamma_m), interference included.
    raman: residue of the correlated two-photon line centered at
        Omega_mu = Omega (half-width gamma_l + gamma_n), interference
        included.
    stepwise_interference, raman_interference: the interference parts of the
        two residues; subtracting them leaves pref/gamma_m and pref/gamma_n,
        the no-interference doublet, with pref = |G*G_mu|**2/|Omega -
        i*(gamma_n - gamma_m)|**2.
    coupling_ratio: G / |Omega - i*(gamma_n - gamma_m)|, the small parameter
        of the expansion.
    """

    stepwise: complex
    raman: complex
    stepwise_interference: complex
    raman_interference: complex
    coupling_ratio: float


def weak_field_ratio(scheme: LevelScheme, drive: DriveField) -> float:
    """Expansion parameter G/|Omega - i*(gamma_n - gamma_m)| of the weak-drive form."""
    return regime_ratio(drive.G, abs(complex(drive.Omega, -scheme.gamma_diff)))


def w_mu_exact(scheme, drive, probe, Omega_mu):
    """Exact emission density at probe detuning Omega_mu (scalar or array).

    Valid for any drive strength, the confluent point of the dressed
    exponents included.  With A the generator of (a_m, a_n), a_n(0) = 1,
    and P the stationary Gramian, A P + P A^H = -e_n e_n^H,

        w = -2 |G_mu|^2 Re[((A + (-gamma_l + i*Omega_mu) I)^-1 P)_mm],

    solved in closed form and evaluated in real arithmetic.  The 2x2
    determinant has its roots at real part -gamma_l - Re(alpha_j) < 0, so it
    never vanishes for a real Omega_mu and no case is special.  Where its
    squared modulus overflows (|Omega_mu| beyond about 1e77 in the rates'
    unit), the same ratio is taken with its two factors scaled to unit size.
    A float Omega_mu (np.float64 included) runs the same expression in
    Python floats and returns a Python float, bit-identical to the array
    path, since every step is one correctly rounded float64 operation on
    either path.  An array goes through faddeeva.elementwise.
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
    k = (Om, G2, Gamma, r1, r2, p, c, p * r2 - c * Gamma, -2.0 * abs(probe.G_mu) ** 2)
    if isinstance(Omega_mu, float):
        return _exact(float(Omega_mu), k)
    return elementwise(partial(_exact, k=k), Omega_mu)


def _exact(x, k):
    """w_mu_exact at a float or a 1-D array x, from its constants k."""
    Om, G2, _, r1, r2, p, c, nr, scale = k
    # det = (r1 + i*x)(r2 + i*y) + G^2 = dr + i*di;
    # numerator (r2 + i*y)*p - c*(Gamma - i*Omega) = nr + i*ni.
    y = x - Om
    dr = r1 * r2 - x * y + G2
    di = r1 * y + r2 * x
    ni = p * y + c * Om
    den = dr * dr + di * di
    out = scale * (nr * dr + ni * di) / den
    if isinstance(x, float):
        return out if den < math.inf else _exact_far(x, k)
    big = np.isinf(den)
    if big.any():
        out[big] = _exact_far(x[big], k)
    return out


def _exact_far(x, k):
    """_exact where dr*dr + di*di overflows: the same ratio with r1 + i*x
    scaled by s1 and r2 + i*y by s2, so that no factor exceeds 1 in size,
    N/det = (s2*N)/(s1*s2*det)*s1."""
    Om, G2, Gamma, r1, r2, p, c, _, scale = k
    y = x - Om
    s1 = 1.0 / (abs(x) - r1)
    s2 = 1.0 / (abs(y) - r2)
    xs, ys, r1s, r2s = x * s1, y * s2, r1 * s1, r2 * s2
    dr = r1s * r2s - xs * ys + G2 * s1 * s2
    di = r1s * ys + r2s * xs
    num = (p * r2s - c * Gamma * s2) * dr + (p * ys + c * Om * s2) * di
    return scale * num / (dr * dr + di * di) * s1


def w_mu_weak(scheme, drive, probe, Omega_mu):
    """Weak-drive spectrum, valid for G << |Omega - i*(gamma_n - gamma_m)|.

    Returns (density, WeakFieldBreakdown).  The density is the real part of
    the breakdown's two residues over their poles, in real arithmetic:
    Re(S/(a + i*x)) = (Re S*a + Im S*x)/(a**2 + x**2).  As Im S = -Im R,
    the two imaginary parts are taken as one term, whose 1/x tails cancel
    in its numerator, not between two rounded terms, so the far wings keep
    their relative accuracy; beyond |x| = 1.3e154, where x**2 overflows,
    the density reads 0.  Omega_mu goes through faddeeva.elementwise, so a
    float returns a Python float, from a one-point block.  The
    formula is evaluated regardless of regime; callers judge validity
    through the breakdown's coupling_ratio.  Raises RegimeError only where
    the expression itself is singular (gamma_m = gamma_n and Omega = 0).
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

    pref = abs(drive.G * probe.G_mu) ** 2 / denom2
    step_intf = pref * (-2.0 / (Gamma + 1j * Om))
    raman_intf = pref * (-2.0 / (Gamma - 1j * Om))
    breakdown = WeakFieldBreakdown(
        stepwise=pref / gm + step_intf,
        raman=pref / gn + raman_intf,
        stepwise_interference=step_intf,
        raman_interference=raman_intf,
        coupling_ratio=weak_field_ratio(scheme, drive),
    )
    k = (Om, gl + gm, gl + gn, breakdown.stepwise, breakdown.raman)
    return elementwise(partial(_weak, k=k), Omega_mu), breakdown


def _weak(x, k):
    """w_mu_weak's density at a 1-D array x, from its constants k;
    Im S*(x*i1 - y*i2) = Im S*(x*a2**2 - y*a1**2 - Omega*x*y)*i1*i2."""
    Om, a1, a2, S, R = k
    y = x - Om
    i1 = 1.0 / (a1 * a1 + x * x)
    i2 = 1.0 / (a2 * a2 + y * y)
    return (S.real * a1 * i1 + R.real * a2 * i2
            + S.imag * (((x * a2 * a2 - y * a1 * a1) * i1 - Om * (x * i1) * y) * i2))
