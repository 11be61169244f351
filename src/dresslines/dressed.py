"""Dressed-pair decay exponents and transient amplitudes of the driven m-n pair.

The strongly driven two-level subsystem (upper m, lower n, coupling G,
detuning Omega) relaxes through two complex exponents alpha_1, alpha_2.
They are the roots of

    alpha**2 - (Gamma + i*Omega)*alpha + gamma_m*(gamma_n + i*Omega) + G**2 = 0

with Gamma = gamma_m + gamma_n.  Real parts are decay rates of the two
dressed components, imaginary parts their frequency displacements in the
frame rotating with the drive.

Labeling convention: alpha_1 is the root with the larger imaginary part;
if the imaginary parts coincide (possible only on the Omega = 0 line where
the square root turns imaginary), alpha_1 is the root with the smaller real
part.  This reduces to {alpha_1, alpha_2} -> {gamma_m, gamma_n + i*Omega}
as G -> 0 for Omega >= 0, matching the usual weak-field identification.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import DriveField, LevelScheme, RegimeError


@dataclass(frozen=True)
class DressedPair:
    """Exponents, amplitude weights and memory factors of the driven pair.

    alpha1, alpha2: complex decay exponents, labeled as described above.
    M1, M2: memory factors, the fraction of the drive wave vector imprinted
        on each dressed component (NaN when undefined, i.e. G = Omega = 0).
    Gamma: total damping gamma_m + gamma_n.
    gamma_diff: damping asymmetry gamma_n - gamma_m.
    """

    alpha1: complex
    alpha2: complex
    M1: float
    M2: float
    Gamma: float
    gamma_diff: float

    @property
    def splitting(self) -> complex:
        return self.alpha1 - self.alpha2

    @property
    def is_degenerate(self) -> bool:
        """Confluent point: the exponents coincide to 1e-8 of the pair's scale.

        The one rule for the exponential weights (NaN here), the doublet
        decompositions (RegimeError) and amplitude_m/n (the t*exp form).
        """
        scale = self.Gamma + abs(self.alpha1.imag) + abs(self.alpha2.imag)
        return abs(self.splitting) < 1e-8 * max(scale, 1e-300)

    @property
    def A1(self) -> complex:
        """Weight (alpha_1 - gamma_m)/(alpha_1 - alpha_2) of exp(-alpha_1 t) in a_n."""
        if self.is_degenerate:
            return complex(math.nan, math.nan)
        return (self.alpha1 - self.gamma_m) / self.splitting

    @property
    def A2(self) -> complex:
        """Weight (gamma_m - alpha_2)/(alpha_1 - alpha_2) of exp(-alpha_2 t); A1 + A2 = 1."""
        if self.is_degenerate:
            return complex(math.nan, math.nan)
        return (self.gamma_m - self.alpha2) / self.splitting

    @property
    def gamma_m(self) -> float:
        return 0.5 * (self.Gamma - self.gamma_diff)


def dressed_exponents(scheme: LevelScheme, drive: DriveField) -> DressedPair:
    """Exponents and weights of the driven m-n pair.

    Uses the half-sum/half-difference form

        alpha_{1,2} = (Gamma + i*Omega)/2 -+ i*S,
        S = sqrt(G**2 + ((Omega - i*gamma_diff)/2)**2)

    with the principal branch of the square root, then swaps to enforce the
    labeling convention.  The weights A1, A2 follow from the exponents as
    properties of the pair.
    """
    G = drive.G
    Omega = drive.Omega
    Gamma = scheme.gamma_sum
    gd = scheme.gamma_diff

    half = 0.5 * (Gamma + 1j * Omega)
    S = cmath.sqrt(G * G + (0.5 * (Omega - 1j * gd)) ** 2)
    a = half - 1j * S
    b = half + 1j * S

    if (a.imag, -a.real) < (b.imag, -b.real):
        a, b = b, a

    try:
        M1, M2 = memory_factors(drive)
    except RegimeError:
        M1 = math.nan
        M2 = math.nan

    return DressedPair(alpha1=a, alpha2=b, M1=M1, M2=M2, Gamma=Gamma, gamma_diff=gd)


def memory_factors(drive: DriveField) -> tuple[float, float]:
    """Fraction of the drive wave vector carried by each dressed component.

    M_{1,2} = (1 +- Omega / sqrt(Omega**2 + 4*G**2)) / 2, the + sign going
    with component 1.  M1 + M2 = 1.  Undefined at G = Omega = 0.
    """
    G = drive.G
    Omega = drive.Omega
    r = math.hypot(Omega, 2.0 * G)
    if r == 0.0:
        raise RegimeError("memory factors undefined at G = 0, Omega = 0")
    M1 = 0.5 * (1.0 + Omega / r)
    M2 = 0.5 * (1.0 - Omega / r)
    return M1, M2


def amplitude_m(pair: DressedPair, G: float, t):
    """Upper-state amplitude a_m(t) for the start condition a_n(0) = 1.

    a_m(t) = i*G * (exp(-alpha_2 t) - exp(-alpha_1 t)) / (alpha_1 - alpha_2),
    degenerating to i*G*t*exp(-alpha t) at the confluent point.  Accepts
    scalar or array t.
    """
    t = np.asarray(t, dtype=float)
    if pair.is_degenerate:
        alpha = 0.5 * (pair.alpha1 + pair.alpha2)
        out = 1j * G * t * np.exp(-alpha * t)
    else:
        split = pair.splitting
        out = 1j * G * (np.exp(-pair.alpha2 * t) - np.exp(-pair.alpha1 * t)) / split
    return out if out.shape else complex(out)


def amplitude_n(pair: DressedPair, t):
    """Lower-state amplitude a_n(t) in the drive rotating frame, a_n(0) = 1.

    a_n(t) = A_1 exp(-alpha_1 t) + A_2 exp(-alpha_2 t).  The modulus is
    frame independent.  Scalar or array t.
    """
    t = np.asarray(t, dtype=float)
    if pair.is_degenerate:
        alpha = 0.5 * (pair.alpha1 + pair.alpha2)
        out = (1.0 - (alpha - pair.gamma_m) * t) * np.exp(-alpha * t)
    else:
        out = pair.A1 * np.exp(-pair.alpha1 * t) + pair.A2 * np.exp(-pair.alpha2 * t)
    return out if out.shape else complex(out)


def doublet_resolved(pair: DressedPair, gamma_l: float) -> bool:
    """True when the two emission components stand apart.

    Splitting of the centers must exceed the sum of their half-widths:
    |Im alpha_1 - Im alpha_2| > Re alpha_1 + Re alpha_2 + 2*gamma_l.
    """
    sep = abs(pair.alpha1.imag - pair.alpha2.imag)
    widths = pair.alpha1.real + pair.alpha2.real + 2.0 * gamma_l
    return sep > widths
