"""Dressed-pair decay exponents and memory factors of the driven m-n pair.

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

from .model import DriveField, LevelScheme, RegimeError


@dataclass(frozen=True)
class DressedPair:
    """Exponents of the driven pair.

    alpha1, alpha2: complex decay exponents, labeled as described above.
    Gamma: total damping gamma_m + gamma_n.
    """

    alpha1: complex
    alpha2: complex
    Gamma: float

    @property
    def splitting(self) -> complex:
        return self.alpha1 - self.alpha2

    @property
    def is_degenerate(self) -> bool:
        """Confluent point: the exponents coincide to 1e-8 of the pair's scale.

        The one rule for the doublet decompositions, which raise RegimeError
        here.
        """
        scale = self.Gamma + abs(self.alpha1.imag) + abs(self.alpha2.imag)
        return abs(self.splitting) < 1e-8 * max(scale, 1e-300)


def dressed_exponents(scheme: LevelScheme, drive: DriveField) -> DressedPair:
    """Exponents of the driven m-n pair.

    Uses the half-sum/half-difference form

        alpha_{1,2} = (Gamma + i*Omega)/2 -+ i*S,
        S = sqrt(G**2 + ((Omega - i*gamma_diff)/2)**2)

    with the principal branch of the square root, then swaps to enforce the
    labeling convention.  Raises RegimeError where a pair is not finite.
    """
    G = drive.G
    Omega = drive.Omega
    Gamma = scheme.gamma_sum
    gd = scheme.gamma_diff

    half = 0.5 * (Gamma + 1j * Omega)
    S = cmath.sqrt(G * G + (0.5 * (Omega - 1j * gd)) ** 2)
    a = half - 1j * S
    b = half + 1j * S
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        raise RegimeError("dressed exponents are not finite: the rates leave the float range")

    if (a.imag, -a.real) < (b.imag, -b.real):
        a, b = b, a

    return DressedPair(alpha1=a, alpha2=b, Gamma=Gamma)


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


def doublet_resolved(pair: DressedPair, gamma_l: float) -> bool:
    """True when the two emission components stand apart.

    Splitting of the centers must exceed the sum of their half-widths:
    |Im alpha_1 - Im alpha_2| > Re alpha_1 + Re alpha_2 + 2*gamma_l.
    """
    sep = abs(pair.alpha1.imag - pair.alpha2.imag)
    widths = pair.alpha1.real + pair.alpha2.real + 2.0 * gamma_l
    return sep > widths
