"""Core value types and unit conventions for driven three-level line shapes.

Level labels: m is the common upper level, n the lower level of the strongly
driven transition (m-n), l the final level of the probed transition (m-l).

Unit conventions (read this before anything else):

* Every rate and frequency-like quantity (gamma_i, G, G_mu, Omega, Omega_mu,
  and the Doppler scales k*vbar, k_mu*vbar) is expressed in one shared
  angular-frequency unit.  Wave-vector magnitudes never enter the formulas
  alone, only as products with the thermal speed, so ``DriveField.k`` together
  with ``ThermalEnsemble.vbar`` is just a factorization of that Doppler scale.
  Passing the scale directly with ``vbar=1.0`` is equivalent and common in
  tests.
* The decay constants gamma_m, gamma_n, gamma_l are amplitude damping rates,
  i.e. field half-widths.  A bare emission line on the probe transition has
  Lorentzian half-width gamma_l + gamma_m, not (gamma_l + gamma_m)/2.  This is
  the classic amplitude-vs-intensity convention trap; all widths reported by
  this package follow the amplitude convention.
* Coupling phases are dropped: G and G_mu are non-negative reals.  Only |G|^2,
  |G G_mu|^2 and G^2 appear in the implemented formulas.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

# CODATA 2018 exact SI value
K_BOLTZMANN = 1.380649e-23   # J / K


class RegimeError(ValueError):
    """A formula was evaluated outside the physical regime where it is defined."""


def _require_finite(name, value):
    # a bool is an int to Python, but True is no rate or angle
    if isinstance(value, bool) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class LevelScheme:
    """Decay rates of the three levels.

    gamma_m, gamma_n, gamma_l are amplitude damping rates (half-widths),
    all strictly positive.  No absolute transition frequency is carried:
    the dynamics depends on detunings alone.
    """

    gamma_m: float
    gamma_n: float
    gamma_l: float

    def __post_init__(self):
        for name in ("gamma_m", "gamma_n", "gamma_l"):
            value = getattr(self, name)
            _require_finite(name, value)
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value!r}")

    @property
    def gamma_sum(self) -> float:
        """Total damping of the driven pair, gamma_m + gamma_n."""
        return self.gamma_m + self.gamma_n

    @property
    def gamma_diff(self) -> float:
        """Damping asymmetry gamma_n - gamma_m."""
        return self.gamma_n - self.gamma_m


@dataclass(frozen=True)
class DriveField:
    """Strong field on the m-n transition.

    G is the Rabi parameter d*E/(2*hbar), Omega the detuning from the m-n
    resonance, k the wave-vector magnitude (Doppler scale is k*vbar).
    """

    G: float
    Omega: float
    k: float = 0.0

    def __post_init__(self):
        for name in ("G", "Omega", "k"):
            _require_finite(name, getattr(self, name))
        if self.G < 0:
            raise ValueError(f"G must be >= 0, got {self.G!r}")
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k!r}")


@dataclass(frozen=True)
class ProbeField:
    """Weak probe on the m-l transition; never back-acts (first order only).

    theta is the observation angle between the drive and probe wave vectors.
    The probe detuning Omega_mu is not a field: every spectrum operation
    takes it as an argument, scalar or array.
    """

    G_mu: float
    k_mu: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        for name in ("G_mu", "k_mu", "theta"):
            _require_finite(name, getattr(self, name))
        if self.G_mu < 0:
            raise ValueError(f"G_mu must be >= 0, got {self.G_mu!r}")
        if self.k_mu < 0:
            raise ValueError(f"k_mu must be >= 0, got {self.k_mu!r}")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta!r}")


@dataclass(frozen=True)
class ThermalEnsemble:
    """Maxwellian velocity ensemble characterized by the most probable speed."""

    vbar: float

    def __post_init__(self):
        _require_finite("vbar", self.vbar)
        if self.vbar <= 0:
            raise ValueError(f"vbar must be > 0, got {self.vbar!r}")

    @classmethod
    def from_temperature(cls, temperature: float, mass: float) -> "ThermalEnsemble":
        """Ensemble of most probable speed sqrt(2*k_B*T/m)."""
        if temperature <= 0 or mass <= 0:
            raise ValueError("temperature and mass must be > 0")
        return cls(math.sqrt(2.0 * K_BOLTZMANN * temperature / mass))


class ProcessKind(enum.Enum):
    """Which two-photon process the m-l spectrum describes.

    Each kind carries sign flags (s, s_mu) applied to (Omega, Omega_mu);
    apply_process_signs is the one place that reads them.
    The reference process (upper-intermediate Raman scattering: drive photon
    absorbed, probe photon emitted) keeps both signs.  Flipping the role of a
    photon from absorbed to emitted (or vice versa) reverses the sign of its
    detuning and of its wave vector, so the correlated two-photon resonance
    moves from Omega_mu - Omega to Omega_mu + Omega combinations and the
    direction of minimal Doppler width moves from theta=0 to theta=pi.
    """

    RAMAN_UPPER_INTERMEDIATE = (1, 1)
    TWO_QUANTUM_LUMINESCENCE = (-1, 1)
    TWO_QUANTUM_ABSORPTION = (1, -1)
    RAMAN_LOWER_INTERMEDIATE = (-1, -1)

    @property
    def signs(self) -> tuple[int, int]:
        return self.value


def apply_process_signs(kind: ProcessKind, drive: DriveField, theta: float):
    """Map `kind` onto the reference process: (signed drive, s_mu, theta_eff).

    The signed drive has detuning s*Omega.  The line of `kind` at probe
    detuning Omega_mu is the reference line of the signed drive at
    s_mu*Omega_mu, so reference centers map back by a factor s_mu.  Flipping
    exactly one photon reverses one wave vector, which turns the observation
    angle theta into theta_eff = pi - theta.
    """
    s, s_mu = kind.signs
    theta_eff = theta if s * s_mu == 1 else math.pi - theta
    return replace(drive, Omega=s * drive.Omega), s_mu, theta_eff
