"""Emission line shapes of a resonantly driven three-level gas.

A strong resonant field couples the upper level m to level n; a weak probe
watches the m-l transition.  The package computes the dressed decay
exponents of the driven pair, the exact probe emission spectrum of an atom
at rest, and Maxwellian velocity averages whose Doppler widths depend on
the observation direction, together with brute-force oracles (time-domain
integration and trapezoidal velocity quadrature with a step set by the
nearest line-shape pole) that certify every closed form.
"""

from .dressed import (
    DressedPair,
    doublet_resolved,
    dressed_exponents,
    memory_factors,
)
from .doppler import (
    DopplerComponent,
    doppler_strong_doublet,
    doppler_weak_doublet,
    effective_q,
    find_peak,
    fluorescence_triplet,
    fwhm,
    integrated_intensity,
    strong_doublet_components,
    triplet_components,
    triplet_regime_ratios,
    voigt_density,
    weak_doublet_components,
    weak_doublet_gaussian,
)
from .faddeeva import wofz
from .model import (
    ConvergenceError,
    DriveField,
    LevelScheme,
    ProbeField,
    ProcessKind,
    RegimeError,
    ThermalEnsemble,
    apply_process_signs,
)
from .stationary import (
    WeakFieldBreakdown,
    w_mu_exact,
    w_mu_weak,
    weak_field_ratio,
)

__version__ = "0.1.0"

# The oracle's names load it on first use: no job but certify runs it.
_ORACLE_NAMES = frozenset({"CLOSED_FORM_IDS", "CertifyReport", "certify",
                           "velocity_average", "w_mu_time_domain_grid"})


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CLOSED_FORM_IDS",
    "CertifyReport",
    "ConvergenceError",
    "DopplerComponent",
    "DressedPair",
    "DriveField",
    "LevelScheme",
    "ProbeField",
    "ProcessKind",
    "RegimeError",
    "ThermalEnsemble",
    "WeakFieldBreakdown",
    "apply_process_signs",
    "certify",
    "doppler_strong_doublet",
    "doppler_weak_doublet",
    "doublet_resolved",
    "dressed_exponents",
    "effective_q",
    "find_peak",
    "fluorescence_triplet",
    "fwhm",
    "integrated_intensity",
    "memory_factors",
    "strong_doublet_components",
    "triplet_components",
    "triplet_regime_ratios",
    "velocity_average",
    "voigt_density",
    "w_mu_exact",
    "w_mu_time_domain_grid",
    "w_mu_weak",
    "weak_doublet_components",
    "weak_doublet_gaussian",
    "weak_field_ratio",
    "wofz",
]
