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
    erfcx_complex,
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
from .model import (
    DriveField,
    LevelScheme,
    ProbeField,
    ProcessKind,
    RegimeError,
    ThermalEnsemble,
    apply_process_signs,
)
from .oracle import (
    CLOSED_FORM_IDS,
    CertifyReport,
    ConvergenceError,
    certify,
    strong_pointwise,
    triplet_pointwise,
    velocity_average,
    w_mu_time_domain_grid,
    weak_pointwise,
)
from .stationary import (
    WeakFieldBreakdown,
    w_mu_exact,
    w_mu_weak,
    weak_field_ratio,
)

__version__ = "0.1.0"

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
    "erfcx_complex",
    "find_peak",
    "fluorescence_triplet",
    "fwhm",
    "integrated_intensity",
    "memory_factors",
    "strong_doublet_components",
    "strong_pointwise",
    "triplet_components",
    "triplet_pointwise",
    "triplet_regime_ratios",
    "velocity_average",
    "voigt_density",
    "w_mu_exact",
    "w_mu_time_domain_grid",
    "w_mu_weak",
    "weak_doublet_components",
    "weak_doublet_gaussian",
    "weak_pointwise",
    "weak_field_ratio",
]
