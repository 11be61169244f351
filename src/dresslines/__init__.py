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
    amplitude_m,
    amplitude_n,
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
    rabi_from_field,
    temperature_from_vbar,
    vbar_from_temperature,
)
from .oracle import (
    CLOSED_FORM_IDS,
    CertifyReport,
    ConvergenceError,
    OdeSettings,
    QuadratureSettings,
    certify,
    drive_trajectory,
    strong_pointwise,
    triplet_pointwise,
    velocity_average,
    w_mu_time_domain,
    w_mu_time_domain_grid,
    weak_pointwise,
)
from .stationary import (
    WeakFieldBreakdown,
    predicted_peaks,
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
    "OdeSettings",
    "ProbeField",
    "ProcessKind",
    "QuadratureSettings",
    "RegimeError",
    "ThermalEnsemble",
    "WeakFieldBreakdown",
    "amplitude_m",
    "amplitude_n",
    "apply_process_signs",
    "certify",
    "doppler_strong_doublet",
    "doppler_weak_doublet",
    "doublet_resolved",
    "dressed_exponents",
    "drive_trajectory",
    "effective_q",
    "erfcx_complex",
    "find_peak",
    "fluorescence_triplet",
    "fwhm",
    "integrated_intensity",
    "memory_factors",
    "predicted_peaks",
    "rabi_from_field",
    "strong_doublet_components",
    "strong_pointwise",
    "temperature_from_vbar",
    "triplet_components",
    "triplet_pointwise",
    "triplet_regime_ratios",
    "vbar_from_temperature",
    "velocity_average",
    "voigt_density",
    "w_mu_exact",
    "w_mu_time_domain",
    "w_mu_time_domain_grid",
    "w_mu_weak",
    "weak_doublet_components",
    "weak_doublet_gaussian",
    "weak_pointwise",
    "weak_field_ratio",
]
